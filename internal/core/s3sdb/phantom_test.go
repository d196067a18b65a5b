package s3sdb

import (
	"context"
	"testing"

	"passcloud/internal/cloud"
	"passcloud/internal/cloud/billing"
	"passcloud/internal/core"
	"passcloud/internal/pass"
	"passcloud/internal/prov"
	"passcloud/internal/sim"
)

// TestFailedForeignWriteKeepsExplainExactAndCacheWarm is the phantom-
// invalidation regression: a write that errors before landing changes no
// state, so it must neither degrade this client's Explain from Exact to
// estimate nor expire its query-cache snapshot. Before the fix, failed
// mutating requests were metered under the same ledger key as successful
// ones, so the write tracker counted them as foreign mutations and the
// cache stamp moved — skewing Explain's Exact/estimate decision and
// forcing a full re-scan, for a write that never happened.
func TestFailedForeignWriteKeepsExplainExactAndCacheWarm(t *testing.T) {
	ctx := context.Background()
	faults := sim.NewFaultPlan()
	cl := cloud.New(cloud.Config{Seed: 11, Faults: faults})
	a, err := New(Config{Cloud: cl})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.PutBatch(ctx, []pass.FlushEvent{flushFile("/mine", 0, "data")}); err != nil {
		t.Fatal(err)
	}
	cl.Settle()

	// Warm the snapshot and establish the baseline plan.
	if _, err := core.CollectRecords(a.Query(ctx, prov.Q1())); err != nil {
		t.Fatal(err)
	}
	if plan := a.Explain(prov.Q1()); !plan.Exact {
		t.Fatalf("baseline plan should be exact (no foreign writes): %+v", plan)
	}
	warmOps := cl.Usage().TotalOps()
	if _, err := core.CollectRecords(a.Query(ctx, prov.Q1())); err != nil {
		t.Fatal(err)
	}
	if d := cl.Usage().TotalOps() - warmOps; d != 0 {
		t.Fatalf("warm repeat cost %d ops, want 0", d)
	}

	// A second client's write fails before landing: every one of its
	// mutating requests is rejected.
	b, err := New(Config{Cloud: cl, Faults: faults})
	if err != nil {
		t.Fatal(err)
	}
	faults.ArmOp("sdb/BatchPutAttributes", sim.ClassPermanent, 0, 4)
	faults.ArmOp("s3/PUT", sim.ClassPermanent, 0, 4)
	if err := b.PutBatch(ctx, []pass.FlushEvent{flushFile("/theirs", 0, "x")}); err == nil {
		t.Fatal("expected the injected fault to fail b's write")
	}

	// The rejected requests are still billed — under the error-suffixed
	// ledger keys, which is exactly why the counters below stay clean.
	if n := cl.Usage().FailedOps(billing.SimpleDB) + cl.Usage().FailedOps(billing.S3); n == 0 {
		t.Fatal("injected failures were not billed as failed requests")
	}

	// Nothing landed, so a's view must be unchanged: plan still exact,
	// snapshot still warm.
	if plan := a.Explain(prov.Q1()); !plan.Exact {
		t.Fatalf("failed foreign write degraded Explain to estimate: %+v", plan)
	}
	before := cl.Usage().TotalOps()
	if _, err := core.CollectRecords(a.Query(ctx, prov.Q1())); err != nil {
		t.Fatal(err)
	}
	if d := cl.Usage().TotalOps() - before; d != 0 {
		t.Fatalf("failed foreign write expired the snapshot: repeat cost %d ops, want 0", d)
	}
	if f := a.Layer().ForeignWrites(); f != 0 {
		t.Fatalf("tracker attributes %d foreign mutations to a write that never landed", f)
	}
}

// TestFailedOwnWriteKeepsExplainExact: this client's own failed batch must
// not leave phantom state in the planner either — Explain stays exact and
// the catalog holds no phantom items (covered in sdbprov tests) even
// though the cache conservatively invalidates.
func TestFailedOwnWriteKeepsExplainExact(t *testing.T) {
	ctx := context.Background()
	faults := sim.NewFaultPlan()
	cl := cloud.New(cloud.Config{Seed: 12, Faults: faults})
	st, err := New(Config{Cloud: cl, Faults: faults})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.PutBatch(ctx, []pass.FlushEvent{flushFile("/base", 0, "data")}); err != nil {
		t.Fatal(err)
	}
	cl.Settle()

	faults.ArmOp("sdb/BatchPutAttributes", sim.ClassPermanent, 0, 4)
	faults.ArmOp("s3/PUT", sim.ClassPermanent, 0, 4)
	if err := st.PutBatch(ctx, []pass.FlushEvent{flushFile("/fail", 0, "y")}); err == nil {
		t.Fatal("expected the injected fault to fail the write")
	}
	if plan := st.Explain(prov.Q1()); !plan.Exact {
		t.Fatalf("own failed write degraded Explain to estimate: %+v", plan)
	}
	// And the failed subject must not appear in query results.
	all, err := core.CollectRecords(st.Query(ctx, prov.Q1()))
	if err != nil {
		t.Fatal(err)
	}
	for ref := range all {
		if ref.Object == "/fail" {
			t.Fatalf("failed write's subject %s is query-visible", ref)
		}
	}
}
