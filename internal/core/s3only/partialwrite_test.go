package s3only

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"passcloud/internal/cloud"
	"passcloud/internal/cloud/retry"
	"passcloud/internal/core"
	"passcloud/internal/pass"
	"passcloud/internal/prov"
	"passcloud/internal/sim"
)

var tightRetry = retry.Policy{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: time.Millisecond, Budget: 10 * time.Millisecond}

func fileEv(object string, version int, data string) pass.FlushEvent {
	ref := prov.Ref{Object: prov.ObjectID(object), Version: prov.Version(version)}
	return pass.FlushEvent{Ref: ref, Type: prov.TypeFile, Data: []byte(data), Records: []prov.Record{
		prov.NewString(ref, prov.AttrType, prov.TypeFile),
		prov.NewString(ref, prov.AttrName, object),
	}}
}

func procEv(name string) pass.FlushEvent {
	ref := prov.Ref{Object: prov.ObjectID("proc/1/" + name), Version: 0}
	return pass.FlushEvent{Ref: ref, Type: prov.TypeProcess, Records: []prov.Record{
		prov.NewString(ref, prov.AttrType, prov.TypeProcess),
		prov.NewString(ref, prov.AttrName, name),
	}}
}

// TestPutBatchPartialFailureListsLandedEvents: a failed PUT mid-batch must
// surface a typed error naming the file versions that landed plus the
// transient riders their metadata carried.
func TestPutBatchPartialFailureListsLandedEvents(t *testing.T) {
	ctx := context.Background()
	faults := sim.NewFaultPlan()
	cl := cloud.New(cloud.Config{Seed: 1, Faults: faults})
	st, err := New(Config{Cloud: cl, Faults: faults, PutConcurrency: 1, Retry: tightRetry})
	if err != nil {
		t.Fatal(err)
	}

	proc := procEv("tool")
	f1 := fileEv("/a", 0, "one") // carries the proc's records
	f2 := fileEv("/b", 0, "two")
	faults.ArmOp("s3/PUT", sim.ClassPermanent, 1, 1) // second data PUT fails

	err = st.PutBatch(ctx, []pass.FlushEvent{proc, f1, f2})
	if err == nil {
		t.Fatal("expected the injected fault to fail the batch")
	}
	var pw *core.PartialWriteError
	if !errors.As(err, &pw) {
		t.Fatalf("expected PartialWriteError, got %T: %v", err, err)
	}
	want := map[prov.Ref]bool{f1.Ref: true, proc.Ref: true}
	if len(pw.Landed) != len(want) {
		t.Fatalf("landed = %v, want first file + its rider", pw.Landed)
	}
	for _, ref := range pw.Landed {
		if !want[ref] {
			t.Errorf("unexpected landed ref %s", ref)
		}
	}
}

// TestPassRetriesOnlyUnlandedEvents proves the partial-batch recovery
// contract end to end: after a half-landed flush, the next Sync re-sends
// only the events that did not land — landed events are not replayed into
// the store (no duplicate records), unlanded events are not lost.
func TestPassRetriesOnlyUnlandedEvents(t *testing.T) {
	ctx := context.Background()
	faults := sim.NewFaultPlan()
	cl := cloud.New(cloud.Config{Seed: 2, Faults: faults})
	st, err := New(Config{Cloud: cl, Faults: faults, PutConcurrency: 1, Retry: tightRetry})
	if err != nil {
		t.Fatal(err)
	}
	var batches [][]prov.Ref
	flush := func(ctx context.Context, batch []pass.FlushEvent) error {
		refs := make([]prov.Ref, len(batch))
		for i, ev := range batch {
			refs[i] = ev.Ref
		}
		batches = append(batches, refs)
		return st.PutBatch(ctx, batch)
	}
	sys := pass.NewSystem(pass.Config{Flush: flush})

	if err := sys.Ingest(ctx, "/in", []byte("seed")); err != nil {
		t.Fatal(err)
	}
	p := sys.Exec(nil, pass.ExecSpec{Name: "worker"})
	if err := sys.Read(p, "/in"); err != nil {
		t.Fatal(err)
	}
	if err := sys.Write(p, "/mid", []byte("mid"), pass.Truncate); err != nil {
		t.Fatal(err)
	}
	// Reading /mid back freezes it and makes it an ancestor of /out, so
	// one Close coalesces both files into a single batch.
	if err := sys.Read(p, "/mid"); err != nil {
		t.Fatal(err)
	}
	if err := sys.Write(p, "/out", []byte("out"), pass.Truncate); err != nil {
		t.Fatal(err)
	}

	// /mid lands, /out's PUT fails: the close half-lands its batch. The
	// ingest PUT already consumed one check, so skip past it plus /mid.
	faults.ArmOp("s3/PUT", sim.ClassPermanent, 1, 1)
	if err := sys.Close(ctx, p, "/out"); err == nil {
		t.Fatal("expected the first close to fail")
	}
	firstLen := len(batches[len(batches)-1])
	if firstLen < 2 {
		t.Fatalf("first sync batch had %d events; want the whole chain", firstLen)
	}

	if err := sys.Sync(ctx); err != nil {
		t.Fatalf("second sync: %v", err)
	}
	retryBatch := batches[len(batches)-1]
	if len(retryBatch) >= firstLen {
		t.Fatalf("retry re-sent %d of %d events; landed events must be excluded", len(retryBatch), firstLen)
	}
	for _, ref := range retryBatch {
		if ref.Object == "/mid" {
			t.Errorf("landed event %s was re-sent on retry", ref)
		}
	}

	cl.Settle()
	for path, want := range map[string]string{"/mid": "mid", "/out": "out"} {
		obj, err := st.Get(ctx, prov.ObjectID(path))
		if err != nil {
			t.Fatalf("get %s: %v", path, err)
		}
		if string(obj.Data) != want {
			t.Errorf("%s = %q, want %q", path, obj.Data, want)
		}
	}
}

// TestStalePendingVersionCannotOverwriteNewerData: when a newer version
// lands while an older one stays pending (flush reordering across partial
// failures), the older version's retry must not regress the object.
func TestStalePendingVersionCannotOverwriteNewerData(t *testing.T) {
	ctx := context.Background()
	faults := sim.NewFaultPlan()
	cl := cloud.New(cloud.Config{Seed: 3, Faults: faults})
	st, err := New(Config{Cloud: cl, Faults: faults, PutConcurrency: 1, Retry: tightRetry})
	if err != nil {
		t.Fatal(err)
	}

	v0 := fileEv("/f", 0, "old")
	v1 := fileEv("/f", 1, "new")
	// v0's batch fails outright; v1 then lands; v0 is retried after.
	faults.ArmOp("s3/PUT", sim.ClassPermanent, 0, 1)
	if err := core.Put(ctx, st, v0); err == nil {
		t.Fatal("expected v0's first flush to fail")
	}
	if err := core.Put(ctx, st, v1); err != nil {
		t.Fatal(err)
	}
	if err := core.Put(ctx, st, v0); err != nil {
		t.Fatalf("stale v0 retry should succeed as a no-op, got %v", err)
	}
	cl.Settle()
	obj, err := st.Get(ctx, "/f")
	if err != nil {
		t.Fatal(err)
	}
	if obj.Ref.Version != 1 || string(obj.Data) != "new" {
		t.Fatalf("object regressed: v%d %q, want v1 %q", obj.Ref.Version, obj.Data, "new")
	}
}

// TestAckLossExhaustionCannotDoubleApplyRiders: when every retry of a
// carrier PUT suffers ack loss (applied, response lost) until the budget
// exhausts, the landed-probe must recognize the write as durable — without
// it, the buffered rider records would be restored and re-carried under a
// different key, duplicating provenance.
func TestAckLossExhaustionCannotDoubleApplyRiders(t *testing.T) {
	ctx := context.Background()
	faults := sim.NewFaultPlan()
	cl := cloud.New(cloud.Config{Seed: 6, Faults: faults})
	st, err := New(Config{Cloud: cl, Faults: faults, PutConcurrency: 1, Retry: tightRetry})
	if err != nil {
		t.Fatal(err)
	}
	proc := procEv("rider")
	f := fileEv("/carrier", 0, "payload")
	// Both attempts (MaxAttempts = 2) lose their response after applying.
	faults.ArmOp("s3/PUT", sim.ClassAckLoss, 0, 2)
	if err := st.PutBatch(ctx, []pass.FlushEvent{proc, f}); err != nil {
		t.Fatalf("the landed-probe should settle the ambiguous exhaustion: %v", err)
	}
	// A later flush must not re-carry the rider's records.
	if err := core.Put(ctx, st, fileEv("/next", 0, "x")); err != nil {
		t.Fatal(err)
	}
	if err := st.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	cl.Settle()
	all, err := core.CollectRecords(st.Query(ctx, prov.Q1()))
	if err != nil {
		t.Fatal(err)
	}
	riderRecords := 0
	for ref, records := range all {
		if ref == proc.Ref {
			riderRecords += len(records)
		}
	}
	if riderRecords != len(proc.Records) {
		t.Fatalf("rider has %d records, want %d (double-applied)", riderRecords, len(proc.Records))
	}
}

// TestSyncRestoresBufferedProvenanceOnFailure: a failed pnode-marker PUT
// must put the buffered trailing records back so a later Sync persists
// them instead of silently dropping provenance.
func TestSyncRestoresBufferedProvenanceOnFailure(t *testing.T) {
	ctx := context.Background()
	faults := sim.NewFaultPlan()
	cl := cloud.New(cloud.Config{Seed: 4, Faults: faults})
	st, err := New(Config{Cloud: cl, Faults: faults, PutConcurrency: 1, Retry: tightRetry})
	if err != nil {
		t.Fatal(err)
	}
	// Buffer a transient event with no carrier, then fail the marker PUT.
	if err := core.Put(ctx, st, procEv("straggler")); err != nil {
		t.Fatal(err)
	}
	faults.ArmOp("s3/PUT", sim.ClassPermanent, 0, 1)
	if err := st.Sync(ctx); err == nil {
		t.Fatal("expected the first sync to fail")
	}
	if err := st.Sync(ctx); err != nil {
		t.Fatalf("second sync: %v", err)
	}
	cl.Settle()
	all, err := core.CollectRecords(st.Query(ctx, prov.Q1()))
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for ref := range all {
		if ref.Object == "proc/1/straggler" {
			found = true
		}
	}
	if !found {
		t.Fatalf("straggler provenance lost after failed sync; subjects: %v", fmt.Sprint(len(all)))
	}
}

// TestHeadFaultNeverDropsProvenance: a transient HEAD fault during the
// metadata scan is retried, not mistaken for a deletion between LIST and
// HEAD, so neither the query, nor the snapshot it caches, nor the audit
// loses the object. A permanent HEAD fault fails the query instead of
// returning a short result.
func TestHeadFaultNeverDropsProvenance(t *testing.T) {
	ctx := context.Background()
	faults := sim.NewFaultPlan()
	cl := cloud.New(cloud.Config{Seed: 1, Faults: faults})
	st, err := New(Config{Cloud: cl, Faults: faults, Retry: tightRetry})
	if err != nil {
		t.Fatal(err)
	}
	const n = 5
	for i := 0; i < n; i++ {
		if err := core.Put(ctx, st, fileEv(fmt.Sprintf("/f%d", i), 0, "data")); err != nil {
			t.Fatal(err)
		}
	}

	faults.ArmOp("s3/HEAD", sim.ClassTransient, 1, 1)
	for _, round := range []string{"scan", "cached snapshot"} {
		entries, err := core.CollectEntries(st.Query(ctx, prov.Q1()))
		if err != nil {
			t.Fatalf("%s: %v", round, err)
		}
		if len(entries) != n {
			t.Fatalf("%s: Q1 returned %d of %d entries", round, len(entries), n)
		}
	}

	faults.ArmOp("s3/HEAD", sim.ClassTransient, 1, 1)
	a, err := st.Audit(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Entries) != n {
		t.Fatalf("audit saw %d of %d subjects", len(a.Entries), n)
	}

	st.InvalidateQueries()
	faults.ArmOp("s3/HEAD", sim.ClassPermanent, 1, 1)
	if entries, err := core.CollectEntries(st.Query(ctx, prov.Q1())); err == nil {
		t.Fatalf("permanent HEAD fault returned %d entries and no error", len(entries))
	}
}

// TestRemoveArcHeadFaultFails: during arc removal only a missing key means
// "deleted between LIST and HEAD". Any other HEAD failure fails the
// removal, so a carrier is never skipped silently and left behind on the
// source after the flip.
func TestRemoveArcHeadFaultFails(t *testing.T) {
	ctx := context.Background()
	faults := sim.NewFaultPlan()
	cl := cloud.New(cloud.Config{Seed: 1, Faults: faults})
	st, err := New(Config{Cloud: cl, Faults: faults, Retry: tightRetry})
	if err != nil {
		t.Fatal(err)
	}
	if err := core.Put(ctx, st, fileEv("/moving", 0, "data")); err != nil {
		t.Fatal(err)
	}
	faults.ArmOp("s3/HEAD", sim.ClassPermanent, 0, 1)
	n, err := st.RemoveArc(ctx, func(prov.ObjectID) bool { return true })
	if err == nil {
		t.Fatalf("permanent HEAD fault: RemoveArc removed %d carriers and returned no error", n)
	}
	if _, err := cl.S3.Head(st.bucket, dataKey("/moving")); err != nil {
		t.Fatalf("carrier gone after a failed removal: %v", err)
	}
}
