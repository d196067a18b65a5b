package s3only

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"passcloud/internal/cloud"
	"passcloud/internal/cloud/billing"
	"passcloud/internal/core"
	"passcloud/internal/core/integrity"
	"passcloud/internal/pass"
	"passcloud/internal/prov"
	"passcloud/internal/sim"
)

func newTestStore(t *testing.T, faults *sim.FaultPlan) (*Store, *cloud.Cloud) {
	t.Helper()
	cl := cloud.New(cloud.Config{Seed: 1})
	st, err := New(Config{Cloud: cl, Faults: faults})
	if err != nil {
		t.Fatal(err)
	}
	return st, cl
}

func fileEvent(object string, version int, data string, records ...prov.Record) pass.FlushEvent {
	ref := prov.Ref{Object: prov.ObjectID(object), Version: prov.Version(version)}
	base := []prov.Record{
		prov.NewString(ref, prov.AttrType, prov.TypeFile),
		prov.NewString(ref, prov.AttrName, object),
	}
	return pass.FlushEvent{Ref: ref, Type: prov.TypeFile, Data: []byte(data), Records: append(base, records...)}
}

func procEvent(name string, pid int, records ...prov.Record) pass.FlushEvent {
	ref := prov.Ref{Object: prov.ObjectID(fmt.Sprintf("proc/%d/%s", pid, name)), Version: 0}
	base := []prov.Record{
		prov.NewString(ref, prov.AttrType, prov.TypeProcess),
		prov.NewString(ref, prov.AttrName, name),
	}
	return pass.FlushEvent{Ref: ref, Type: prov.TypeProcess, Records: append(base, records...)}
}

func TestPutGetRoundTrip(t *testing.T) {
	st, _ := newTestStore(t, nil)
	ctx := context.Background()

	ev := fileEvent("/out.dat", 0, "payload")
	if err := core.Put(ctx, st, ev); err != nil {
		t.Fatal(err)
	}
	got, err := st.Get(ctx, "/out.dat")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Data, []byte("payload")) {
		t.Fatalf("data = %q", got.Data)
	}
	if got.Ref != ev.Ref {
		t.Fatalf("ref = %v, want %v", got.Ref, ev.Ref)
	}
	if len(got.Records) != 2 {
		t.Fatalf("records = %v", got.Records)
	}
}

func TestGetMissing(t *testing.T) {
	st, _ := newTestStore(t, nil)
	if _, err := st.Get(context.Background(), "/ghost"); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}

func TestTransientRecordsRideDescendantPut(t *testing.T) {
	st, cl := newTestStore(t, nil)
	ctx := context.Background()

	proc := procEvent("tool", 9)
	puts := func() int64 { return cl.Usage().OpCount(billing.S3, "PUT") }
	before := puts()
	if err := core.Put(ctx, st, proc); err != nil {
		t.Fatal(err)
	}
	// A transient flush alone must not touch S3 (paper: the only extra
	// PUTs in this architecture come from >1 KB records).
	if got := puts(); got != before {
		t.Fatalf("transient flush issued %d PUTs", got-before)
	}

	file := fileEvent("/out.dat", 0, "x", prov.NewInput(
		prov.Ref{Object: "/out.dat", Version: 0}, proc.Ref))
	if err := core.Put(ctx, st, file); err != nil {
		t.Fatal(err)
	}
	if got := puts(); got != before+1 {
		t.Fatalf("file flush issued %d PUTs, want exactly 1", got-before)
	}

	// The process provenance is now retrievable (via the scan path).
	records, err := st.Provenance(ctx, proc.Ref)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 2 {
		t.Fatalf("process records = %v", records)
	}
}

func TestOverflowRecordsBecomeSeparateObjects(t *testing.T) {
	st, cl := newTestStore(t, nil)
	ctx := context.Background()

	bigEnv := strings.Repeat("E", 1500) // > 1 KB: must overflow
	ref := prov.Ref{Object: "/out.dat", Version: 0}
	ev := fileEvent("/out.dat", 0, "x",
		prov.NewString(ref, prov.AttrEnv, bigEnv))

	before := cl.Usage().OpCount(billing.S3, "PUT")
	if err := core.Put(ctx, st, ev); err != nil {
		t.Fatal(err)
	}
	delta := cl.Usage().OpCount(billing.S3, "PUT") - before
	if delta != 2 { // overflow object + data object
		t.Fatalf("PUT delta = %d, want 2 (one overflow)", delta)
	}

	got, err := st.Get(ctx, "/out.dat")
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range got.Records {
		if r.Attr == prov.AttrEnv && r.Value.Str == bigEnv {
			found = true
		}
	}
	if !found {
		t.Fatalf("overflowed value not resolved: %v", got.Records)
	}
}

func TestMetadataSpillBundle(t *testing.T) {
	st, _ := newTestStore(t, nil)
	ctx := context.Background()

	// Many sub-1KB records whose total exceeds the 2 KB metadata limit.
	ref := prov.Ref{Object: "/fat.dat", Version: 0}
	var extra []prov.Record
	for i := 0; i < 20; i++ {
		extra = append(extra, prov.NewString(ref, prov.AttrEnv, strings.Repeat("v", 200)))
	}
	if err := core.Put(ctx, st, fileEvent("/fat.dat", 0, "x", extra...)); err != nil {
		t.Fatal(err)
	}
	got, err := st.Get(ctx, "/fat.dat")
	if err != nil {
		t.Fatal(err)
	}
	envs := 0
	for _, r := range got.Records {
		if r.Attr == prov.AttrEnv {
			envs++
		}
	}
	if envs != 20 {
		t.Fatalf("recovered %d env records, want 20 (bundle lost records)", envs)
	}
}

func TestAtomicityUnderCrash(t *testing.T) {
	// Crash before the PUT: neither data nor provenance may exist.
	faults := sim.NewFaultPlan()
	faults.Arm("s3only/before-put")
	st, _ := newTestStore(t, faults)
	ctx := context.Background()

	err := core.Put(ctx, st, fileEvent("/out.dat", 0, "x"))
	if !errors.Is(err, sim.ErrCrash) {
		t.Fatalf("err = %v, want injected crash", err)
	}
	if _, err := st.Get(ctx, "/out.dat"); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("data visible after crash: %v", err)
	}
	all, err := core.CollectRecords(st.Query(ctx, prov.Q1()))
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 0 {
		t.Fatalf("provenance visible after crash: %v", all)
	}
}

func TestReadCorrectnessUnderEventualConsistency(t *testing.T) {
	// With propagation delays, reads may be stale — but data and
	// provenance always match, because they travel in one PUT.
	cl := cloud.New(cloud.Config{Seed: 7, MaxDelay: 10 * time.Second})
	st, err := New(Config{Cloud: cl})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	for v := 0; v < 2; v++ {
		ref := prov.Ref{Object: "/d", Version: prov.Version(v)}
		ev := pass.FlushEvent{Ref: ref, Type: prov.TypeFile,
			Data: []byte(fmt.Sprintf("gen%d", v)),
			Records: []prov.Record{
				prov.NewString(ref, prov.AttrType, prov.TypeFile),
				prov.NewString(ref, prov.AttrEnv, fmt.Sprintf("gen%d", v)),
			}}
		if err := core.Put(ctx, st, ev); err != nil {
			t.Fatal(err)
		}
	}

	for i := 0; i < 200; i++ {
		obj, err := st.Get(ctx, "/d")
		if errors.Is(err, core.ErrNotFound) {
			continue // the serving replica has not seen any PUT yet: fine
		}
		if err != nil {
			t.Fatal(err)
		}
		var envVal string
		for _, r := range obj.Records {
			if r.Attr == prov.AttrEnv {
				envVal = r.Value.Str
			}
		}
		if string(obj.Data) != envVal {
			t.Fatalf("torn read: data %q with provenance %q", obj.Data, envVal)
		}
	}
}

func TestProvenanceCurrentVersionUsesHead(t *testing.T) {
	st, cl := newTestStore(t, nil)
	ctx := context.Background()
	if err := core.Put(ctx, st, fileEvent("/x", 3, "v3")); err != nil {
		t.Fatal(err)
	}
	before := cl.Usage().Ops(billing.S3)
	ref := prov.Ref{Object: "/x", Version: 3}
	records, err := st.Provenance(ctx, ref)
	if err != nil || len(records) != 2 {
		t.Fatalf("records = %v, %v", records, err)
	}
	if delta := cl.Usage().Ops(billing.S3) - before; delta > 2 {
		t.Fatalf("current-version Provenance cost %d ops, want HEAD-only", delta)
	}
}

func TestQueriesRequireFullScan(t *testing.T) {
	st, cl := newTestStore(t, nil)
	ctx := context.Background()

	// blast -> out1; other -> out2.
	blast := procEvent("blast", 1)
	other := procEvent("other", 2)
	out1 := fileEvent("/out1", 0, "a", prov.NewInput(prov.Ref{Object: "/out1"}, blast.Ref))
	out2 := fileEvent("/out2", 0, "b", prov.NewInput(prov.Ref{Object: "/out2"}, other.Ref))
	child := fileEvent("/child", 0, "c", prov.NewInput(prov.Ref{Object: "/child"}, prov.Ref{Object: "/out1"}))
	for _, ev := range []pass.FlushEvent{blast, out1, other, out2, child} {
		if err := core.Put(ctx, st, ev); err != nil {
			t.Fatal(err)
		}
	}

	before := cl.Usage().OpCount(billing.S3, "HEAD")
	outputs, err := core.CollectRefs(st.Query(ctx, prov.QOutputsOf("blast")))
	if err != nil {
		t.Fatal(err)
	}
	if len(outputs) != 1 || outputs[0].Object != "/out1" {
		t.Fatalf("OutputsOf = %v", outputs)
	}
	heads := cl.Usage().OpCount(billing.S3, "HEAD") - before
	if heads < 3 {
		t.Fatalf("query issued %d HEADs; expected one per stored object (full scan)", heads)
	}

	desc, err := core.CollectRefs(st.Query(ctx, prov.QDescendantsOfOutputs("blast")))
	if err != nil {
		t.Fatal(err)
	}
	if len(desc) != 1 || desc[0].Object != "/child" {
		t.Fatalf("DescendantsOfOutputs = %v", desc)
	}

	all, err := core.CollectRecords(st.Query(ctx, prov.Q1()))
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 5 { // 3 files + 2 processes
		t.Fatalf("AllProvenance subjects = %d, want 5", len(all))
	}
}

func TestPropertiesRow(t *testing.T) {
	st, _ := newTestStore(t, nil)
	p := st.Properties()
	if !p.Atomicity || !p.Consistency || !p.CausalOrdering || p.EfficientQuery {
		t.Fatalf("properties = %+v, want Table 1 row 1", p)
	}
	if !p.ReadCorrectness() {
		t.Fatal("read correctness should hold")
	}
	if st.Name() != "s3" {
		t.Fatalf("Name = %q", st.Name())
	}
}

func TestFullWorkloadThroughStore(t *testing.T) {
	st, _ := newTestStore(t, nil)
	ctx := context.Background()
	sys := pass.NewSystem(pass.Config{Flush: core.Flusher(st)})

	if err := sys.Ingest(ctx, "/in", []byte("input")); err != nil {
		t.Fatal(err)
	}
	p := sys.Exec(nil, pass.ExecSpec{Name: "tool", Argv: []string{"tool"}})
	if err := sys.Read(p, "/in"); err != nil {
		t.Fatal(err)
	}
	if err := sys.Write(p, "/out", []byte("result"), pass.Truncate); err != nil {
		t.Fatal(err)
	}
	if err := sys.Close(ctx, p, "/out"); err != nil {
		t.Fatal(err)
	}

	obj, err := st.Get(ctx, "/out")
	if err != nil || string(obj.Data) != "result" {
		t.Fatalf("Get = %v, %v", obj, err)
	}
	outputs, err := core.CollectRefs(st.Query(ctx, prov.QOutputsOf("tool")))
	if err != nil || len(outputs) != 1 {
		t.Fatalf("OutputsOf = %v, %v", outputs, err)
	}
}

// --- query-performance subsystem -------------------------------------------

// loadN stores n independent file versions.
func loadN(t *testing.T, st *Store, n int) {
	t.Helper()
	ctx := context.Background()
	for i := 0; i < n; i++ {
		if err := core.Put(ctx, st, fileEvent(fmt.Sprintf("/load/%03d", i), 0, "x")); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSnapshotCacheMakesRepeatQueriesFree(t *testing.T) {
	st, cl := newTestStore(t, nil)
	ctx := context.Background()
	blast := procEvent("blast", 1)
	out := fileEvent("/out", 0, "o", prov.NewInput(prov.Ref{Object: "/out"}, blast.Ref))
	for _, ev := range []pass.FlushEvent{blast, out} {
		if err := core.Put(ctx, st, ev); err != nil {
			t.Fatal(err)
		}
	}
	loadN(t, st, 20)

	// Cold: the full scan.
	before := cl.Usage().TotalOps()
	if _, err := core.CollectRefs(st.Query(ctx, prov.QOutputsOf("blast"))); err != nil {
		t.Fatal(err)
	}
	cold := cl.Usage().TotalOps() - before
	if cold < 20 {
		t.Fatalf("cold query cost %d ops; expected a full scan", cold)
	}

	// Warm: every query class answers from the snapshot at zero cloud ops.
	before = cl.Usage().TotalOps()
	if refs, err := core.CollectRefs(st.Query(ctx, prov.QOutputsOf("blast"))); err != nil || len(refs) != 1 {
		t.Fatalf("warm OutputsOf = %v, %v", refs, err)
	}
	if _, err := core.CollectRefs(st.Query(ctx, prov.QDescendantsOfOutputs("blast"))); err != nil {
		t.Fatal(err)
	}
	if all, err := core.CollectRecords(st.Query(ctx, prov.Q1())); err != nil || len(all) != 22 {
		t.Fatalf("warm AllProvenance = %d, %v", len(all), err)
	}
	if _, err := core.CollectRefs(st.Query(ctx, prov.QDependents(blast.Ref.Object))); err != nil {
		t.Fatal(err)
	}
	if warm := cl.Usage().TotalOps() - before; warm != 0 {
		t.Fatalf("warm queries cost %d cloud ops, want 0", warm)
	}
	stats := st.CacheStats()
	if stats.GraphMisses != 1 || stats.GraphHits < 3 {
		t.Fatalf("cache stats = %+v", stats)
	}
}

func TestWriteBetweenQueriesInvalidatesSnapshot(t *testing.T) {
	st, _ := newTestStore(t, nil)
	ctx := context.Background()
	blast := procEvent("blast", 1)
	out1 := fileEvent("/out1", 0, "a", prov.NewInput(prov.Ref{Object: "/out1"}, blast.Ref))
	for _, ev := range []pass.FlushEvent{blast, out1} {
		if err := core.Put(ctx, st, ev); err != nil {
			t.Fatal(err)
		}
	}
	refs, err := core.CollectRefs(st.Query(ctx, prov.QOutputsOf("blast")))
	if err != nil || len(refs) != 1 {
		t.Fatalf("OutputsOf = %v, %v", refs, err)
	}

	// A second output lands after the snapshot was taken.
	out2 := fileEvent("/out2", 0, "b", prov.NewInput(prov.Ref{Object: "/out2"}, blast.Ref))
	if err := core.Put(ctx, st, out2); err != nil {
		t.Fatal(err)
	}
	refs, err = core.CollectRefs(st.Query(ctx, prov.QOutputsOf("blast")))
	if err != nil || len(refs) != 2 {
		t.Fatalf("OutputsOf after write = %v, %v; stale snapshot served", refs, err)
	}
}

// ctxAfterChecks reports cancellation after its Err method has been
// consulted n times — deterministic mid-scan cancellation.
type ctxAfterChecks struct {
	context.Context
	mu sync.Mutex
	n  int
}

func (c *ctxAfterChecks) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.n <= 0 {
		return context.Canceled
	}
	c.n--
	return nil
}

func TestScanCancellationHonoredPerObject(t *testing.T) {
	for name, conc := range map[string]int{"sequential": 1, "parallel": 4} {
		t.Run(name, func(t *testing.T) {
			cl := cloud.New(cloud.Config{Seed: 1})
			st, err := New(Config{Cloud: cl, ScanConcurrency: conc, DisableQueryCache: true})
			if err != nil {
				t.Fatal(err)
			}
			loadN(t, st, 40)

			// Budget of 6 Err checks: one for the LIST loop, the rest for
			// scan workers. The scan must stop long before 40 HEADs — the
			// old per-page check would have drained the whole page.
			cctx := &ctxAfterChecks{Context: context.Background(), n: 6}
			before := cl.Usage().OpCount(billing.S3, "HEAD")
			_, err = core.CollectRecords(st.Query(cctx, prov.Q1()))
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			heads := cl.Usage().OpCount(billing.S3, "HEAD") - before
			if heads > 6 {
				t.Fatalf("cancelled scan issued %d HEADs; cancellation not honored per object", heads)
			}
		})
	}
}

func TestParallelScanMatchesSequential(t *testing.T) {
	ctx := context.Background()
	var want map[prov.Ref][]prov.Record
	for _, conc := range []int{1, 8} {
		cl := cloud.New(cloud.Config{Seed: 1})
		st, err := New(Config{Cloud: cl, ScanConcurrency: conc, DisableQueryCache: true})
		if err != nil {
			t.Fatal(err)
		}
		blast := procEvent("blast", 1)
		if err := core.Put(ctx, st, blast); err != nil {
			t.Fatal(err)
		}
		loadN(t, st, 30)
		all, err := core.CollectRecords(st.Query(ctx, prov.Q1()))
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = all
			continue
		}
		if len(all) != len(want) {
			t.Fatalf("conc %d: %d subjects, want %d", conc, len(all), len(want))
		}
		for ref, records := range want {
			if len(all[ref]) != len(records) {
				t.Fatalf("conc %d: subject %v has %d records, want %d", conc, ref, len(all[ref]), len(records))
			}
		}
	}
}

// TestPagedScanMergesPieces: a subject whose records rode several carrier
// PUTs streams in pieces on the uncached scan; a paginated query must still
// return exactly one entry per ref — the no-duplicates cursor contract —
// with the pieces' records merged.
func TestPagedScanMergesPieces(t *testing.T) {
	cl := cloud.New(cloud.Config{Seed: 1})
	st, err := New(Config{Cloud: cl, DisableQueryCache: true})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	proc := prov.Ref{Object: "proc/1/tool", Version: 0}
	// Two batches: each carries one piece of the process's records on a
	// different file's PUT.
	batches := [][]pass.FlushEvent{
		{
			{Ref: proc, Type: prov.TypeProcess, Records: []prov.Record{
				prov.NewString(proc, prov.AttrType, prov.TypeProcess)}},
			fileEvent("/f1", 0, "one"),
		},
		{
			{Ref: proc, Type: prov.TypeProcess, Records: []prov.Record{
				prov.NewString(proc, prov.AttrName, "tool")}},
			fileEvent("/f2", 0, "two"),
		},
	}
	for _, b := range batches {
		if err := st.PutBatch(ctx, b); err != nil {
			t.Fatal(err)
		}
	}

	q := prov.Query{Limit: 1}
	seen := map[prov.Ref]int{}
	procRecords := 0
	for {
		cursor := ""
		for e, err := range st.Query(ctx, q) {
			if err != nil {
				t.Fatal(err)
			}
			seen[e.Ref]++
			if e.Ref == proc {
				procRecords = len(e.Records)
			}
			cursor = e.Cursor
		}
		if cursor == "" {
			break
		}
		q.Cursor = cursor
	}
	for ref, n := range seen {
		if n != 1 {
			t.Fatalf("paged scan returned ref %v %d times", ref, n)
		}
	}
	if procRecords != 2 {
		t.Fatalf("process entry carries %d records, want both pieces merged", procRecords)
	}
}

// TestV1CheckpointReportsMissing pins the token-version decision: a
// stored v1 checkpoint rider is not verified against the trie root but
// rejected, so the audit reports checkpoint-missing instead of passing.
func TestV1CheckpointReportsMissing(t *testing.T) {
	st, cl := newTestStore(t, nil)
	ctx := context.Background()
	genesis := integrity.ChainRecord(prov.Ref{Object: "/out.dat"}, integrity.TokenGenesis)
	if err := core.Put(ctx, st, fileEvent("/out.dat", 0, "payload", genesis)); err != nil {
		t.Fatal(err)
	}
	cl.Settle()
	verify := func() *integrity.ShardResult {
		a, err := st.Audit(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return integrity.VerifyAudit(a)
	}
	if res := verify(); !res.Clean() {
		t.Fatalf("healthy store: %v", res.Divergences)
	}

	head, err := cl.S3.Head("pass", dataKey("/out.dat"))
	if err != nil {
		t.Fatal(err)
	}
	meta := make(map[string]string, len(head.Metadata))
	for k, v := range head.Metadata {
		meta[k] = v
	}
	v2 := meta[integrity.AttrRoot]
	if !strings.HasPrefix(v2, "v2|") {
		t.Fatalf("rider = %q, want a v2 token", v2)
	}
	meta[integrity.AttrRoot] = "v1" + strings.TrimPrefix(v2, "v2")
	if err := cl.S3.Copy("pass", dataKey("/out.dat"), "pass", dataKey("/out.dat"), meta); err != nil {
		t.Fatal(err)
	}
	cl.Settle()
	res := verify()
	if len(res.Divergences) != 1 || res.Divergences[0].Kind != integrity.CheckpointMissing {
		t.Fatalf("v1 rider: divergences = %v, want exactly one checkpoint-missing", res.Divergences)
	}
}
