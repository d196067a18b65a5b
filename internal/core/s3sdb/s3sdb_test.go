package s3sdb

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"passcloud/internal/cloud"
	"passcloud/internal/cloud/billing"
	"passcloud/internal/core"
	"passcloud/internal/core/sdbprov"
	"passcloud/internal/pass"
	"passcloud/internal/prov"
	"passcloud/internal/sim"
)

func newTestStore(t *testing.T, faults *sim.FaultPlan, maxDelay time.Duration) (*Store, *cloud.Cloud) {
	t.Helper()
	cl := cloud.New(cloud.Config{Seed: 1, MaxDelay: maxDelay})
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
	st, _ := newTestStore(t, nil, 0)
	ctx := context.Background()
	if err := core.Put(ctx, st, fileEvent("/out", 0, "payload")); err != nil {
		t.Fatal(err)
	}
	got, err := st.Get(ctx, "/out")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Data, []byte("payload")) || len(got.Records) != 2 {
		t.Fatalf("got = %+v", got)
	}
}

func TestTransientSubjectsGetItemsButNoObjects(t *testing.T) {
	st, cl := newTestStore(t, nil, 0)
	ctx := context.Background()
	proc := procEvent("tool", 5)

	putsBefore := cl.Usage().OpCount(billing.S3, "PUT")
	if err := core.Put(ctx, st, proc); err != nil {
		t.Fatal(err)
	}
	if got := cl.Usage().OpCount(billing.S3, "PUT") - putsBefore; got != 0 {
		t.Fatalf("transient flush issued %d S3 PUTs", got)
	}
	records, err := st.Provenance(ctx, proc.Ref)
	if err != nil || len(records) != 2 {
		t.Fatalf("Provenance = %v, %v", records, err)
	}
}

func TestConsistencyDetectionAndRetry(t *testing.T) {
	// With propagation delay, a read can pair fresh data with stale
	// provenance. VerifiedGet must detect via MD5 and retry until both
	// sides agree — never returning a torn pair.
	st, cl := newTestStore(t, nil, 20*time.Second)
	ctx := context.Background()

	for v := 0; v < 3; v++ {
		ref := prov.Ref{Object: "/d", Version: prov.Version(v)}
		ev := pass.FlushEvent{Ref: ref, Type: prov.TypeFile,
			Data: []byte(fmt.Sprintf("generation-%d", v)),
			Records: []prov.Record{
				prov.NewString(ref, prov.AttrType, prov.TypeFile),
				prov.NewString(ref, prov.AttrEnv, fmt.Sprintf("generation-%d", v)),
			}}
		if err := core.Put(ctx, st, ev); err != nil {
			t.Fatal(err)
		}
		cl.Clock.Advance(3 * time.Second) // partial propagation between puts
	}

	for i := 0; i < 50; i++ {
		obj, err := st.Get(ctx, "/d")
		if err != nil {
			if errors.Is(err, core.ErrInconsistent) || errors.Is(err, core.ErrNotFound) || errors.Is(err, core.ErrNoProvenance) {
				continue // surfaced, not hidden: acceptable
			}
			t.Fatal(err)
		}
		var envVal string
		for _, r := range obj.Records {
			if r.Attr == prov.AttrEnv {
				envVal = r.Value.Str
			}
		}
		if string(obj.Data) != envVal {
			t.Fatalf("torn read escaped verification: data %q prov %q", obj.Data, envVal)
		}
	}
}

func TestSameContentOverwriteDetectedByNonce(t *testing.T) {
	// "The MD5sum of the data itself (without the nonce) is sufficient to
	// detect inconsistency in most cases, except when a file is
	// overwritten with the same data." The nonce closes that hole: the
	// consistency records of the two versions must differ even though the
	// bytes are identical.
	st, _ := newTestStore(t, nil, 0)
	ctx := context.Background()

	if err := core.Put(ctx, st, fileEvent("/same", 0, "identical bytes")); err != nil {
		t.Fatal(err)
	}
	_, md5v0, ok, err := st.Layer().FetchItem(context.Background(), prov.Ref{Object: "/same", Version: 0})
	if err != nil || !ok {
		t.Fatal(err)
	}
	if err := core.Put(ctx, st, fileEvent("/same", 1, "identical bytes")); err != nil {
		t.Fatal(err)
	}
	_, md5v1, ok, err := st.Layer().FetchItem(context.Background(), prov.Ref{Object: "/same", Version: 1})
	if err != nil || !ok {
		t.Fatal(err)
	}
	if md5v0 == md5v1 {
		t.Fatal("identical data produced identical consistency records; nonce not effective")
	}
	// And the read still verifies.
	if _, err := st.Get(ctx, "/same"); err != nil {
		t.Fatal(err)
	}
}

func TestAtomicityViolationOrphanProvenance(t *testing.T) {
	// The §4.2 crash: provenance stored, client dies before the data PUT.
	faults := sim.NewFaultPlan()
	faults.Arm("s3sdb/after-prov")
	st, _ := newTestStore(t, faults, 0)
	ctx := context.Background()

	err := core.Put(ctx, st, fileEvent("/orphaned", 0, "never lands"))
	if !errors.Is(err, sim.ErrCrash) {
		t.Fatalf("err = %v, want injected crash", err)
	}

	// Provenance exists...
	records, err := st.Provenance(ctx, prov.Ref{Object: "/orphaned", Version: 0})
	if err != nil || len(records) == 0 {
		t.Fatalf("orphan provenance missing: %v, %v", records, err)
	}
	// ...but the data does not: atomicity violated, surfaced on read.
	if _, err := st.Get(ctx, "/orphaned"); err == nil {
		t.Fatal("Get succeeded without data")
	}

	// Recovery: the full-domain orphan scan removes it.
	orphans, err := st.OrphanScan(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(orphans) != 1 || orphans[0] != (prov.Ref{Object: "/orphaned", Version: 0}) {
		t.Fatalf("OrphanScan = %v", orphans)
	}
	if _, err := st.Provenance(ctx, prov.Ref{Object: "/orphaned", Version: 0}); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("orphan survived the scan: %v", err)
	}
}

func TestOrphanScanSparesHealthyItems(t *testing.T) {
	st, _ := newTestStore(t, nil, 0)
	ctx := context.Background()
	if err := core.Put(ctx, st, fileEvent("/healthy", 0, "x")); err != nil {
		t.Fatal(err)
	}
	if err := core.Put(ctx, st, procEvent("tool", 3)); err != nil {
		t.Fatal(err)
	}
	// Old version items are history, not orphans.
	if err := core.Put(ctx, st, fileEvent("/healthy", 1, "y")); err != nil {
		t.Fatal(err)
	}
	orphans, err := st.OrphanScan(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(orphans) != 0 {
		t.Fatalf("scan removed healthy items: %v", orphans)
	}
}

// TestTransientSelectFaultIsRetried: the indexed design pages its
// repository listings through the retrier, as the S3-only design pages
// LIST, so one transient Select fault fails neither a Q.1 nor the orphan
// scan.
func TestTransientSelectFaultIsRetried(t *testing.T) {
	ctx := context.Background()
	faults := sim.NewFaultPlan()
	cl := cloud.New(cloud.Config{Seed: 1, Faults: faults})
	st, err := New(Config{Cloud: cl, Faults: faults})
	if err != nil {
		t.Fatal(err)
	}
	const n = 5
	for i := 0; i < n; i++ {
		if err := core.Put(ctx, st, fileEvent(fmt.Sprintf("/f%d", i), 0, "data")); err != nil {
			t.Fatal(err)
		}
	}

	faults.ArmOp("sdb/Select", sim.ClassTransient, 0, 1)
	entries, err := core.CollectEntries(st.Query(ctx, prov.Q1()))
	if err != nil {
		t.Fatalf("Q1 under a transient Select fault: %v", err)
	}
	if len(entries) != n {
		t.Fatalf("Q1 returned %d of %d entries", len(entries), n)
	}

	faults.ArmOp("sdb/Select", sim.ClassTransient, 0, 1)
	if _, err := st.OrphanScan(ctx); err != nil {
		t.Fatalf("orphan scan under a transient Select fault: %v", err)
	}
	if got := faults.OpFired("sdb/Select"); got != 2 {
		t.Fatalf("armed Select faults fired %d times, want 2", got)
	}
}

func TestOverflowValuesToS3(t *testing.T) {
	st, cl := newTestStore(t, nil, 0)
	ctx := context.Background()
	big := strings.Repeat("E", 2000)
	ref := prov.Ref{Object: "/big", Version: 0}
	ev := fileEvent("/big", 0, "x", prov.NewString(ref, prov.AttrEnv, big))

	before := cl.Usage().OpCount(billing.S3, "PUT")
	if err := core.Put(ctx, st, ev); err != nil {
		t.Fatal(err)
	}
	if got := cl.Usage().OpCount(billing.S3, "PUT") - before; got != 2 {
		t.Fatalf("PUTs = %d, want 2 (overflow + data)", got)
	}
	records, err := st.Provenance(ctx, ref)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range records {
		if r.Attr == prov.AttrEnv && r.Value.Str == big {
			found = true
		}
	}
	if !found {
		t.Fatal("overflowed value not restored")
	}
}

func TestChunkedPutAttributes(t *testing.T) {
	st, cl := newTestStore(t, nil, 0)
	ctx := context.Background()
	ref := prov.Ref{Object: "/many", Version: 0}
	var extra []prov.Record
	for i := 0; i < 150; i++ {
		extra = append(extra, prov.NewInput(ref, prov.Ref{Object: prov.ObjectID(fmt.Sprintf("/dep%03d", i))}))
	}
	before := cl.Usage().OpCount(billing.SimpleDB, "PutAttributes")
	if err := core.Put(ctx, st, fileEvent("/many", 0, "x", extra...)); err != nil {
		t.Fatal(err)
	}
	// 152 records + md5 = 153 attrs -> 2 calls of 100 + 53.
	if got := cl.Usage().OpCount(billing.SimpleDB, "PutAttributes") - before; got != 2 {
		t.Fatalf("PutAttributes calls = %d, want 2", got)
	}
	records, err := st.Provenance(ctx, ref)
	if err != nil || len(records) != 152 {
		t.Fatalf("records = %d, %v", len(records), err)
	}
}

func TestQueries(t *testing.T) {
	st, cl := newTestStore(t, nil, 0)
	ctx := context.Background()

	blast := procEvent("blast", 1)
	other := procEvent("other", 2)
	out1 := fileEvent("/out1", 0, "a", prov.NewInput(prov.Ref{Object: "/out1"}, blast.Ref))
	out2 := fileEvent("/out2", 0, "b", prov.NewInput(prov.Ref{Object: "/out2"}, other.Ref))
	child := fileEvent("/child", 0, "c", prov.NewInput(prov.Ref{Object: "/child"}, prov.Ref{Object: "/out1"}))
	grand := fileEvent("/grand", 0, "d", prov.NewInput(prov.Ref{Object: "/grand"}, prov.Ref{Object: "/child"}))
	for _, ev := range []pass.FlushEvent{blast, out1, other, out2, child, grand} {
		if err := core.Put(ctx, st, ev); err != nil {
			t.Fatal(err)
		}
	}

	headsBefore := cl.Usage().OpCount(billing.S3, "HEAD")
	queriesBefore := cl.Usage().OpCount(billing.SimpleDB, "Query")

	outputs, err := core.CollectRefs(st.Query(ctx, prov.QOutputsOf("blast")))
	if err != nil || len(outputs) != 1 || outputs[0].Object != "/out1" {
		t.Fatalf("OutputsOf = %v, %v", outputs, err)
	}
	desc, err := core.CollectRefs(st.Query(ctx, prov.QDescendantsOfOutputs("blast")))
	if err != nil {
		t.Fatal(err)
	}
	if len(desc) != 2 {
		t.Fatalf("DescendantsOfOutputs = %v", desc)
	}

	// Efficiency: indexed queries, no S3 scans.
	if got := cl.Usage().OpCount(billing.S3, "HEAD") - headsBefore; got != 0 {
		t.Fatalf("queries issued %d HEADs; SimpleDB path must not scan S3", got)
	}
	if got := cl.Usage().OpCount(billing.SimpleDB, "Query") - queriesBefore; got == 0 {
		t.Fatal("no SimpleDB queries issued")
	}

	all, err := core.CollectRecords(st.Query(ctx, prov.Q1()))
	if err != nil || len(all) != 6 {
		t.Fatalf("AllProvenance = %d subjects, %v", len(all), err)
	}
}

func TestPropertiesRow(t *testing.T) {
	st, _ := newTestStore(t, nil, 0)
	p := st.Properties()
	if p.Atomicity || !p.Consistency || !p.CausalOrdering || !p.EfficientQuery {
		t.Fatalf("properties = %+v, want Table 1 row 2", p)
	}
	if p.ReadCorrectness() {
		t.Fatal("read correctness must not hold without atomicity")
	}
	if st.Name() != "s3+sdb" {
		t.Fatalf("Name = %q", st.Name())
	}
}

func TestFullWorkloadThroughStore(t *testing.T) {
	st, _ := newTestStore(t, nil, 0)
	ctx := context.Background()
	sys := pass.NewSystem(pass.Config{Flush: core.Flusher(st)})

	if err := sys.Ingest(ctx, "/in", []byte("input")); err != nil {
		t.Fatal(err)
	}
	p := sys.Exec(nil, pass.ExecSpec{Name: "tool"})
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

func TestVerifiedGetSurfacesNoProvenance(t *testing.T) {
	// Data without provenance (planted directly) must surface as
	// ErrNoProvenance, not as a silent success.
	st, cl := newTestStore(t, nil, 0)
	ctx := context.Background()
	meta := map[string]string{sdbprov.MetaNonce: "0-abcd", sdbprov.MetaVersion: "0"}
	if err := cl.S3.Put(st.Layer().Bucket(), sdbprov.DataKey("/bare"), []byte("x"), meta); err != nil {
		t.Fatal(err)
	}
	_, err := st.Get(ctx, "/bare")
	if !errors.Is(err, core.ErrNoProvenance) {
		t.Fatalf("err = %v, want ErrNoProvenance", err)
	}
}

// TestConcurrentQueriesDuringWrites runs cached queries from several
// goroutines while writes land — meant for -race. No query may error, no
// query may observe more outputs than have been written, and once writes
// stop the cache must serve the complete, fresh result.
func TestConcurrentQueriesDuringWrites(t *testing.T) {
	st, _ := newTestStore(t, nil, 0)
	ctx := context.Background()

	tool := procEvent("tool", 1)
	if err := core.Put(ctx, st, tool); err != nil {
		t.Fatal(err)
	}
	const writes = 30
	var wg sync.WaitGroup
	var written atomic.Int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < writes; i++ {
			// Count the write as started before it can become visible, so
			// `written` is always an upper bound on what any query sees.
			written.Add(1)
			ev := fileEvent(fmt.Sprintf("/c/%02d", i), 0, "x",
				prov.NewInput(prov.Ref{Object: prov.ObjectID(fmt.Sprintf("/c/%02d", i))}, tool.Ref))
			if err := core.Put(ctx, st, ev); err != nil {
				t.Errorf("put: %v", err)
				return
			}
		}
	}()
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				outputs, err := core.CollectRefs(st.Query(ctx, prov.QOutputsOf("tool")))
				if err != nil {
					t.Errorf("OutputsOf: %v", err)
					return
				}
				if n := written.Load(); int64(len(outputs)) > n {
					t.Errorf("query observed %d outputs with only %d writes started", len(outputs), n)
					return
				}
				if _, err := core.CollectRecords(st.Query(ctx, prov.Q1())); err != nil {
					t.Errorf("AllProvenance: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()

	outputs, err := core.CollectRefs(st.Query(ctx, prov.QOutputsOf("tool")))
	if err != nil {
		t.Fatal(err)
	}
	if len(outputs) != writes {
		t.Fatalf("final OutputsOf = %d, want %d (stale snapshot after writes stopped)", len(outputs), writes)
	}
}
