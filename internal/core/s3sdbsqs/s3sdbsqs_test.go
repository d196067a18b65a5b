package s3sdbsqs

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"passcloud/internal/cloud"
	"passcloud/internal/cloud/billing"
	"passcloud/internal/core"
	"passcloud/internal/pass"
	"passcloud/internal/prov"
	"passcloud/internal/sim"
)

func newTestStore(t *testing.T, faults *sim.FaultPlan, maxDelay time.Duration) (*Store, *CommitDaemon, *cloud.Cloud) {
	t.Helper()
	cl := cloud.New(cloud.Config{Seed: 1, MaxDelay: maxDelay})
	st, err := New(Config{Cloud: cl, Faults: faults})
	if err != nil {
		t.Fatal(err)
	}
	return st, NewCommitDaemon(st, nil), cl
}

// pump runs the commit daemon until it reports no progress and nothing
// pending, simulating a daemon that keeps up with its queue.
func pump(t *testing.T, d *CommitDaemon, cl *cloud.Cloud) int {
	t.Helper()
	total := 0
	for i := 0; i < 20; i++ {
		n, err := d.RunOnce(context.Background(), true)
		if err != nil {
			t.Fatalf("commit daemon: %v", err)
		}
		total += n
		if n == 0 && d.PendingTransactions() == 0 {
			return total
		}
		// Let in-flight propagation complete (e.g. temp objects).
		cl.Settle()
	}
	return total
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

func TestLogThenCommitRoundTrip(t *testing.T) {
	st, daemon, cl := newTestStore(t, nil, 0)
	ctx := context.Background()

	if err := core.Put(ctx, st, fileEvent("/out", 0, "payload")); err != nil {
		t.Fatal(err)
	}
	// Before the commit daemon runs, nothing is visible at the real key.
	if _, err := st.Get(ctx, "/out"); err == nil {
		t.Fatal("data visible before commit")
	}

	if n := pump(t, daemon, cl); n != 1 {
		t.Fatalf("committed %d transactions, want 1", n)
	}
	got, err := st.Get(ctx, "/out")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Data, []byte("payload")) || len(got.Records) != 2 {
		t.Fatalf("got = %+v", got)
	}

	// The temporary object is gone and the WAL queue is empty.
	tmps, err := cl.S3.ListAll(st.Layer().Bucket(), TmpPrefix)
	if err != nil || len(tmps) != 0 {
		t.Fatalf("temp objects remain: %v, %v", tmps, err)
	}
	if n, _ := cl.SQS.Exact(st.Queue()); n != 0 {
		t.Fatalf("WAL queue holds %d messages after commit", n)
	}
}

func TestUncommittedTransactionIsInvisible(t *testing.T) {
	// Crash before the commit record: the daemon must ignore the
	// transaction entirely — this is the atomicity the WAL buys.
	faults := sim.NewFaultPlan()
	faults.Arm("wal/before-commit")
	st, daemon, cl := newTestStore(t, faults, 0)
	ctx := context.Background()

	err := core.Put(ctx, st, fileEvent("/never", 0, "ghost"))
	if !errors.Is(err, sim.ErrCrash) {
		t.Fatalf("err = %v, want injected crash", err)
	}

	if n := pump(t, daemon, cl); n != 0 {
		t.Fatalf("daemon committed %d uncommitted transactions", n)
	}
	if _, err := st.Get(ctx, "/never"); err == nil {
		t.Fatal("uncommitted data became visible")
	}
	if _, err := st.Provenance(ctx, prov.Ref{Object: "/never", Version: 0}); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("uncommitted provenance visible: %v", err)
	}
}

func TestCrashWindowsNeverBreakReadCorrectness(t *testing.T) {
	// Crash the client at every log-phase point in turn. In every case the
	// outcome must be all-or-nothing: either the commit record made it and
	// the daemon completes the write, or nothing becomes visible.
	points := []string{
		"wal/before-begin",
		"wal/after-begin",
		"wal/after-tmp-put",
		"wal/after-record-0",
		"wal/after-record-1",
		"wal/before-commit",
		"wal/after-commit",
	}
	for _, point := range points {
		t.Run(point, func(t *testing.T) {
			faults := sim.NewFaultPlan()
			faults.Arm(point)
			st, daemon, cl := newTestStore(t, faults, 0)
			ctx := context.Background()

			object := "/f-" + strings.ReplaceAll(point, "/", "-")
			err := core.Put(ctx, st, fileEvent(object, 0, "data-"+point))
			crashed := errors.Is(err, sim.ErrCrash)
			if !crashed && err != nil {
				t.Fatal(err)
			}
			pump(t, daemon, cl)

			obj, gerr := st.Get(ctx, prov.ObjectID(object))
			switch {
			case gerr == nil:
				// Visible: must be complete and verified.
				if string(obj.Data) != "data-"+point || len(obj.Records) != 2 {
					t.Fatalf("partial state visible at %s: %+v", point, obj)
				}
			default:
				// Invisible: provenance must be absent too.
				if _, perr := st.Provenance(ctx, prov.Ref{Object: prov.ObjectID(object), Version: 0}); !errors.Is(perr, core.ErrNotFound) {
					t.Fatalf("half state at %s: data absent but provenance %v", point, perr)
				}
			}
		})
	}
}

func TestDaemonCrashReplayIsIdempotent(t *testing.T) {
	// Crash the daemon between every pair of commit steps, restart it, and
	// verify the final state is exactly right each time.
	points := []string{
		"commit/after-copy",
		"commit/after-prov-write",
		"commit/after-delete-messages",
	}
	for _, point := range points {
		t.Run(point, func(t *testing.T) {
			st, _, cl := newTestStore(t, nil, 0)
			ctx := context.Background()
			if err := core.Put(ctx, st, fileEvent("/replay", 0, "payload")); err != nil {
				t.Fatal(err)
			}

			crashFaults := sim.NewFaultPlan()
			crashFaults.Arm(point)
			daemon := NewCommitDaemon(st, crashFaults)
			if _, err := daemon.RunOnce(ctx, true); !errors.Is(err, sim.ErrCrash) {
				t.Fatalf("daemon did not crash at %s: %v", point, err)
			}

			// Visibility timeout must lapse so surviving messages reappear
			// for the restarted daemon.
			cl.Clock.Advance(daemon.Visibility + time.Second)

			fresh := NewCommitDaemon(st, nil)
			pump(t, fresh, cl)

			got, err := st.Get(ctx, "/replay")
			if err != nil {
				t.Fatalf("after replay: %v", err)
			}
			if string(got.Data) != "payload" || len(got.Records) != 2 {
				t.Fatalf("replay corrupted state: %+v", got)
			}
			// Idempotency: no duplicated provenance attributes.
			records, err := st.Provenance(ctx, prov.Ref{Object: "/replay", Version: 0})
			if err != nil || len(records) != 2 {
				t.Fatalf("records after replay = %v, %v", records, err)
			}
		})
	}
}

func TestThresholdGatesCommit(t *testing.T) {
	st, daemon, _ := newTestStore(t, nil, 0)
	daemon.Threshold = 100
	ctx := context.Background()
	if err := core.Put(ctx, st, fileEvent("/gated", 0, "x")); err != nil {
		t.Fatal(err)
	}
	// Below threshold and unforced: nothing happens.
	n, err := daemon.RunOnce(ctx, false)
	if err != nil || n != 0 {
		t.Fatalf("RunOnce below threshold = %d, %v", n, err)
	}
	daemon.Threshold = 1
	n, err = daemon.RunOnce(ctx, false)
	if err != nil || n != 1 {
		t.Fatalf("RunOnce above threshold = %d, %v", n, err)
	}
}

func TestLargeProvenanceChunksAcrossMessages(t *testing.T) {
	st, daemon, cl := newTestStore(t, nil, 0)
	ctx := context.Background()

	ref := prov.Ref{Object: "/wide", Version: 0}
	var extra []prov.Record
	for i := 0; i < 400; i++ {
		extra = append(extra, prov.NewString(ref, prov.AttrEnv, strings.Repeat("v", 64)+fmt.Sprintf("%03d", i)))
	}
	sendsBefore := cl.Usage().OpCount(billing.SQS, "SendMessage")
	if err := core.Put(ctx, st, fileEvent("/wide", 0, "x", extra...)); err != nil {
		t.Fatal(err)
	}
	sends := cl.Usage().OpCount(billing.SQS, "SendMessage") - sendsBefore
	if sends < 6 { // begin + data + >=3 prov chunks + md5 + commit
		t.Fatalf("sends = %d; expected multiple 8 KB chunks", sends)
	}
	pump(t, daemon, cl)
	records, err := st.Provenance(ctx, ref)
	if err != nil || len(records) != 402 {
		t.Fatalf("records = %d, %v", len(records), err)
	}
}

func TestOverflowValuesStoredDuringLogPhase(t *testing.T) {
	st, daemon, cl := newTestStore(t, nil, 0)
	ctx := context.Background()
	big := strings.Repeat("E", 3000)
	ref := prov.Ref{Object: "/big", Version: 0}

	putsBefore := cl.Usage().OpCount(billing.S3, "PUT")
	if err := core.Put(ctx, st, fileEvent("/big", 0, "x", prov.NewString(ref, prov.AttrEnv, big))); err != nil {
		t.Fatal(err)
	}
	// Log phase: overflow object + temp object = 2 PUTs.
	if got := cl.Usage().OpCount(billing.S3, "PUT") - putsBefore; got != 2 {
		t.Fatalf("log-phase PUTs = %d, want 2", got)
	}
	pump(t, daemon, cl)
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
		t.Fatal("overflowed value lost through the WAL")
	}
}

func TestCleanerReapsAbandonedTempObjects(t *testing.T) {
	faults := sim.NewFaultPlan()
	faults.Arm("wal/before-commit") // tmp object exists, tx never commits
	st, daemon, cl := newTestStore(t, faults, 0)
	ctx := context.Background()

	if err := core.Put(ctx, st, fileEvent("/aband", 0, "x")); !errors.Is(err, sim.ErrCrash) {
		t.Fatalf("err = %v", err)
	}
	pump(t, daemon, cl)

	cleaner := NewCleaner(st)
	// Too fresh: nothing reaped.
	n, err := cleaner.RunOnce(ctx)
	if err != nil || n != 0 {
		t.Fatalf("fresh temp reaped: %d, %v", n, err)
	}
	// After four days it goes.
	cl.Clock.Advance(4*24*time.Hour + time.Hour)
	n, err = cleaner.RunOnce(ctx)
	if err != nil || n != 1 {
		t.Fatalf("cleaner reaped %d, want 1 (%v)", n, err)
	}
	tmps, _ := cl.S3.ListAll(st.Layer().Bucket(), TmpPrefix)
	if len(tmps) != 0 {
		t.Fatalf("temp objects remain: %v", tmps)
	}
}

func TestSQSRetentionReapsUncommittedLog(t *testing.T) {
	faults := sim.NewFaultPlan()
	faults.Arm("wal/before-commit")
	st, _, cl := newTestStore(t, faults, 0)
	ctx := context.Background()
	if err := core.Put(ctx, st, fileEvent("/old", 0, "x")); !errors.Is(err, sim.ErrCrash) {
		t.Fatal("expected crash")
	}
	if n, _ := cl.SQS.Exact(st.Queue()); n == 0 {
		t.Fatal("log records missing before retention")
	}
	cl.Clock.Advance(4*24*time.Hour + time.Hour)
	if n, _ := cl.SQS.Exact(st.Queue()); n != 0 {
		t.Fatalf("%d log records survived retention", n)
	}
}

func TestTransientEventThroughWAL(t *testing.T) {
	st, daemon, cl := newTestStore(t, nil, 0)
	ctx := context.Background()
	proc := procEvent("tool", 7)
	if err := core.Put(ctx, st, proc); err != nil {
		t.Fatal(err)
	}
	pump(t, daemon, cl)
	records, err := st.Provenance(ctx, proc.Ref)
	if err != nil || len(records) != 2 {
		t.Fatalf("records = %v, %v", records, err)
	}
	// No temp or data object for transient subjects.
	if tmps, _ := cl.S3.ListAll(st.Layer().Bucket(), TmpPrefix); len(tmps) != 0 {
		t.Fatal("transient event left temp objects")
	}
}

func TestEventuallyConsistentEndToEnd(t *testing.T) {
	// With propagation delays everywhere, log + commit + verified read
	// still never surfaces a torn object.
	st, daemon, cl := newTestStore(t, nil, 10*time.Second)
	ctx := context.Background()

	for v := 0; v < 3; v++ {
		ref := prov.Ref{Object: "/e", Version: prov.Version(v)}
		ev := pass.FlushEvent{Ref: ref, Type: prov.TypeFile,
			Data: []byte(fmt.Sprintf("gen%d", v)),
			Records: []prov.Record{
				prov.NewString(ref, prov.AttrType, prov.TypeFile),
				prov.NewString(ref, prov.AttrEnv, fmt.Sprintf("gen%d", v)),
			}}
		if err := core.Put(ctx, st, ev); err != nil {
			t.Fatal(err)
		}
		pump(t, daemon, cl)
	}

	for i := 0; i < 50; i++ {
		obj, err := st.Get(ctx, "/e")
		if err != nil {
			continue // surfaced inconsistency/absence is acceptable
		}
		var envVal string
		for _, r := range obj.Records {
			if r.Attr == prov.AttrEnv {
				envVal = r.Value.Str
			}
		}
		if string(obj.Data) != envVal {
			t.Fatalf("torn read: %q vs %q", obj.Data, envVal)
		}
	}
}

func TestPropertiesRow(t *testing.T) {
	st, _, _ := newTestStore(t, nil, 0)
	p := st.Properties()
	if !p.Atomicity || !p.Consistency || !p.CausalOrdering || !p.EfficientQuery {
		t.Fatalf("properties = %+v, want Table 1 row 3", p)
	}
	if st.Name() != "s3+sdb+sqs" {
		t.Fatalf("Name = %q", st.Name())
	}
}

func TestFullWorkloadThroughStore(t *testing.T) {
	st, daemon, cl := newTestStore(t, nil, 0)
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
	pump(t, daemon, cl)

	obj, err := st.Get(ctx, "/out")
	if err != nil || string(obj.Data) != "result" {
		t.Fatalf("Get = %v, %v", obj, err)
	}
	outputs, err := core.CollectRefs(st.Query(ctx, prov.QOutputsOf("tool")))
	if err != nil || len(outputs) != 1 {
		t.Fatalf("OutputsOf = %v, %v", outputs, err)
	}
	// Causal ordering: the ancestor chain is complete.
	desc, err := core.CollectRefs(st.Query(ctx, prov.QDescendantsOfOutputs("tool")))
	if err != nil || len(desc) != 0 {
		t.Fatalf("descendants = %v, %v", desc, err)
	}
}

func TestWALMessageEncodingRejectsOversize(t *testing.T) {
	m := walMessage{TxID: "t", Kind: kindProv, Records: []byte(`"` + strings.Repeat("x", 9000) + `"`)}
	if _, err := m.encode(); err == nil {
		t.Fatal("9 KB message encoded without error")
	}
}

func TestDecodeWALErrors(t *testing.T) {
	if _, err := decodeWAL("not json"); err == nil {
		t.Fatal("garbage decoded")
	}
	if _, err := decodeWAL(`{"kind":"x"}`); err == nil {
		t.Fatal("missing tx accepted")
	}
}
