package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"strings"
	"syscall"
	"time"

	"passcloud"
)

// target is one way of driving the program: the public passcloud API
// (publicTarget) or the same stack composed from its layers with spans
// at every boundary (tracedTarget). Process handles are slots in Exec
// order.
type target interface {
	ingest(ctx context.Context, path string, data []byte) error
	exec(parent int32, spec *execSpec)
	read(p int32, path string) error
	pipe(from, to int32) error
	derive(p int32, path string) error
	close(ctx context.Context, p int32, path string) error
	exit(p int32)
	sync(ctx context.Context) error
	get(ctx context.Context, path string) (*passcloud.Object, error)
	search(ctx context.Context, spec passcloud.QuerySpec) (*passcloud.SearchResult, error)
	verify(ctx context.Context, path string) (*passcloud.LineageReport, error)
	replay(ctx context.Context, path string) (*passcloud.ReplayReport, error)
	verifyAll(ctx context.Context) (*passcloud.VerifyReport, error)
	usage() passcloud.UsageSummary
}

// cpuTime is the CPU time all of the process's threads have used: the
// host work the program does, unaffected by time other tenants of a
// shared host take from it.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxFailureNotes bounds the failure descriptions a run keeps for its
// report.
const maxFailureNotes = 8

// runner executes script ops on a target in a closed loop — each call
// starts when the previous one has returned — timing every call and
// checking every answer against its own oracle model.
type runner struct {
	t   target
	sc  *script
	m   *model
	lat map[string][]time.Duration
	// busy is the wall time spent inside public calls, cpu the process
	// CPU time; oracle checks between calls are excluded, like generator
	// time.
	busy, cpu time.Duration
	// cpuLat holds per-call process CPU time by class.
	cpuLat    map[string][]time.Duration
	calls     int
	attempted int
	failed    int
	notes     []string
	// replayOps and replayProcs sum the sandbox ops and re-executed
	// processes of every Replay.
	replayOps, replayProcs int64
	replays                int64
	replayUSD              float64
	// retainsHistory is whether the architecture keeps every version's
	// provenance: the SimpleDB designs do, while S3-only keeps each
	// object's current version only, as S3 metadata.
	retainsHistory bool

	listCursor string
	listWant   map[string]bool
	listGot    map[string]bool
}

func newRunner(t target, sc *script) *runner {
	return &runner{t: t, sc: sc, m: newModel(), lat: map[string][]time.Duration{}, cpuLat: map[string][]time.Duration{}}
}

// reset drops a runner's accumulated timings and outcomes, keeping its
// oracle state.
func (r *runner) reset() {
	r.lat, r.cpuLat = map[string][]time.Duration{}, map[string][]time.Duration{}
	r.busy, r.cpu, r.calls, r.attempted, r.failed, r.notes = 0, 0, 0, 0, 0, nil
	r.replayOps, r.replayProcs, r.replays, r.replayUSD = 0, 0, 0, 0
}

func (r *runner) fail(format string, args ...any) {
	r.failed++
	if len(r.notes) < maxFailureNotes {
		r.notes = append(r.notes, fmt.Sprintf(format, args...))
	}
}

// runOps executes ops[from:to].
func (r *runner) runOps(ctx context.Context, from, to int) {
	for i := from; i < to; i++ {
		r.step(ctx, &r.sc.ops[i])
	}
}

// step executes, times and checks one op, then advances the oracle.
func (r *runner) step(ctx context.Context, o *op) {
	var (
		err  error
		obj  *passcloud.Object
		res  *passcloud.SearchResult
		lin  *passcloud.LineageReport
		rep  *passcloud.ReplayReport
		spec passcloud.QuerySpec
	)
	if o.kind == opSearch {
		spec = r.searchSpec(o)
	}
	cpu0 := cpuTime()
	start := time.Now()
	switch o.kind {
	case opIngest:
		err = r.t.ingest(ctx, o.path, o.data)
	case opExec:
		r.t.exec(o.other, o.exec)
	case opRead:
		err = r.t.read(o.proc, o.path)
	case opPipe:
		err = r.t.pipe(o.proc, o.other)
	case opDerive:
		err = r.t.derive(o.proc, o.path)
	case opClose:
		err = r.t.close(ctx, o.proc, o.path)
	case opExit:
		r.t.exit(o.proc)
	case opSync:
		err = r.t.sync(ctx)
	case opGet:
		obj, err = r.t.get(ctx, o.path)
	case opSearch:
		res, err = r.t.search(ctx, spec)
	case opVerify:
		lin, err = r.t.verify(ctx, o.path)
	case opReplay:
		rep, err = r.t.replay(ctx, o.path)
	}
	d := time.Since(start)
	c := cpuTime() - cpu0
	r.busy += d
	r.cpu += c
	r.calls++
	r.attempted++
	class := callClass[o.kind]
	r.lat[class] = append(r.lat[class], d)
	r.cpuLat[class] = append(r.cpuLat[class], c)
	if err != nil {
		r.fail("%s %s: %v", class, o.path, err)
		r.m.apply(o)
		return
	}
	switch o.kind {
	case opGet:
		r.checkGet(o.path, obj)
	case opSearch:
		r.checkSearch(o, res)
	case opVerify:
		want := 1
		if r.retainsHistory {
			want = r.m.files[o.path].versions
		}
		if !lin.Clean() || lin.Versions != want {
			r.fail("verify %s: clean=%v versions=%d want %d %v", o.path, lin.Clean(), lin.Versions, want, lin.Divergences)
		}
	case opReplay:
		r.replays++
		r.replayOps += rep.Usage.S3Ops + rep.Usage.SimpleDBOps + rep.Usage.SQSOps
		r.replayProcs += int64(rep.Processes)
		r.replayUSD += rep.Usage.USD
		if !rep.Clean() || rep.Compared == 0 {
			r.fail("replay %s: clean=%v compared=%d %v", o.path, rep.Clean(), rep.Compared, rep.Divergences)
		}
	}
	r.m.apply(o)
}

func (r *runner) checkGet(p string, obj *passcloud.Object) {
	f := r.m.files[p]
	if obj.Ref.Object != p || obj.Ref.Version != f.version {
		r.fail("get %s: returned %s, want version %d", p, obj.Ref, f.version)
		return
	}
	if sha256.Sum256(obj.Data) != r.sc.digests[versionKey(p, f.version)] {
		r.fail("get %s: %d bytes differ from the derived content", obj.Ref, len(obj.Data))
	}
}

func (r *runner) searchSpec(o *op) passcloud.QuerySpec {
	switch o.search {
	case searchQ1Page:
		return passcloud.QuerySpec{Limit: q1PageLimit, Cursor: r.listCursor}
	case searchOutputs:
		return passcloud.QuerySpec{Tool: o.tool, Type: "file", RefsOnly: true}
	case searchDescendants:
		return passcloud.QuerySpec{Tool: o.tool, Type: "file", RefsOnly: true, Direction: passcloud.TraverseDescendants}
	case searchAncestors:
		ref := passcloud.Ref{Object: o.path, Version: r.m.files[o.path].version}
		return passcloud.QuerySpec{Refs: []passcloud.Ref{ref}, Direction: passcloud.TraverseAncestors, RefsOnly: true}
	case searchAttr:
		return passcloud.QuerySpec{Type: "process", Attrs: map[string]string{"name": o.tool}, RefsOnly: true}
	default:
		return passcloud.QuerySpec{RefPrefix: o.path}
	}
}

// filePaths projects search entries onto the file paths they mention.
func filePaths(es []passcloud.ProvenanceEntry) map[string]bool {
	out := make(map[string]bool, len(es))
	for _, e := range es {
		if strings.HasPrefix(e.Ref.Object, "/") {
			out[e.Ref.Object] = true
		}
	}
	return out
}

func (r *runner) checkSearch(o *op, res *passcloud.SearchResult) {
	var want map[string]bool
	got := filePaths(res.Entries)
	switch o.search {
	case searchQ1Page:
		if r.listCursor == "" {
			r.listWant, r.listGot = r.m.expectFiles(), make(map[string]bool)
		}
		if len(res.Entries) > q1PageLimit {
			r.fail("q1 page: %d entries over limit %d", len(res.Entries), q1PageLimit)
		}
		for p := range got {
			r.listGot[p] = true
		}
		r.listCursor = res.Cursor
		if res.Cursor != "" {
			return
		}
		got, want = r.listGot, r.listWant
	case searchOutputs:
		want = r.m.expectOutputs(o.tool)
	case searchDescendants:
		want = r.m.expectDescendants(o.tool)
	case searchAncestors:
		want = r.m.expectAncestors(o.path)
		delete(got, o.path)
	case searchAttr:
		objs := make(map[string]bool)
		for _, e := range res.Entries {
			objs[e.Ref.Object] = true
		}
		if n := r.m.procsFor[o.tool]; len(objs) != n {
			r.fail("search attr name=%s: %d processes, want %d", o.tool, len(objs), n)
		}
		return
	case searchPrefix:
		want = r.m.expectPrefix(o.path)
		for _, e := range res.Entries {
			if len(e.Records) == 0 {
				r.fail("search prefix %s: %s has no records", o.path, e.Ref)
				return
			}
		}
	}
	if ok, diff := sameSet(got, want); !ok {
		r.fail("search %d %s%s: %s", o.search, o.tool, o.path, diff)
	}
}

// finalChecks audits the whole repository and reads back a sample of
// file versions; each check counts as one attempt.
func (r *runner) finalChecks(ctx context.Context, gets int) {
	r.attempted++
	rep, err := r.t.verifyAll(ctx)
	switch {
	case err != nil:
		r.fail("verify all: %v", err)
	case !rep.Clean():
		r.fail("verify all: %v", head(divergenceStrings(rep.Divergences())))
	}
	ids := r.m.persisted()
	for i := 0; i < gets && len(ids) > 0; i++ {
		p := r.m.byID[ids[(i*7919)%len(ids)]].path
		r.attempted++
		obj, err := r.t.get(ctx, p)
		if err != nil {
			r.fail("final get %s: %v", p, err)
			continue
		}
		r.checkGet(p, obj)
	}
}

func divergenceStrings(ds []passcloud.Divergence) []string {
	out := make([]string, len(ds))
	for i, d := range ds {
		out[i] = d.String()
	}
	return out
}
