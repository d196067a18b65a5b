package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"time"

	"passcloud"
)

// Workload sizes. A run executes a fixed, seeded amount of work sized so
// it takes about --seconds on a 2-core host. The work never depends on
// how fast the host or the build is, so cloud-cost metrics are exact per
// seed and a faster build simply finishes sooner.
const (
	// ingestScale scales the Combined capture: ~590 flushed file
	// versions (~23 MB) per architecture.
	ingestScale = 0.02
	// ingestRoundsPerSecond: one round captures the script into all
	// three architectures (~2.5 s).
	ingestRoundsPerSecond = 0.4
	// loadScale scales the repository query-mix and audit load.
	loadScale = 0.02
	// mixShards is the shard count of the query-mix and audit clients.
	mixShards = 4
	// Mix entries per requested second, over all repeats.
	queryMixEntriesPerSecond = 450
	auditEntriesPerSecond    = 100
	// setupRepeats is how many times a run sets up; setup_s is their
	// median. The query workloads run their measured entries once on
	// each set-up client — identical work — and report the median rate.
	setupRepeats = 5
	// finalGets is how many file versions the end-of-run check reads back.
	finalGets = 48
)

// workloadDef is one benchmark workload.
type workloadDef struct {
	name string
	// loop describes how the workload drives the program.
	loop string
	// key is the call class whose CPU-time median is key_cpu_p50_us:
	// the call the workload exists to measure.
	key    string
	archs  []passcloud.Architecture
	shards int
	// entries emits the measured mix after the load (nil for ingest).
	entries func(g *gen, seconds float64)
}

var workloads = map[string]workloadDef{
	"ingest": {name: "ingest", key: "close", loop: "closed loop, 1 client; WAL daemon drained only at Sync, as Client does", archs: []passcloud.Architecture{passcloud.S3Only, passcloud.S3SimpleDB, passcloud.S3SimpleDBSQS}, shards: 1},
	"query-mix": {name: "query-mix", key: "search", loop: "closed loop, 1 client", archs: []passcloud.Architecture{passcloud.S3SimpleDB}, shards: mixShards,
		entries: func(g *gen, s float64) { g.queryMix(int(math.Ceil(s * queryMixEntriesPerSecond / setupRepeats))) }},
	"audit": {name: "audit", key: "verify", loop: "closed loop, 1 client", archs: []passcloud.Architecture{passcloud.S3Only}, shards: mixShards,
		entries: func(g *gen, s float64) { g.audit(int(math.Ceil(s * auditEntriesPerSecond / setupRepeats))) }},
}

// buildScript generates a workload's script and its reference digests.
func buildScript(w workloadDef, seed int64, seconds float64) (*script, error) {
	g := newGen(seed)
	if w.entries == nil {
		g.load(ingestScale)
	} else {
		g.load(loadScale)
	}
	loadEnd := len(g.ops)
	if w.entries != nil {
		w.entries(g, seconds)
	}
	digests, userBytes, err := referenceCapture(g.ops, g.m)
	if err != nil {
		return nil, err
	}
	return &script{ops: g.ops, loadEnd: loadEnd, digests: digests, userBytes: userBytes}, nil
}

// describe summarizes a workload and its script for the report.
func (w workloadDef) describe(sc *script) string {
	archs := make([]string, len(w.archs))
	for i, a := range w.archs {
		archs[i] = a.String()
	}
	calls := fmt.Sprintf("%d calls, all measured in every capture", len(sc.ops))
	if w.entries != nil {
		calls = fmt.Sprintf("%d load calls, then %d measured calls on each of %d set-ups", sc.loadEnd, len(sc.ops)-sc.loadEnd, setupRepeats)
	}
	return fmt.Sprintf("%s; %s x %d shard(s); script %s; %.1f MB file content; key call %s",
		w.loop, strings.Join(archs, ", "), w.shards, calls, float64(sc.userBytes)/1e6, w.key)
}

// options are the client options of one workload architecture.
func (w workloadDef) options(arch passcloud.Architecture, seed int64) passcloud.Options {
	return passcloud.Options{Architecture: arch, Seed: seed, Shards: w.shards}
}

// phase accumulates one measured phase's calls.
type phase struct {
	lat, cpuLat map[string][]time.Duration
	busy, cpu   time.Duration
	calls       int
	attempted   int
	failed      int
	notes       []string
	cloudOps    int64
	usd         float64
	heapMB      float64
	// closeSeqs holds, per capture, the close latencies in call order.
	closeSeqs [][]time.Duration
	// roundRates and roundCPURates hold each repeat's calls per busy
	// wall second and per CPU second; every repeat is the same work, so
	// their medians are the throughput.
	roundRates, roundCPURates []float64
	// runtime counters over the phase.
	gcCPU, totalCPU, allocBytes float64
	replayOps, replayProcs      int64
	replays                     int64
	// sc is the measured script.
	sc *script
}

func newPhase() *phase {
	return &phase{lat: map[string][]time.Duration{}, cpuLat: map[string][]time.Duration{}}
}

func (p *phase) absorb(r *runner) {
	for k, v := range r.lat {
		p.lat[k] = append(p.lat[k], v...)
	}
	for k, v := range r.cpuLat {
		p.cpuLat[k] = append(p.cpuLat[k], v...)
	}
	p.busy += r.busy
	p.cpu += r.cpu
	p.calls += r.calls
	p.attempted += r.attempted
	p.failed += r.failed
	p.replayOps += r.replayOps
	p.replayProcs += r.replayProcs
	p.replays += r.replays
	for _, n := range r.notes {
		if len(p.notes) < maxFailureNotes {
			p.notes = append(p.notes, n)
		}
	}
	r.reset()
}

func (p *phase) failf(format string, args ...any) {
	p.failed++
	p.attempted++
	if len(p.notes) < maxFailureNotes {
		p.notes = append(p.notes, fmt.Sprintf(format, args...))
	}
}

// runtimeCounters reads GC CPU, total CPU and allocated bytes.
func runtimeCounters() (gcCPU, totalCPU, allocBytes float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64(), float64(s[2].Value.Uint64())
}

// liveHeap forces a collection and returns the live heap in bytes.
func liveHeap() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64())
}

// measure runs f, timing its runtime counters into p.
func (p *phase) measure(f func()) {
	g0, c0, a0 := runtimeCounters()
	f()
	g1, c1, a1 := runtimeCounters()
	p.gcCPU += g1 - g0
	p.totalCPU += c1 - c0
	p.allocBytes += a1 - a0
}

func usageOps(u passcloud.UsageSummary) int64 { return u.S3Ops + u.SimpleDBOps + u.SQSOps }

// prepared is one set-up: the script and, for the query workloads, a
// public client with the repository loaded.
type prepared struct {
	sc     *script
	pub    *publicTarget
	runner *runner
	// baseHeap is the live heap before the client was built; measuring
	// it took heapProbe wall and heapProbeCPU CPU time, which set-up time
	// excludes.
	baseHeap                float64
	heapProbe, heapProbeCPU time.Duration
}

func prepare(ctx context.Context, w workloadDef, seed int64, seconds float64) (*prepared, error) {
	sc, err := buildScript(w, seed, seconds)
	if err != nil {
		return nil, err
	}
	p := &prepared{sc: sc}
	if w.entries == nil {
		return p, nil
	}
	probeCPU, probe := cpuTime(), time.Now()
	p.baseHeap = liveHeap()
	p.heapProbe, p.heapProbeCPU = time.Since(probe), cpuTime()-probeCPU
	if p.pub, err = newPublicTarget(w.options(w.archs[0], seed)); err != nil {
		return nil, err
	}
	p.runner = newRunner(p.pub, sc)
	p.runner.runOps(ctx, 0, sc.loadEnd)
	if p.runner.failed > 0 {
		return nil, fmt.Errorf("repository load failed: %v", p.runner.notes)
	}
	p.runner.reset()
	return p, nil
}

// setupTime is one set-up's process CPU time and wall time.
type setupTime struct{ cpu, wall float64 }

// timedPrepare prepares once, returning the set-up time.
func timedPrepare(ctx context.Context, w workloadDef, seed int64, seconds float64) (*prepared, setupTime, error) {
	runtime.GC()
	cpu0, start := cpuTime(), time.Now()
	p, err := prepare(ctx, w, seed, seconds)
	if err != nil {
		return nil, setupTime{}, err
	}
	return p, setupTime{cpu: (cpuTime() - cpu0 - p.heapProbeCPU).Seconds(), wall: (time.Since(start) - p.heapProbe).Seconds()}, nil
}

// medianSetup is the median of each set-up measure.
func medianSetup(ts []setupTime) setupTime {
	var cpu, wall []float64
	for _, t := range ts {
		cpu, wall = append(cpu, t.cpu), append(wall, t.wall)
	}
	return setupTime{cpu: median(cpu), wall: median(wall)}
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ingestRounds is the fixed number of capture rounds for a run length.
func ingestRounds(seconds float64) int {
	return max(1, int(math.Round(seconds*ingestRoundsPerSecond)))
}

// captureOnce captures the whole script into a fresh public client,
// returning the runner (with its oracle) and the client.
func captureOnce(ctx context.Context, p *phase, w workloadDef, arch passcloud.Architecture, sc *script, seed int64) (*runner, *publicTarget, error) {
	t, err := newPublicTarget(w.options(arch, seed))
	if err != nil {
		return nil, nil, err
	}
	r := newRunner(t, sc)
	r.retainsHistory = arch != passcloud.S3Only
	p.measure(func() { r.runOps(ctx, 0, len(sc.ops)) })
	return r, t, nil
}

// runIngest measures the ingest workload through the public API:
// every round captures the script into a fresh client of each
// architecture and ends when Sync has made it durable.
func runIngest(ctx context.Context, w workloadDef, seed int64, seconds float64) (*phase, setupTime, error) {
	var setupTimes []setupTime
	var sc *script
	for i := 0; i < setupRepeats; i++ {
		prep, setupS, err := timedPrepare(ctx, w, seed, seconds)
		if err != nil {
			return nil, setupTime{}, err
		}
		sc = prep.sc
		setupTimes = append(setupTimes, setupS)
	}
	p := newPhase()
	p.sc = sc
	first := map[passcloud.Architecture]passcloud.UsageSummary{}
	for round := 0; round < ingestRounds(seconds); round++ {
		calls0, busy0, cpu0 := p.calls, p.busy, p.cpu
		for _, arch := range w.archs {
			base := liveHeap()
			r, t, err := captureOnce(ctx, p, w, arch, sc, seed)
			if err != nil {
				return nil, setupTime{}, err
			}
			p.heapMB = math.Max(p.heapMB, (liveHeap()-base)/(1<<20))
			u := t.usage()
			if round == 0 {
				first[arch] = u
				p.cloudOps += usageOps(u)
				p.usd += u.USD
				p.closeSeqs = append(p.closeSeqs, append([]time.Duration(nil), r.lat["close"]...))
				r.finalChecks(ctx, finalGets)
			} else if u != first[arch] {
				p.failf("ingest %v: round %d usage %+v differs from round 0 %+v", arch, round, u, first[arch])
			}
			p.absorb(r)
		}
		p.roundRates = append(p.roundRates, float64(p.calls-calls0)/(p.busy-busy0).Seconds())
		p.roundCPURates = append(p.roundCPURates, float64(p.calls-calls0)/(p.cpu-cpu0).Seconds())
	}
	// Cloud cost is per round; every round is identical.
	p.cloudOps *= int64(ingestRounds(seconds))
	p.usd *= float64(ingestRounds(seconds))
	return p, medianSetup(setupTimes), nil
}

// runMix sets a query workload up setupRepeats times and measures its
// entries on each loaded client. Every repeat is the same work, so the
// cloud cost must repeat exactly; the rate is the median repeat's.
func runMix(ctx context.Context, w workloadDef, seed int64, seconds float64) (*phase, setupTime, error) {
	p := newPhase()
	var setupTimes []setupTime
	var ops0 int64
	for rep := 0; rep < setupRepeats; rep++ {
		prep, setupS, err := timedPrepare(ctx, w, seed, seconds)
		if err != nil {
			return nil, setupTime{}, err
		}
		setupTimes = append(setupTimes, setupS)
		r, sc := prep.runner, prep.sc
		p.sc = sc
		r.retainsHistory = w.archs[0] != passcloud.S3Only
		u0 := prep.pub.usage()
		p.measure(func() { r.runOps(ctx, sc.loadEnd, len(sc.ops)) })
		u1 := prep.pub.usage()
		p.heapMB = math.Max(p.heapMB, (liveHeap()-prep.baseHeap)/(1<<20))
		ops := usageOps(u1) - usageOps(u0) + r.replayOps
		if rep == 0 {
			ops0 = ops
			p.cloudOps = ops * setupRepeats
			p.usd = (u1.USD - u0.USD + r.replayUSD) * setupRepeats
			p.closeSeqs = [][]time.Duration{append([]time.Duration(nil), r.lat["close"]...)}
		} else if ops != ops0 {
			p.failf("repeat %d used %d cloud ops, repeat 0 %d", rep, ops, ops0)
		}
		p.roundRates = append(p.roundRates, float64(r.calls)/r.busy.Seconds())
		p.roundCPURates = append(p.roundCPURates, float64(r.calls)/r.cpu.Seconds())
		p.absorb(r)
		r.finalChecks(ctx, finalGets)
		p.absorb(r)
	}
	return p, medianSetup(setupTimes), nil
}

func lookupWorkload(name string) (workloadDef, error) {
	w, ok := workloads[name]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		return workloadDef{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
	}
	return w, nil
}
