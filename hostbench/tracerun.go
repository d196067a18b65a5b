package main

import (
	"context"
	"fmt"
	"maps"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"passcloud"
	"passcloud/internal/cloud/billing"
	"passcloud/internal/cloud/retry"
	"passcloud/internal/core/qcache"
)

// traceResult is what a traced run measures: the untraced public-API
// phase (the baseline and the source of counter metrics), the same work
// on traced stacks, and for ingest the same capture with integrity off.
type traceResult struct {
	pub, traced *phase
	on, off     *layerStats
	// sqs holds the WAL architecture's traced captures alone (ingest).
	sqs *layerStats
	// raw is the traced stacks' metered usage over the measured work.
	raw billing.Usage
	// storedBytes is the resident bytes of the traced stacks, userBytes
	// all file content pass flushed into them.
	storedBytes, userBytes int64
	// flushes and flushEvents count pass flushes and their events.
	flushes, flushEvents int64
	cache                qcache.Stats
	retry                retry.OpStats
	// parityOpDiff sums, over operations, how far the integrity-off
	// captures' counts are from the integrity-on ones (ingest).
	parityOpDiff int64
	spans        map[string][]span
}

func newTraceResult() *traceResult {
	return &traceResult{pub: newPhase(), traced: newPhase(), on: newLayerStats(), off: newLayerStats(), sqs: newLayerStats(), spans: map[string][]span{}}
}

// opCounts is a meter's per-operation counts, keyed "service/op".
func opCounts(u billing.Usage) map[string]int64 {
	ops := map[string]int64{}
	for _, line := range strings.Split(u.String(), "\n") {
		if f := strings.Fields(line); len(f) == 2 {
			if n, err := strconv.ParseInt(f[1], 10, 64); err == nil {
				ops[f[0]] = n
			}
		}
	}
	return ops
}

// integrityParity compares one architecture's capture with integrity on
// and off operation by operation. The tamper-evidence subsystem is meant
// to ride writes the protocol already issues, so every operation count
// should match. A mismatch is a cost defect of the program, not a wrong
// answer: it is reported as integrity.parity_op_diff and on standard
// error, and does not fail the run.
func (tr *traceResult) integrityParity(arch passcloud.Architecture, on, off billing.Usage) {
	a, b := opCounts(on), opCounts(off)
	ops := slices.Sorted(maps.Keys(a))
	for op := range b {
		if _, ok := a[op]; !ok {
			ops = append(ops, op)
		}
	}
	var diff []string
	for _, op := range ops {
		if d := a[op] - b[op]; d != 0 {
			tr.parityOpDiff += max(d, -d)
			diff = append(diff, fmt.Sprintf("%s %d on, %d off", op, a[op], b[op]))
		}
	}
	if len(diff) > 0 {
		fmt.Fprintf(os.Stderr, "hostbench: finding: integrity on and off issue different operations on %v: %s\n", arch, strings.Join(diff, "; "))
	}
}

// addStack folds one traced stack's counters into the result: cache
// and retry counters since the given baselines, the metered usage of the
// measured work, and the stack's storage against all the file content
// pass has flushed into it.
func (tr *traceResult) addStack(t *tracedTarget, cache0 qcache.Stats, retry0 retry.OpStats, raw billing.Usage) {
	c, r := t.cacheStats(), t.retryStats()
	tr.cache.GraphHits += c.GraphHits - cache0.GraphHits
	tr.cache.GraphMisses += c.GraphMisses - cache0.GraphMisses
	tr.cache.RefHits += c.RefHits - cache0.RefHits
	tr.cache.RefMisses += c.RefMisses - cache0.RefMisses
	tr.cache.Coalesced += c.Coalesced - cache0.Coalesced
	tr.retry.Attempts += r.Attempts - retry0.Attempts
	tr.retry.Retries += r.Retries - retry0.Retries
	tr.storedBytes += t.stored()
	tr.userBytes += t.userBytes
	tr.flushes += t.flushes
	tr.flushEvents += t.flushEvents
	tr.raw = tr.raw.Add(raw)
}

// traceIngest runs each ingest round three ways per architecture:
// through the public API, on a traced stack, and on a traced stack with
// integrity off. Traced and public must meter identical usage; the
// integrity-off capture is compared op for op by integrityParity.
func traceIngest(ctx context.Context, w workloadDef, sc *script, seed int64, seconds float64) (*traceResult, error) {
	tr := newTraceResult()
	for round := 0; round < ingestRounds(seconds); round++ {
		for _, arch := range w.archs {
			r, pub, err := captureOnce(ctx, tr.pub, w, arch, sc, seed)
			if err != nil {
				return nil, err
			}
			want := pub.usage()
			tr.pub.cloudOps += usageOps(want)
			tr.pub.usd += want.USD
			if round == 0 {
				tr.pub.closeSeqs = append(tr.pub.closeSeqs, append([]time.Duration(nil), r.lat["close"]...))
			}
			tr.pub.absorb(r)

			var onOps billing.Usage
			for _, off := range []bool{false, true} {
				t, rt, err := captureTraced(ctx, w, arch, sc, seed, off)
				if err != nil {
					return nil, err
				}
				if off {
					// Every round is identical, so one comparison per
					// architecture suffices.
					if round == 0 {
						tr.integrityParity(arch, onOps, t.rawUsage())
					}
					tr.off.add(t.tr.spans)
					continue
				}
				onOps = t.rawUsage()
				if got := t.usage(); got != want {
					tr.traced.failf("parity %v: traced usage %+v, untraced %+v", arch, got, want)
				}
				tr.on.add(t.tr.spans)
				if arch == passcloud.S3SimpleDBSQS {
					tr.sqs.add(t.tr.spans)
				}
				tr.addStack(t, qcache.Stats{}, retry.OpStats{}, t.rawUsage())
				if round == 0 {
					tr.spans[arch.String()] = t.tr.spans
					rt.finalChecks(ctx, finalGets)
				}
				tr.traced.absorb(rt)
			}
		}
	}
	return tr, nil
}

// captureTraced captures the script into a fresh traced stack.
func captureTraced(ctx context.Context, w workloadDef, arch passcloud.Architecture, sc *script, seed int64, integrityOff bool) (*tracedTarget, *runner, error) {
	t, err := newTracedTarget(newTracer(), stackConfig{arch: arch, seed: seed, shards: w.shards, disableIntegrity: integrityOff})
	if err != nil {
		return nil, nil, err
	}
	r := newRunner(t, sc)
	r.retainsHistory = arch != passcloud.S3Only
	r.runOps(ctx, 0, len(sc.ops))
	return t, r, nil
}

// traceMix loads the repository into a public client and a traced stack,
// runs the measured entries on both, and checks that they metered the
// same usage after the load and after the entries.
func traceMix(ctx context.Context, w workloadDef, sc *script, seed int64) (*traceResult, error) {
	tr := newTraceResult()
	arch := w.archs[0]
	pub, err := newPublicTarget(w.options(arch, seed))
	if err != nil {
		return nil, err
	}
	t, err := newTracedTarget(newTracer(), stackConfig{arch: arch, seed: seed, shards: w.shards})
	if err != nil {
		return nil, err
	}
	rp, rt := newRunner(pub, sc), newRunner(t, sc)
	rp.retainsHistory = arch != passcloud.S3Only
	rt.retainsHistory = rp.retainsHistory
	rp.runOps(ctx, 0, sc.loadEnd)
	rt.runOps(ctx, 0, sc.loadEnd)
	if rp.failed+rt.failed > 0 {
		return nil, fmt.Errorf("repository load failed: %v %v", rp.notes, rt.notes)
	}
	rp.reset()
	rt.reset()
	if a, b := t.usage(), pub.usage(); a != b {
		tr.traced.failf("parity after load: traced usage %+v, untraced %+v", a, b)
	}

	u0 := pub.usage()
	tr.pub.measure(func() { rp.runOps(ctx, sc.loadEnd, len(sc.ops)) })
	u1 := pub.usage()
	tr.pub.cloudOps = usageOps(u1) - usageOps(u0) + rp.replayOps
	tr.pub.usd = u1.USD - u0.USD + rp.replayUSD

	t.tr.spans = nil
	raw0, cache0, retry0 := t.rawUsage(), t.cacheStats(), t.retryStats()
	t.flushes, t.flushEvents = 0, 0
	rt.runOps(ctx, sc.loadEnd, len(sc.ops))
	if a, b := t.usage(), pub.usage(); a != b {
		tr.traced.failf("parity after the measured entries: traced usage %+v, untraced %+v", a, b)
	}
	if rt.replayOps != rp.replayOps {
		tr.traced.failf("parity: traced replays used %d sandbox ops, untraced %d", rt.replayOps, rp.replayOps)
	}
	tr.on.add(t.tr.spans)
	tr.spans[w.name] = t.tr.spans
	tr.addStack(t, cache0, retry0, t.rawUsage().Sub(raw0))
	tr.pub.closeSeqs = [][]time.Duration{append([]time.Duration(nil), rp.lat["close"]...)}

	rp.finalChecks(ctx, finalGets)
	rt.finalChecks(ctx, finalGets)
	tr.pub.absorb(rp)
	tr.traced.absorb(rt)
	return tr, nil
}

// layerMetrics are the per-layer metrics of a traced run, in report order.
func (tr *traceResult) layerMetrics() []metric {
	on, pub := tr.on, tr.pub
	calls := float64(pub.calls)
	closes := float64(on.calls["close"])
	searches := float64(on.calls["search"])
	us, ms := time.Microsecond, time.Millisecond
	storePut := func(s *layerStats) float64 {
		return s.dur["s3only.put"] + s.dur["s3sdb.put"] + s.dur["s3sdbsqs.put"] + s.dur["s3sdbsqs.commit"]
	}
	putShare := 0.0 // measured on ingest only, which has the integrity-off run
	if w := storePut(on); w > 0 && len(tr.off.calls) > 0 {
		putShare = 1 - storePut(tr.off)/w
	}
	cache := tr.cache
	lookups := float64(cache.GraphHits + cache.GraphMisses + cache.RefHits + cache.RefMisses)
	firstTries := float64(tr.retry.Attempts - tr.retry.Retries)
	u := tr.raw
	m := []metric{
		{name: "pass.close_self_us", value: ratio(on.selfOp["pass.close"], closes) / us.Seconds(), unit: "us", n: int(closes)},
		{name: "pass.events_per_flush", value: ratio(float64(tr.flushEvents), float64(tr.flushes)), unit: "count", n: int(tr.flushes)},
		{name: "pass.close_growth", value: closeGrowth(pub.closeSeqs), unit: "ratio"},
		{name: "shard.put_self_us", value: ratio(on.selfOp["shard.put"], float64(on.count["shard.put"])) / us.Seconds(), unit: "us", n: int(on.count["shard.put"])},
		{name: "shard.query_self_us", value: ratio(on.selfOp["shard.query"], searches) / us.Seconds(), unit: "us", n: int(searches)},
		{name: "shard.member_calls_per_search", value: ratio(float64(on.memberQueries), searches), unit: "count", n: int(searches)},
	}
	for _, st := range []string{"s3only", "s3sdb", "s3sdbsqs"} {
		key := st + ".put"
		m = append(m,
			metric{name: st + ".put_us_per_event", value: on.perUnit(key, us), unit: "us", n: int(on.units[key])},
			metric{name: st + ".put_allocs_per_event", value: ratio(float64(on.allocs[key]), float64(on.units[key])), unit: "count", n: int(on.units[key])})
	}
	m = append(m,
		metric{name: "s3sdbsqs.commit_us_per_tx", value: on.perUnit("s3sdbsqs.commit", us), unit: "us", n: int(on.units["s3sdbsqs.commit"])},
		metric{name: "s3sdbsqs.sync_share", value: ratio(tr.sqs.classWall["sync"], sumValues(tr.sqs.classWall)), unit: "ratio"},
		metric{name: "sdbprov.query_us", value: on.perSpan("sdbprov.query", us), unit: "us", n: int(on.count["sdbprov.query"])},
		metric{name: "sdbprov.get_us", value: on.perSpan("sdbprov.get", us), unit: "us", n: int(on.count["sdbprov.get"])},
		metric{name: "s3only.audit_ms", value: on.perSpan("s3only.audit", ms), unit: "ms", n: int(on.count["s3only.audit"])},
		metric{name: "s3only.query_us", value: on.perSpan("s3only.query", us), unit: "us", n: int(on.count["s3only.query"])},
		metric{name: "integrity.put_share", value: putShare, unit: "ratio"},
		metric{name: "integrity.parity_op_diff", value: float64(tr.parityOpDiff), unit: "count"},
		metric{name: "integrity.verify_us_per_subject", value: on.perUnit("integrity.verify", us), unit: "us", n: int(on.units["integrity.verify"])},
		metric{name: "qcache.hit_rate", value: ratio(float64(cache.GraphHits+cache.RefHits), lookups), unit: "ratio", n: int(lookups)},
		metric{name: "qcache.coalesced", value: float64(cache.Coalesced), unit: "count"},
		metric{name: "retry.attempts_per_op", value: ratio(float64(tr.retry.Attempts), firstTries), unit: "count", n: int(firstTries)},
		metric{name: "retry.retries", value: float64(tr.retry.Retries), unit: "count"},
		metric{name: "replay.sandbox_ops_per_replay", value: ratio(float64(pub.replayOps), float64(pub.replays)), unit: "count", n: int(pub.replays)},
		metric{name: "replay.processes_per_replay", value: ratio(float64(pub.replayProcs), float64(pub.replays)), unit: "count", n: int(pub.replays)},
		metric{name: "cloud.s3_ops_per_call", value: float64(u.Ops(billing.S3)) / calls, unit: "count"},
		metric{name: "cloud.sdb_ops_per_call", value: float64(u.Ops(billing.SimpleDB)) / calls, unit: "count"},
		metric{name: "cloud.sqs_ops_per_call", value: float64(u.Ops(billing.SQS)) / calls, unit: "count"},
		metric{name: "cloud.bytes_stored_per_user_byte", value: ratio(float64(tr.storedBytes), float64(tr.userBytes)), unit: "ratio"},
		metric{name: "cloud.modeled_wan_ms_per_call", value: billing.WAN2009.Estimate(u).Seconds() * 1000 / calls, unit: "ms"},
		metric{name: "runtime.gc_cpu_frac", value: ratio(pub.gcCPU, pub.totalCPU), unit: "ratio"},
		metric{name: "runtime.alloc_bytes_per_call", value: pub.allocBytes / calls, unit: "B"},
	)
	total := sumValues(on.self)
	for _, l := range []string{"api", "pass", "shard", "s3only", "s3sdb", "s3sdbsqs", "sdbprov", "integrity", "replay"} {
		m = append(m, metric{name: l + ".self_share", value: ratio(on.self[l], total), unit: "ratio"})
	}
	pubRate := float64(pub.calls) / pub.cpu.Seconds()
	tracedRate := float64(tr.traced.calls) / tr.traced.cpu.Seconds()
	m = append(m,
		metric{name: "trace.overhead_frac", value: 1 - tracedRate/pubRate, unit: "ratio"},
		metric{name: "trace.self_sum_error", value: on.selfSumError(), unit: "ratio"})
	return m
}

// closeGrowth is the largest, over captures, of the last-quarter median
// close latency divided by the first-quarter median: 1.0 when per-close
// cost stays flat as the repository grows.
func closeGrowth(seqs [][]time.Duration) float64 {
	worst := 0.0
	for _, s := range seqs {
		q := len(s) / 4
		if q == 0 {
			continue
		}
		worst = math.Max(worst, ratio(medianDur(s[len(s)-q:]), medianDur(s[:q])))
	}
	return worst
}

func medianDur(d []time.Duration) float64 {
	v := make([]float64, len(d))
	for i, x := range d {
		v[i] = x.Seconds()
	}
	return median(v)
}
