// Command passbench regenerates the paper's evaluation: Table 1 (properties
// comparison), Table 2 (storage cost comparison) and Table 3 (query cost
// comparison), from the calibrated combined workload (Linux compile + Blast
// + Provenance Challenge).
//
//	passbench -table all -scale 0.1
//	passbench -table 2 -estimate        # the paper's analytical formulas
//	passbench -table 3 -tool softmean
//	passbench -table 3 -qcache          # adds Q.n+ repeat rows (snapshot cache)
//	passbench -usd                      # January-2009 USD pricing
//	passbench -json > BENCH_run.json    # machine-readable: config, gated metrics, sections
//	passbench -load                     # scale-out matrix: 3 archs x 1/4/16 shards
//	passbench -load -load-shards 1,8    # custom shard counts
//	passbench -load-rebalance           # elastic resharding: skewed load -> split -> replay
//	passbench -sharded                  # Tables 2/3 through the shard router + verification cost
//	passbench -replay                   # replay cost matrix: every lineage re-executed on a fresh namespace
//	passbench -cpuprofile cpu.out -memprofile mem.out   # pprof profiles of the run
//
// The -load mode runs the sustained-load harness (internal/workload): an
// open-loop multi-tenant generator against each architecture sharded
// across isolated namespaces, reporting deterministic write throughput
// under the WAN2009 latency model plus wall-clock latency histograms.
// With -json the numbers ride the report's "load" section.
//
// With -json each section also declares its gated values as metrics
// {name, value, better} and its run config under the report's "config"
// map; cmd/benchdiff gates two reports by those alone, knowing no section.
// A run whose sharded namespace does not verify clean, or whose replay of
// its own capture diverges, exits non-zero whatever the output mode.
//
// Scale 1.0 reproduces the paper's dataset size (~1.27 GB, ~31k objects);
// the default 0.1 keeps memory modest while preserving every ratio.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"maps"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"passcloud/internal/cloud/billing"
	"passcloud/internal/core/props"
	"passcloud/internal/cost"
	"passcloud/internal/workload"
)

// report is the machine-readable form -json emits: the run's config, the
// metrics benchdiff gates, and every section the run produced, under a
// stable schema tag so trajectory tooling can diff reports across commits.
type report struct {
	Schema string `json:"schema"` // "passbench/v2"
	// Config is what makes two reports comparable: scale, seed, tool,
	// query_cache, and each section's run config under "<section>/<key>".
	// benchdiff fails a report whose config differs from its baseline's.
	Config map[string]any `json:"config"`
	// Metrics is every gated value, declared by the section that produced
	// it (see declare).
	Metrics []metric           `json:"metrics"`
	Table1  []cost.Table1Row   `json:"table1,omitempty"`
	Table2  *cost.Table2       `json:"table2,omitempty"`
	Table3  *cost.Table3       `json:"table3,omitempty"`
	Dataset *cost.DatasetStats `json:"dataset,omitempty"`
	// Retry reports each architecture's cumulative retry overhead for the
	// run (attempts, retries, recoveries, exhaustions, backoff wait). On a
	// healthy simulated region every counter except Attempts is zero.
	Retry map[string]retryTotals `json:"retry,omitempty"`
	// USD is the January-2009 load-phase bill per architecture.
	USD map[string]float64 `json:"usd,omitempty"`
	// Load is the scale-out matrix (-load): sustained-load throughput per
	// architecture and shard count.
	Load *loadReportJSON `json:"load,omitempty"`
	// Rebalance is the elastic-resharding measurement (-load-rebalance):
	// hot-shard op shares before and after the migration controller's
	// split, plus the migration's own metered cost.
	Rebalance *rebalanceReportJSON `json:"rebalance,omitempty"`
	// Sharded is the sharded cost matrix (-sharded): the Tables 2/3
	// workloads through the shard router at each shard count, plus the
	// ops and dollars a full tamper-evidence audit of each namespace
	// costs.
	Sharded *cost.ShardedCosts `json:"sharded,omitempty"`
	// Replay is the replay cost matrix (-replay): every current lineage
	// re-executed against a fresh sandbox namespace, with the extraction
	// and re-execution ops and the January-2009 re-execution bill.
	Replay *cost.ReplayCosts `json:"replay,omitempty"`
}

// metric is one gated value. Better names the direction of a regression
// for benchdiff: a "lower" metric fails when it grows by more than -tol
// (any growth from 0 fails), a "higher" one when it drops by more than
// -tol, and an "equal" one on any change.
type metric struct {
	Name   string  `json:"name"`
	Value  float64 `json:"value"`
	Better string  `json:"better"`
}

const (
	lower  = "lower"
	higher = "higher"
	equal  = "equal"
)

// gate declares one metric.
func (r *report) gate(name, better string, v float64) {
	r.Metrics = append(r.Metrics, metric{Name: name, Value: v, Better: better})
}

// flag01 is a 0/1 metric value: gated "higher", a true turning false fails.
func flag01(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// declare fills Metrics (and the sections' Config entries) from the
// sections the run produced. Each section declares its own gates in one
// function; a new section adds one and a line here, and benchdiff gates
// it unchanged.
func (r *report) declare() {
	if r.Table2 != nil {
		declareTable2(r, r.Table2)
	}
	if r.Table3 != nil {
		declareTable3(r, r.Table3)
	}
	declareRetry(r, r.Retry)
	if r.Load != nil {
		r.Load.declare(r)
	}
	if r.Rebalance != nil {
		r.Rebalance.declare(r)
	}
	if r.Sharded != nil {
		declareSharded(r, r.Sharded)
	}
	if r.Replay != nil {
		declareReplay(r, r.Replay)
	}
}

// faults lists what no baseline excuses: a freshly loaded namespace that
// does not verify clean, or a replay of the harness's own faithful
// capture that diverges. passbench exits non-zero on any.
func (r *report) faults() []string {
	var out []string
	if r.Sharded != nil {
		for _, row := range r.Sharded.Rows {
			if !row.VerifyClean {
				out = append(out, fmt.Sprintf("sharded/%s/x%d: namespace does not verify clean", row.Arch, row.Shards))
			}
		}
	}
	if r.Replay != nil {
		for _, row := range r.Replay.Rows {
			if row.Divergences > 0 {
				out = append(out, fmt.Sprintf("replay/%s/x%d: %d divergences replaying a faithful capture",
					row.Arch, row.Shards, row.Divergences))
			}
		}
	}
	return out
}

// declareTable2 gates the write path: provenance ops per architecture
// (same scale and seed means the same event stream, so raw ops compare).
func declareTable2(r *report, t *cost.Table2) {
	for _, row := range t.Rows {
		r.gate("table2/provops/"+row.Arch, lower, float64(row.ProvOps))
	}
}

// declareTable3 gates the query path: ops per query class and backend,
// and the result count as an identity (a cheaper query returning other
// answers is not an improvement).
func declareTable3(r *report, t *cost.Table3) {
	for _, row := range t.Rows {
		key := row.Query + "/" + row.Arch
		r.gate("table3/ops/"+key, lower, float64(row.Ops))
		r.gate("table3/results/"+key, equal, float64(row.Results))
	}
}

// retryTotals is the stable JSON shape for one architecture's retry
// counters (wait rendered in milliseconds for the trajectory log).
type retryTotals struct {
	Attempts  int64   `json:"attempts"`
	Retries   int64   `json:"retries"`
	Recovered int64   `json:"recovered"`
	Exhausted int64   `json:"exhausted"`
	WaitMS    float64 `json:"wait_ms"`
}

// declareRetry gates retry overhead: the simulated region injects no
// faults during a run, so retries or exhaustions appearing mean the write
// path started misclassifying errors or re-running work.
func declareRetry(r *report, retry map[string]retryTotals) {
	for _, arch := range slices.Sorted(maps.Keys(retry)) {
		r.gate("retry/retries/"+arch, lower, float64(retry[arch].Retries))
		r.gate("retry/exhausted/"+arch, lower, float64(retry[arch].Exhausted))
	}
}

// declareSharded gates the sharded cost matrix: write and audit ops and
// dollars, per-query router costs, the query answers as an identity, and
// that every namespace still verifies clean.
func declareSharded(r *report, s *cost.ShardedCosts) {
	r.Config["sharded/shard_counts"] = s.ShardCounts
	for _, row := range s.Rows {
		name := fmt.Sprintf("sharded/%s/x%d/", row.Arch, row.Shards)
		r.gate(name+"provops", lower, float64(row.ProvOps))
		r.gate(name+"verifyops", lower, float64(row.VerifyOps))
		r.gate(name+"verifyusd", lower, row.VerifyUSD)
		r.gate(name+"clean", higher, flag01(row.VerifyClean))
		for _, q := range row.Queries {
			r.gate(name+q.Query+"/ops", lower, float64(q.Ops))
			r.gate(name+q.Query+"/usd", lower, q.USD)
			r.gate(name+q.Query+"/results", equal, float64(q.Results))
		}
	}
}

// declareReplay gates the replay cost matrix: extraction and re-execution
// ops and dollars, audit coverage as an identity (it must not silently
// shrink or grow), and zero divergences.
func declareReplay(r *report, rc *cost.ReplayCosts) {
	r.Config["replay/shard_counts"] = rc.ShardCounts
	for _, row := range rc.Rows {
		name := fmt.Sprintf("replay/%s/x%d/", row.Arch, row.Shards)
		r.gate(name+"extractops", lower, float64(row.ExtractOps))
		r.gate(name+"replayops", lower, float64(row.ReplayOps))
		r.gate(name+"replayusd", lower, row.ReplayUSD)
		r.gate(name+"compared", equal, float64(row.Compared))
		r.gate(name+"divergences", lower, float64(row.Divergences))
	}
}

func main() {
	table := flag.String("table", "all", "which table to produce: 1, 2, 3 or all")
	scale := flag.Float64("scale", 0.1, "workload scale (1.0 = paper scale)")
	seed := flag.Int64("seed", 2009, "random seed")
	tool := flag.String("tool", "softmean", "Q.2/Q.3 target tool")
	estimate := flag.Bool("estimate", false, "also print Table 2 from the paper's analytical formulas, extrapolated to scale 1.0")
	usd := flag.Bool("usd", false, "also print the January-2009 USD bill per architecture")
	jsonOut := flag.Bool("json", false, "emit one machine-readable JSON report on stdout instead of the text tables")
	qcacheOn := flag.Bool("qcache", false, "enable the query snapshot cache; Table 3 adds Q.n+ repeat rows, and base rows after the first query may be warm too (classes share the snapshot) — omit for the paper's cold costs")
	load := flag.Bool("load", false, "run the sustained-load scale-out matrix (all architectures at every -load-shards count)")
	rebalance := flag.Bool("load-rebalance", false, "run the elastic-resharding rebalance bench: skewed load, hot-shard detection + split, replayed load (all architectures at 4 shards)")
	loadShards := flag.String("load-shards", "1,4,16", "comma-separated shard counts for -load")
	sharded := flag.Bool("sharded", false, "run the sharded cost matrix: Tables 2/3 workloads through the shard router plus verification cost, at every -shard-counts count")
	shardCounts := flag.String("shard-counts", "1,4,16", "comma-separated shard counts for -sharded")
	replayBench := flag.Bool("replay", false, "run the replay cost matrix: every current lineage re-executed against a fresh sandbox namespace, at every -replay-shards count")
	replayShards := flag.String("replay-shards", "1,4", "comma-separated shard counts for -replay")
	loadTenants := flag.Int("load-tenants", 2, "tenants for -load (each gets isolated namespaces and its own billing keys)")
	loadWriters := flag.Int("load-writers", 2, "concurrent writers per tenant for -load")
	loadQueriers := flag.Int("load-queriers", 1, "concurrent queriers per tenant for -load")
	loadBatches := flag.Int("load-batches", 40, "file closes per writer for -load")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the whole run to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile at exit to this file")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			log.Fatalf("cpuprofile: %v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatalf("cpuprofile: %v", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				log.Printf("cpuprofile: %v", err)
			}
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				log.Printf("memprofile: %v", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows retained allocations
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Printf("memprofile: %v", err)
			}
		}()
	}

	ctx := context.Background()
	want := func(t string) bool { return *table == "all" || *table == t }
	rep := &report{Schema: "passbench/v2", Config: map[string]any{
		"scale": *scale, "seed": *seed, "tool": *tool, "query_cache": *qcacheOn,
	}}

	if want("1") {
		rows, err := runTable1(ctx, *seed)
		if err != nil {
			log.Fatalf("table 1: %v", err)
		}
		rep.Table1 = rows
		if !*jsonOut {
			fmt.Println(cost.Table1Report(rows))
		}
	}

	if want("2") || want("3") || *usd || *sharded {
		h := &cost.Harness{Scale: *scale, Seed: *seed, Tool: *tool, CachedQueries: *qcacheOn}
		fmt.Fprintf(os.Stderr, "passbench: loading combined workload at scale %.2f into all three architectures...\n", *scale)

		if want("2") {
			t2, err := h.Table2Measured(ctx)
			if err != nil {
				log.Fatalf("table 2: %v", err)
			}
			rep.Table2 = t2
			st := h.Stats()
			rep.Dataset = &st
			if !*jsonOut {
				fmt.Println(t2)
				if *estimate {
					est, err := h.Table2Estimated(ctx)
					if err != nil {
						log.Fatalf("table 2 estimate: %v", err)
					}
					fmt.Println(est)
				}
				fmt.Printf("dataset: %d objects, %d items, %d records (%d over 1KB), %d transient versions\n\n",
					st.Objects, st.Items, st.Records, st.BigRecords, st.Transients)
			}
		}

		if want("3") {
			t3, err := h.Table3Measured(ctx)
			if err != nil {
				log.Fatalf("table 3: %v", err)
			}
			rep.Table3 = t3
			if !*jsonOut {
				fmt.Println(t3)
			}
		}

		// Retry overhead counters ride every report that loaded the
		// workload, so the trajectory gate sees retries appearing.
		rep.Retry = make(map[string]retryTotals)
		for _, arch := range []string{"s3", "s3+sdb", "s3+sdb+sqs"} {
			snap, ok := h.RetrySnapshot(arch)
			if !ok {
				continue
			}
			rep.Retry[arch] = retryTotals{
				Attempts:  snap.Total.Attempts,
				Retries:   snap.Total.Retries,
				Recovered: snap.Total.Recovered,
				Exhausted: snap.Total.Exhausted,
				WaitMS:    float64(snap.Total.Wait) / float64(time.Millisecond),
			}
		}

		if *usd {
			if err := h.Load(ctx); err != nil {
				log.Fatalf("usd: %v", err)
			}
			rep.USD = make(map[string]float64)
			if !*jsonOut {
				fmt.Println("January-2009 USD bill per architecture (load phase):")
			}
			for _, arch := range []string{"s3", "s3+sdb", "s3+sdb+sqs"} {
				u, ok := h.Usage(arch)
				if !ok {
					continue
				}
				rep.USD[arch] = billing.Jan2009.Price(u).Total()
				if !*jsonOut {
					fmt.Println(cost.USDReport(arch, u))
				}
			}
			if !*jsonOut {
				fmt.Println()
			}
		}

		if *sharded {
			counts, err := parseShardCounts(*shardCounts)
			if err != nil {
				log.Fatalf("sharded: %v", err)
			}
			fmt.Fprintf(os.Stderr, "passbench: sharded cost matrix at shard counts %v...\n", counts)
			sc, err := h.Sharded(ctx, counts)
			if err != nil {
				log.Fatalf("sharded: %v", err)
			}
			rep.Sharded = sc
			if !*jsonOut {
				fmt.Println(sc)
			}
		}
	}

	if *replayBench {
		counts, err := parseShardCounts(*replayShards)
		if err != nil {
			log.Fatalf("replay: %v", err)
		}
		fmt.Fprintf(os.Stderr, "passbench: replay cost matrix at shard counts %v...\n", counts)
		h := &cost.Harness{Scale: *scale, Seed: *seed, Tool: *tool}
		rc, err := h.Replay(ctx, counts)
		if err != nil {
			log.Fatalf("replay: %v", err)
		}
		rep.Replay = rc
		if !*jsonOut {
			fmt.Println(rc)
		}
	}

	if *load {
		counts, err := parseShardCounts(*loadShards)
		if err != nil {
			log.Fatalf("load: %v", err)
		}
		cfg := workload.LoadConfig{
			Tenants: *loadTenants, Writers: *loadWriters, Queriers: *loadQueriers,
			Batches: *loadBatches, Seed: *seed,
		}
		lrep, err := runLoadMatrix(ctx, cfg, counts)
		if err != nil {
			log.Fatalf("load: %v", err)
		}
		rep.Load = lrep
		if !*jsonOut {
			fmt.Println(lrep.text())
		}
	}

	if *rebalance {
		cfg := workload.LoadConfig{
			Writers: *loadWriters, Batches: *loadBatches, Seed: *seed,
		}
		rrep, err := runRebalanceMatrix(ctx, cfg)
		if err != nil {
			log.Fatalf("rebalance: %v", err)
		}
		rep.Rebalance = rrep
		if !*jsonOut {
			fmt.Println(rrep.text())
		}
	}

	if *jsonOut {
		rep.declare()
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			log.Fatal(err)
		}
	}
	if faults := rep.faults(); len(faults) > 0 {
		log.Fatalf("passbench: %s", strings.Join(faults, "; "))
	}
}

func runTable1(ctx context.Context, seed int64) ([]cost.Table1Row, error) {
	var rows []cost.Table1Row
	for _, h := range props.StandardHarnesses(seed) {
		report, err := props.Check(ctx, h)
		if err != nil {
			return nil, err
		}
		rows = append(rows, cost.Table1Row{
			Arch:           report.Name,
			Atomicity:      report.Measured.Atomicity,
			Consistency:    report.Measured.Consistency,
			CausalOrdering: report.Measured.CausalOrdering,
			EfficientQuery: report.Measured.EfficientQuery,
		})
		for _, v := range report.Violations {
			fmt.Fprintf(os.Stderr, "  %s: %s\n", report.Name, v)
		}
	}
	return rows, nil
}
