// Command benchdiff compares two passbench -json reports (the BENCH_<sha>
// trajectory artifacts CI persists) and fails when the new run regresses
// cloud-operation costs: write-path cloud ops per event (Table 2), the
// Table 3 query costs per architecture and query class, the scale-out
// load matrix, and the sharded cost matrix with its verification-cost
// columns (the ops and dollars a full tamper-evidence audit costs).
//
//	benchdiff old.json new.json            # fail on any ops regression
//	benchdiff -tol 0.02 old.json new.json  # allow 2% drift
//
// Reports with different scale/seed/tool are not comparable; benchdiff
// then exits 0 with a notice so a deliberate recalibration does not wedge
// CI (the new artifact becomes the next baseline).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
)

// report mirrors the passbench/v1 fields benchdiff reads.
type report struct {
	Schema string  `json:"schema"`
	Scale  float64 `json:"scale"`
	Seed   int64   `json:"seed"`
	Tool   string  `json:"tool"`
	Table2 *struct {
		Rows []struct {
			Arch    string
			ProvOps int64
		}
	} `json:"table2"`
	Table3 *struct {
		Rows []struct {
			Query   string
			Arch    string
			Ops     int64
			Results int
		}
	} `json:"table3"`
	Dataset *struct {
		Objects    int64
		Transients int64
	} `json:"dataset"`
	Retry map[string]struct {
		Retries   int64 `json:"retries"`
		Exhausted int64 `json:"exhausted"`
	} `json:"retry"`
	Load *struct {
		Tenants int   `json:"tenants"`
		Writers int   `json:"writers"`
		Batches int   `json:"batches"`
		Seed    int64 `json:"seed"`
		Runs    []struct {
			Arch       string  `json:"arch"`
			Shards     int     `json:"shards"`
			Events     int64   `json:"events"`
			WriteOps   int64   `json:"write_ops"`
			Throughput float64 `json:"throughput_eps"`
		} `json:"runs"`
	} `json:"load"`
	Rebalance *struct {
		Writers     int     `json:"writers"`
		Batches     int     `json:"batches"`
		Seed        int64   `json:"seed"`
		Shards      int     `json:"shards"`
		HotFraction float64 `json:"hot_fraction"`
		Runs        []struct {
			Arch         string  `json:"arch"`
			Action       string  `json:"action"`
			PreHotShare  float64 `json:"pre_hot_share"`
			PostHotShare float64 `json:"post_hot_share"`
			MigOps       int64   `json:"mig_ops"`
			MigBytes     int64   `json:"mig_bytes"`
			MigUSD       float64 `json:"mig_usd"`
		} `json:"runs"`
	} `json:"rebalance"`
	Sharded *struct {
		Rows []struct {
			Arch    string `json:"arch"`
			Shards  int    `json:"shards"`
			ProvOps int64  `json:"prov_ops"`
			Queries []struct {
				Query   string  `json:"query"`
				Ops     int64   `json:"ops"`
				Results int     `json:"results"`
				USD     float64 `json:"usd"`
			} `json:"queries"`
			VerifyOps   int64   `json:"verify_ops"`
			VerifyUSD   float64 `json:"verify_usd"`
			VerifyClean bool    `json:"verify_clean"`
		} `json:"rows"`
	} `json:"sharded"`
	Replay *struct {
		Rows []struct {
			Arch        string  `json:"arch"`
			Shards      int     `json:"shards"`
			Subjects    int     `json:"subjects"`
			Sources     int     `json:"sources"`
			Compared    int     `json:"compared"`
			Divergences int     `json:"divergences"`
			ExtractOps  int64   `json:"extract_ops"`
			ReplayOps   int64   `json:"replay_ops"`
			ReplayUSD   float64 `json:"replay_usd"`
		} `json:"rows"`
	} `json:"replay"`
}

func load(path string) (*report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.Schema != "passbench/v1" {
		return nil, fmt.Errorf("%s: unknown schema %q", path, r.Schema)
	}
	return &r, nil
}

// events is the write-path event count the per-event ratio normalizes by:
// persistent objects plus transient versions.
func (r *report) events() int64 {
	if r.Dataset == nil {
		return 0
	}
	return r.Dataset.Objects + r.Dataset.Transients
}

func main() {
	tol := flag.Float64("tol", 0, "allowed fractional regression (0.02 = 2%)")
	flag.Parse()
	if flag.NArg() != 2 {
		log.Fatal("usage: benchdiff [-tol f] old.json new.json")
	}
	oldRep, err := load(flag.Arg(0))
	if err != nil {
		log.Fatal(err)
	}
	newRep, err := load(flag.Arg(1))
	if err != nil {
		log.Fatal(err)
	}
	if !compare(os.Stdout, oldRep, newRep, *tol) {
		os.Exit(1)
	}
}

// compare gates newRep against oldRep with fractional tolerance tol,
// writing one line per gated metric and a closing verdict to w. It
// reports false when any metric regressed; reports that are not
// comparable (scale, seed or tool differ) pass with a notice.
func compare(w io.Writer, oldRep, newRep *report, tol float64) bool {
	if oldRep.Scale != newRep.Scale || oldRep.Seed != newRep.Seed || oldRep.Tool != newRep.Tool {
		fmt.Fprintf(w, "benchdiff: baselines not comparable (scale/seed/tool %v/%d/%s vs %v/%d/%s); skipping\n",
			oldRep.Scale, oldRep.Seed, oldRep.Tool, newRep.Scale, newRep.Seed, newRep.Tool)
		return true
	}

	failed := false
	check := func(metric string, oldV, newV int64) {
		if oldV <= 0 {
			// A metric appearing from zero is still a cost regression.
			if newV > 0 {
				fmt.Fprintf(w, "%-40s old=%-8d new=%-8d  REGRESSION (new cost)\n", metric, oldV, newV)
				failed = true
			}
			return
		}
		delta := float64(newV-oldV) / float64(oldV)
		status := "ok"
		if delta > tol {
			status = "REGRESSION"
			failed = true
		}
		fmt.Fprintf(w, "%-40s old=%-8d new=%-8d delta=%+.2f%%  %s\n", metric, oldV, newV, 100*delta, status)
	}

	// Write path: Table 2 provenance ops per architecture (same scale and
	// seed means the same event stream, so raw ops compare directly; the
	// per-event ratio is printed for the trajectory log).
	if oldRep.Table2 != nil && newRep.Table2 != nil {
		newOps := map[string]int64{}
		for _, row := range newRep.Table2.Rows {
			newOps[row.Arch] = row.ProvOps
		}
		for _, row := range oldRep.Table2.Rows {
			ops, ok := newOps[row.Arch]
			if !ok {
				fmt.Fprintf(w, "%-40s missing in new report  REGRESSION\n", "table2/provops/"+row.Arch)
				failed = true
				continue
			}
			check("table2/provops/"+row.Arch, row.ProvOps, ops)
		}
		if ev, nev := oldRep.events(), newRep.events(); ev > 0 && nev > 0 {
			for _, row := range newRep.Table2.Rows {
				fmt.Fprintf(w, "%-40s %.3f cloudops/event\n", "table2/opsperevent/"+row.Arch,
					float64(row.ProvOps)/float64(nev))
			}
		}
	}

	// Query path: Table 3 ops per query class and backend, plus a result-
	// count identity check (a faster query returning different answers is
	// not an improvement).
	if oldRep.Table3 != nil && newRep.Table3 != nil {
		type key struct{ q, arch string }
		newRows := map[key]struct {
			ops     int64
			results int
		}{}
		for _, row := range newRep.Table3.Rows {
			newRows[key{row.Query, row.Arch}] = struct {
				ops     int64
				results int
			}{row.Ops, row.Results}
		}
		for _, row := range oldRep.Table3.Rows {
			n, ok := newRows[key{row.Query, row.Arch}]
			if !ok {
				fmt.Fprintf(w, "%-40s missing in new report  REGRESSION\n", "table3/"+row.Query+"/"+row.Arch)
				failed = true
				continue
			}
			check("table3/ops/"+row.Query+"/"+row.Arch, row.Ops, n.ops)
			if n.results != row.Results {
				fmt.Fprintf(w, "%-40s results %d -> %d  REGRESSION (answers changed)\n",
					"table3/results/"+row.Query+"/"+row.Arch, row.Results, n.results)
				failed = true
			}
		}
	}

	// Retry overhead: the simulated region injects no faults during a
	// benchmark run, so retries or exhaustions appearing (or growing) mean
	// the write path started misclassifying errors or re-running work.
	// Old reports may predate the counters; gate only when both sides
	// carry them.
	if len(oldRep.Retry) > 0 && len(newRep.Retry) == 0 {
		// The counters existed and vanished wholesale — the gate would
		// silently disable itself exactly when the wiring broke.
		fmt.Fprintf(w, "%-40s missing in new report  REGRESSION\n", "retry/(all)")
		failed = true
	}
	if len(oldRep.Retry) > 0 && len(newRep.Retry) > 0 {
		for arch, o := range oldRep.Retry {
			n, ok := newRep.Retry[arch]
			if !ok {
				// Counters vanishing for an arch disables the gate, which
				// is itself a regression — mirror the op-table checks.
				fmt.Fprintf(w, "%-40s missing in new report  REGRESSION\n", "retry/"+arch)
				failed = true
				continue
			}
			check("retry/retries/"+arch, o.Retries, n.Retries)
			check("retry/exhausted/"+arch, o.Exhausted, n.Exhausted)
		}
	}

	// Scale-out load matrix: deterministic write metrics per (arch,
	// shards). Op counts must not grow (same tolerance as the tables);
	// modeled throughput must not drop — the inverse direction, so it
	// gets its own check. Event counts are an identity: same seed and
	// config means the same offered workload. The WAL architecture's op
	// totals can drift a few ops with queue interleaving; -tol absorbs it.
	if oldRep.Load != nil && newRep.Load == nil {
		fmt.Fprintf(w, "%-40s missing in new report  REGRESSION\n", "load/(all)")
		failed = true
	}
	if oldRep.Load != nil && newRep.Load != nil {
		o, n := oldRep.Load, newRep.Load
		if o.Tenants != n.Tenants || o.Writers != n.Writers || o.Batches != n.Batches || o.Seed != n.Seed {
			fmt.Fprintf(w, "benchdiff: load configs not comparable (%d/%d/%d/%d vs %d/%d/%d/%d); skipping load gate\n",
				o.Tenants, o.Writers, o.Batches, o.Seed, n.Tenants, n.Writers, n.Batches, n.Seed)
		} else {
			type key struct {
				arch   string
				shards int
			}
			newRuns := map[key]struct {
				events, ops int64
				eps         float64
			}{}
			for _, r := range n.Runs {
				newRuns[key{r.Arch, r.Shards}] = struct {
					events, ops int64
					eps         float64
				}{r.Events, r.WriteOps, r.Throughput}
			}
			for _, r := range o.Runs {
				name := fmt.Sprintf("load/%s/x%d", r.Arch, r.Shards)
				nr, ok := newRuns[key{r.Arch, r.Shards}]
				if !ok {
					fmt.Fprintf(w, "%-40s missing in new report  REGRESSION\n", name)
					failed = true
					continue
				}
				if nr.events != r.Events {
					fmt.Fprintf(w, "%-40s events %d -> %d  REGRESSION (offered workload changed)\n", name, r.Events, nr.events)
					failed = true
				}
				check(name+"/writeops", r.WriteOps, nr.ops)
				if r.Throughput > 0 {
					drop := (r.Throughput - nr.eps) / r.Throughput
					status := "ok"
					if drop > tol {
						status = "REGRESSION"
						failed = true
					}
					fmt.Fprintf(w, "%-40s old=%-8.0f new=%-8.0f delta=%+.2f%%  %s\n",
						name+"/eps", r.Throughput, nr.eps, -100*drop, status)
				}
			}
		}
	}

	// Rebalance (elastic resharding): the controller must keep splitting
	// hot shards, the post-split hot share must not creep back up, and
	// the migration's own cost (ops and dollars) must not regress. Same
	// vanished-section rule as every other gate.
	if oldRep.Rebalance != nil && newRep.Rebalance == nil {
		fmt.Fprintf(w, "%-40s missing in new report  REGRESSION\n", "rebalance/(all)")
		failed = true
	}
	if oldRep.Rebalance != nil && newRep.Rebalance != nil {
		o, n := oldRep.Rebalance, newRep.Rebalance
		if o.Writers != n.Writers || o.Batches != n.Batches || o.Seed != n.Seed ||
			o.Shards != n.Shards || o.HotFraction != n.HotFraction {
			fmt.Fprintln(w, "benchdiff: rebalance configs not comparable; skipping rebalance gate")
		} else {
			type rrun struct {
				action string
				post   float64
				migOps int64
				migUSD float64
			}
			newRuns := map[string]rrun{}
			for _, r := range n.Runs {
				newRuns[r.Arch] = rrun{r.Action, r.PostHotShare, r.MigOps, r.MigUSD}
			}
			for _, r := range o.Runs {
				name := "rebalance/" + r.Arch
				nr, ok := newRuns[r.Arch]
				if !ok {
					fmt.Fprintf(w, "%-40s missing in new report  REGRESSION\n", name)
					failed = true
					continue
				}
				if r.Action == "split" && nr.action != "split" {
					fmt.Fprintf(w, "%-40s action %q -> %q  REGRESSION (hot shard no longer detected)\n",
						name, r.Action, nr.action)
					failed = true
				}
				if r.PostHotShare > 0 {
					delta := (nr.post - r.PostHotShare) / r.PostHotShare
					status := "ok"
					if delta > tol {
						status = "REGRESSION"
						failed = true
					}
					fmt.Fprintf(w, "%-40s old=%-8.3f new=%-8.3f delta=%+.2f%%  %s\n",
						name+"/posthotshare", r.PostHotShare, nr.post, 100*delta, status)
				}
				check(name+"/migops", r.MigOps, nr.migOps)
				if r.MigUSD > 0 {
					delta := (nr.migUSD - r.MigUSD) / r.MigUSD
					status := "ok"
					if delta > tol {
						status = "REGRESSION"
						failed = true
					}
					fmt.Fprintf(w, "%-40s old=$%-9.6f new=$%-9.6f delta=%+.2f%%  %s\n",
						name+"/migusd", r.MigUSD, nr.migUSD, 100*delta, status)
				}
			}
		}
	}

	// Sharded cost matrix and verification cost. Same vanished-section
	// rule as the other gates: an old report carrying the section that the
	// new one lacks means the tamper-evidence cost gate silently disabled
	// itself — a regression, not a skip. (The section newly appearing is
	// the seeding case and passes: every old row is still covered.)
	if oldRep.Sharded != nil && newRep.Sharded == nil {
		fmt.Fprintf(w, "%-40s missing in new report  REGRESSION\n", "sharded/(all)")
		failed = true
	}
	if oldRep.Sharded != nil && newRep.Sharded != nil {
		type rkey struct {
			arch   string
			shards int
		}
		type qcost struct {
			ops     int64
			results int
			usd     float64
		}
		type rowView struct {
			provOps   int64
			verifyOps int64
			verifyUSD float64
			clean     bool
			queries   map[string]qcost
		}
		newRows := map[rkey]rowView{}
		for _, r := range newRep.Sharded.Rows {
			v := rowView{provOps: r.ProvOps, verifyOps: r.VerifyOps, verifyUSD: r.VerifyUSD,
				clean: r.VerifyClean, queries: map[string]qcost{}}
			for _, q := range r.Queries {
				v.queries[q.Query] = qcost{q.Ops, q.Results, q.USD}
			}
			newRows[rkey{r.Arch, r.Shards}] = v
		}
		for _, r := range oldRep.Sharded.Rows {
			name := fmt.Sprintf("sharded/%s/x%d", r.Arch, r.Shards)
			n, ok := newRows[rkey{r.Arch, r.Shards}]
			if !ok {
				fmt.Fprintf(w, "%-40s missing in new report  REGRESSION\n", name)
				failed = true
				continue
			}
			check(name+"/provops", r.ProvOps, n.provOps)
			check(name+"/verifyops", r.VerifyOps, n.verifyOps)
			if !n.clean {
				fmt.Fprintf(w, "%-40s namespace no longer verifies clean  REGRESSION\n", name)
				failed = true
			}
			if r.VerifyUSD > 0 {
				delta := (n.verifyUSD - r.VerifyUSD) / r.VerifyUSD
				status := "ok"
				if delta > tol {
					status = "REGRESSION"
					failed = true
				}
				fmt.Fprintf(w, "%-40s old=$%-7.4f new=$%-7.4f delta=%+.2f%%  %s\n",
					name+"/verifyusd", r.VerifyUSD, n.verifyUSD, 100*delta, status)
			}
			for _, q := range r.Queries {
				nq, ok := n.queries[q.Query]
				if !ok {
					fmt.Fprintf(w, "%-40s missing in new report  REGRESSION\n", name+"/"+q.Query)
					failed = true
					continue
				}
				check(name+"/"+q.Query+"/ops", q.Ops, nq.ops)
				// The query bill gates like verifyusd: only once the old
				// report carries a nonzero price, so a seeding run (old
				// reports predating the field decode it as zero) passes.
				if q.USD > 0 {
					delta := (nq.usd - q.USD) / q.USD
					status := "ok"
					if delta > tol {
						status = "REGRESSION"
						failed = true
					}
					fmt.Fprintf(w, "%-40s old=$%-9.6f new=$%-9.6f delta=%+.2f%%  %s\n",
						name+"/"+q.Query+"/usd", q.USD, nq.usd, 100*delta, status)
				}
				if nq.results != q.Results {
					fmt.Fprintf(w, "%-40s results %d -> %d  REGRESSION (answers changed)\n",
						name+"/"+q.Query, q.Results, nq.results)
					failed = true
				}
			}
		}
	}

	// Replay cost matrix: the divergence oracle's bill. Vanished-section
	// rule as above; beyond the op/USD gates, a row reporting divergences
	// is a correctness failure (the harness replays its own faithful
	// capture), and a change in coverage means the audit silently shrank
	// or grew.
	if oldRep.Replay != nil && newRep.Replay == nil {
		fmt.Fprintf(w, "%-40s missing in new report  REGRESSION\n", "replay/(all)")
		failed = true
	}
	if oldRep.Replay != nil && newRep.Replay != nil {
		type rkey struct {
			arch   string
			shards int
		}
		type rowView struct {
			compared    int
			divergences int
			extractOps  int64
			replayOps   int64
			replayUSD   float64
		}
		newRows := map[rkey]rowView{}
		for _, r := range newRep.Replay.Rows {
			newRows[rkey{r.Arch, r.Shards}] = rowView{r.Compared, r.Divergences, r.ExtractOps, r.ReplayOps, r.ReplayUSD}
		}
		for _, r := range oldRep.Replay.Rows {
			name := fmt.Sprintf("replay/%s/x%d", r.Arch, r.Shards)
			n, ok := newRows[rkey{r.Arch, r.Shards}]
			if !ok {
				fmt.Fprintf(w, "%-40s missing in new report  REGRESSION\n", name)
				failed = true
				continue
			}
			check(name+"/extractops", r.ExtractOps, n.extractOps)
			check(name+"/replayops", r.ReplayOps, n.replayOps)
			if n.divergences > 0 {
				fmt.Fprintf(w, "%-40s %d divergences replaying a faithful capture  REGRESSION\n", name, n.divergences)
				failed = true
			}
			if n.compared != r.Compared {
				fmt.Fprintf(w, "%-40s compared %d -> %d  REGRESSION (audit coverage changed)\n",
					name, r.Compared, n.compared)
				failed = true
			}
			if r.ReplayUSD > 0 {
				delta := (n.replayUSD - r.ReplayUSD) / r.ReplayUSD
				status := "ok"
				if delta > tol {
					status = "REGRESSION"
					failed = true
				}
				fmt.Fprintf(w, "%-40s old=$%-7.4f new=$%-7.4f delta=%+.2f%%  %s\n",
					name+"/replayusd", r.ReplayUSD, n.replayUSD, 100*delta, status)
			}
		}
	}

	if failed {
		fmt.Fprintln(w, "benchdiff: FAIL")
		return false
	}
	fmt.Fprintln(w, "benchdiff: OK")
	return true
}
