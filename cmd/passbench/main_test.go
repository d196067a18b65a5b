package main

import (
	"strings"
	"testing"

	"passcloud/internal/cost"
)

// oneRowReport carries one row of every gated section, built by hand so
// the test runs no harness.
func oneRowReport() *report {
	return &report{
		Config: map[string]any{},
		Table2: &cost.Table2{Rows: []cost.Table2Row{{Arch: "s3", ProvOps: 100}}},
		Table3: &cost.Table3{Rows: []cost.Table3Row{{Query: "Q.1", Arch: "S3", Ops: 10, Results: 5}}},
		Retry:  map[string]retryTotals{"s3": {Attempts: 9, Retries: 2, Exhausted: 1}},
		Load: &loadReportJSON{Tenants: 2, Writers: 2, Queriers: 1, Batches: 3, Seed: 7, ShardCounts: []int{4},
			Runs: []loadRunJSON{{Arch: "s3", Shards: 4, Events: 100, WriteOps: 200, Throughput: 50}}},
		Rebalance: &rebalanceReportJSON{Writers: 2, Batches: 3, Seed: 7, Shards: 4, HotFraction: 0.9,
			Runs: []rebalanceRunJSON{{Arch: "s3", Action: "split", PostHotShare: 0.4, MigOps: 30, MigUSD: 0.01}}},
		Sharded: &cost.ShardedCosts{ShardCounts: []int{4}, Rows: []cost.ShardedRow{{
			Arch: "s3", Shards: 4, ProvOps: 100, VerifyOps: 40, VerifyUSD: 0.002, VerifyClean: true,
			Queries: []cost.ShardedQueryCost{{Query: "Q.1", Ops: 10, Results: 5, USD: 0.001}},
		}}},
		Replay: &cost.ReplayCosts{ShardCounts: []int{4}, Rows: []cost.ReplayRow{{
			Arch: "s3", Shards: 4, Compared: 8, ExtractOps: 20, ReplayOps: 30, ReplayUSD: 0.003,
		}}},
	}
}

// TestDeclare pins the producer half of the bench gate: every metric
// family benchdiff gated before metrics were declared is declared, with
// its direction and value, and each section records its run config.
func TestDeclare(t *testing.T) {
	rep := oneRowReport()
	rep.declare()
	got := map[string]metric{}
	for _, m := range rep.Metrics {
		if _, dup := got[m.Name]; dup {
			t.Errorf("%s declared twice", m.Name)
		}
		got[m.Name] = m
	}
	cases := []struct {
		name, better string
		value        float64
	}{
		{"table2/provops/s3", lower, 100},
		{"table3/ops/Q.1/S3", lower, 10},
		{"table3/results/Q.1/S3", equal, 5},
		{"retry/retries/s3", lower, 2},
		{"retry/exhausted/s3", lower, 1},
		{"load/s3/x4/events", equal, 100},
		{"load/s3/x4/writeops", lower, 200},
		{"load/s3/x4/eps", higher, 50},
		{"rebalance/s3/split", higher, 1},
		{"rebalance/s3/posthotshare", lower, 0.4},
		{"rebalance/s3/migops", lower, 30},
		{"rebalance/s3/migusd", lower, 0.01},
		{"sharded/s3/x4/provops", lower, 100},
		{"sharded/s3/x4/verifyops", lower, 40},
		{"sharded/s3/x4/verifyusd", lower, 0.002},
		{"sharded/s3/x4/clean", higher, 1},
		{"sharded/s3/x4/Q.1/ops", lower, 10},
		{"sharded/s3/x4/Q.1/usd", lower, 0.001},
		{"sharded/s3/x4/Q.1/results", equal, 5},
		{"replay/s3/x4/extractops", lower, 20},
		{"replay/s3/x4/replayops", lower, 30},
		{"replay/s3/x4/replayusd", lower, 0.003},
		{"replay/s3/x4/compared", equal, 8},
		{"replay/s3/x4/divergences", lower, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, ok := got[tc.name]
			if !ok {
				t.Fatalf("not declared; have %d metrics", len(got))
			}
			if m.Better != tc.better || m.Value != tc.value {
				t.Fatalf("declared %s=%v, want %s=%v", m.Better, m.Value, tc.better, tc.value)
			}
		})
	}
	if len(got) != len(cases) {
		t.Errorf("declared %d metrics, want %d", len(got), len(cases))
	}
	for _, key := range []string{
		"load/tenants", "load/writers", "load/queriers", "load/batches", "load/seed", "load/shard_counts",
		"rebalance/writers", "rebalance/batches", "rebalance/seed", "rebalance/shards", "rebalance/hot_fraction",
		"sharded/shard_counts", "replay/shard_counts",
	} {
		if _, ok := rep.Config[key]; !ok {
			t.Errorf("config %s not recorded", key)
		}
	}
}

// TestFaults pins the absolute gates: a namespace that does not verify
// clean and a replay that diverges fail the run whatever any baseline
// says, and a healthy report has no faults.
func TestFaults(t *testing.T) {
	cases := []struct {
		name  string
		edit  func(*report)
		fault string
	}{
		{name: "healthy", edit: func(*report) {}},
		{name: "unclean namespace", edit: func(r *report) { r.Sharded.Rows[0].VerifyClean = false },
			fault: "sharded/s3/x4: namespace does not verify clean"},
		{name: "divergent replay", edit: func(r *report) { r.Replay.Rows[0].Divergences = 2 },
			fault: "replay/s3/x4: 2 divergences"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rep := oneRowReport()
			tc.edit(rep)
			faults := rep.faults()
			if tc.fault == "" {
				if len(faults) != 0 {
					t.Fatalf("faults %q on a healthy report", faults)
				}
				return
			}
			if len(faults) != 1 || !strings.HasPrefix(faults[0], tc.fault) {
				t.Fatalf("faults %q, want one starting %q", faults, tc.fault)
			}
		})
	}
}
