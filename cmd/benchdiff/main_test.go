package main

import (
	"bytes"
	"encoding/json"
	"strconv"
	"strings"
	"testing"
)

// baseReport carries every section benchdiff gates, one row each, with
// every gated metric nonzero.
const baseReport = `{
  "schema": "passbench/v1", "scale": 0.02, "seed": 1, "tool": "blast",
  "dataset": {"Objects": 100, "Transients": 50},
  "table2": {"Rows": [{"Arch": "s3", "ProvOps": 100}]},
  "table3": {"Rows": [{"Query": "Q.1", "Arch": "s3", "Ops": 10, "Results": 5}]},
  "retry": {"s3": {"retries": 2, "exhausted": 1}},
  "load": {"tenants": 2, "writers": 2, "batches": 3, "seed": 7,
    "runs": [{"arch": "s3", "shards": 4, "events": 100, "write_ops": 200, "throughput_eps": 50}]},
  "rebalance": {"writers": 2, "batches": 3, "seed": 7, "shards": 4, "hot_fraction": 0.5,
    "runs": [{"arch": "s3", "action": "split", "pre_hot_share": 0.8, "post_hot_share": 0.4,
      "mig_ops": 30, "mig_bytes": 1000, "mig_usd": 0.01}]},
  "sharded": {"rows": [{"arch": "s3", "shards": 4, "prov_ops": 100,
    "queries": [{"query": "Q.1", "ops": 10, "results": 5, "usd": 0.001}],
    "verify_ops": 40, "verify_usd": 0.002, "verify_clean": true}]},
  "replay": {"rows": [{"arch": "s3", "shards": 4, "subjects": 10, "sources": 2, "compared": 8,
    "divergences": 0, "extract_ops": 20, "replay_ops": 30, "replay_usd": 0.003}]}
}`

// set replaces the value at a dot-separated path (map keys and slice
// indexes) of a decoded JSON document.
func set(t *testing.T, doc any, path string, v any) {
	t.Helper()
	keys := strings.Split(path, ".")
	for i, k := range keys {
		last := i == len(keys)-1
		switch node := doc.(type) {
		case map[string]any:
			if last {
				node[k] = v
				return
			}
			doc = node[k]
		case []any:
			n, err := strconv.Atoi(k)
			if err != nil || n >= len(node) {
				t.Fatalf("path %q: bad index %q", path, k)
			}
			if last {
				node[n] = v
				return
			}
			doc = node[n]
		default:
			t.Fatalf("path %q: no node at %q", path, k)
		}
	}
}

// TestCompare pins benchdiff's gate: identical reports pass, every gated
// metric fails once it regresses beyond -tol, a vanished section or row
// fails, and reports of a different scale, seed or tool skip.
func TestCompare(t *testing.T) {
	cases := []struct {
		name  string
		path  string
		value any
		// fail names the metric the REGRESSION line must carry; empty
		// means the comparison passes.
		fail string
		skip bool
	}{
		{name: "identical"},
		{name: "within tolerance", path: "table2.Rows.0.ProvOps", value: 101},

		{name: "table2 provops", path: "table2.Rows.0.ProvOps", value: 102, fail: "table2/provops/s3"},
		{name: "table3 ops", path: "table3.Rows.0.Ops", value: 11, fail: "table3/ops/Q.1/s3"},
		{name: "table3 results", path: "table3.Rows.0.Results", value: 4, fail: "table3/results/Q.1/s3"},
		{name: "retry retries", path: "retry.s3.retries", value: 3, fail: "retry/retries/s3"},
		{name: "retry exhausted", path: "retry.s3.exhausted", value: 2, fail: "retry/exhausted/s3"},
		{name: "load events", path: "load.runs.0.events", value: 99, fail: "load/s3/x4 "},
		{name: "load writeops", path: "load.runs.0.write_ops", value: 210, fail: "load/s3/x4/writeops"},
		{name: "load eps", path: "load.runs.0.throughput_eps", value: 40, fail: "load/s3/x4/eps"},
		{name: "rebalance action", path: "rebalance.runs.0.action", value: "none", fail: "rebalance/s3 "},
		{name: "rebalance posthotshare", path: "rebalance.runs.0.post_hot_share", value: 0.5, fail: "rebalance/s3/posthotshare"},
		{name: "rebalance migops", path: "rebalance.runs.0.mig_ops", value: 31, fail: "rebalance/s3/migops"},
		{name: "rebalance migusd", path: "rebalance.runs.0.mig_usd", value: 0.011, fail: "rebalance/s3/migusd"},
		{name: "sharded provops", path: "sharded.rows.0.prov_ops", value: 110, fail: "sharded/s3/x4/provops"},
		{name: "sharded verifyops", path: "sharded.rows.0.verify_ops", value: 41, fail: "sharded/s3/x4/verifyops"},
		{name: "sharded verifyusd", path: "sharded.rows.0.verify_usd", value: 0.003, fail: "sharded/s3/x4/verifyusd"},
		{name: "sharded clean", path: "sharded.rows.0.verify_clean", value: false, fail: "sharded/s3/x4 "},
		{name: "sharded query ops", path: "sharded.rows.0.queries.0.ops", value: 11, fail: "sharded/s3/x4/Q.1/ops"},
		{name: "sharded query usd", path: "sharded.rows.0.queries.0.usd", value: 0.002, fail: "sharded/s3/x4/Q.1/usd"},
		{name: "sharded query results", path: "sharded.rows.0.queries.0.results", value: 6, fail: "sharded/s3/x4/Q.1 "},
		{name: "replay extract ops", path: "replay.rows.0.extract_ops", value: 21, fail: "replay/s3/x4/extractops"},
		{name: "replay ops", path: "replay.rows.0.replay_ops", value: 31, fail: "replay/s3/x4/replayops"},
		{name: "replay usd", path: "replay.rows.0.replay_usd", value: 0.004, fail: "replay/s3/x4/replayusd"},
		{name: "replay divergences", path: "replay.rows.0.divergences", value: 1, fail: "replay/s3/x4 "},
		{name: "replay compared", path: "replay.rows.0.compared", value: 7, fail: "replay/s3/x4 "},

		{name: "vanished retry", path: "retry", value: nil, fail: "retry/(all)"},
		{name: "vanished load", path: "load", value: nil, fail: "load/(all)"},
		{name: "vanished rebalance", path: "rebalance", value: nil, fail: "rebalance/(all)"},
		{name: "vanished sharded", path: "sharded", value: nil, fail: "sharded/(all)"},
		{name: "vanished replay", path: "replay", value: nil, fail: "replay/(all)"},
		{name: "vanished table2 row", path: "table2.Rows", value: []any{}, fail: "table2/provops/s3"},
		{name: "vanished table3 row", path: "table3.Rows", value: []any{}, fail: "table3/Q.1/s3"},
		{name: "vanished retry arch", path: "retry", value: map[string]any{"s3+sdb": map[string]any{}}, fail: "retry/s3 "},
		{name: "vanished load run", path: "load.runs", value: []any{}, fail: "load/s3/x4 "},
		{name: "vanished rebalance run", path: "rebalance.runs", value: []any{}, fail: "rebalance/s3 "},
		{name: "vanished sharded row", path: "sharded.rows", value: []any{}, fail: "sharded/s3/x4 "},
		{name: "vanished sharded query", path: "sharded.rows.0.queries", value: []any{}, fail: "sharded/s3/x4/Q.1 "},
		{name: "vanished replay row", path: "replay.rows", value: []any{}, fail: "replay/s3/x4 "},

		{name: "scale mismatch", path: "scale", value: 0.05, skip: true},
		{name: "seed mismatch", path: "seed", value: 2, skip: true},
		{name: "tool mismatch", path: "tool", value: "compile", skip: true},
	}
	var oldRep report
	if err := json.Unmarshal([]byte(baseReport), &oldRep); err != nil {
		t.Fatal(err)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var doc map[string]any
			if err := json.Unmarshal([]byte(baseReport), &doc); err != nil {
				t.Fatal(err)
			}
			if tc.path != "" {
				set(t, doc, tc.path, tc.value)
			}
			raw, err := json.Marshal(doc)
			if err != nil {
				t.Fatal(err)
			}
			var newRep report
			if err := json.Unmarshal(raw, &newRep); err != nil {
				t.Fatal(err)
			}
			var out bytes.Buffer
			ok := compare(&out, &oldRep, &newRep, 0.01)
			text := out.String()
			switch {
			case tc.skip:
				if !ok || !strings.Contains(text, "skipping") || strings.Contains(text, "benchdiff: OK") {
					t.Fatalf("want a skip, got ok=%v:\n%s", ok, text)
				}
			case tc.fail == "":
				if !ok || strings.Contains(text, "REGRESSION") || !strings.HasSuffix(text, "benchdiff: OK\n") {
					t.Fatalf("want a pass, got ok=%v:\n%s", ok, text)
				}
			default:
				if ok || !strings.HasSuffix(text, "benchdiff: FAIL\n") {
					t.Fatalf("want a failure, got ok=%v:\n%s", ok, text)
				}
				flagged := false
				for _, line := range strings.Split(text, "\n") {
					if strings.HasPrefix(line, tc.fail) && strings.Contains(line, "REGRESSION") {
						flagged = true
					}
				}
				if !flagged {
					t.Fatalf("no REGRESSION line for %q:\n%s", tc.fail, text)
				}
			}
		})
	}
}
