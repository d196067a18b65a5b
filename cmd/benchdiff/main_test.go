package main

import (
	"bytes"
	"strings"
	"testing"
)

// baseReport declares one row of every section passbench gates, with every
// ops and dollar metric nonzero.
const baseReport = `{
  "schema": "passbench/v2",
  "config": {"scale": 0.02, "seed": 1, "tool": "blast", "query_cache": false,
    "load/tenants": 2, "load/writers": 2, "load/queriers": 1, "load/batches": 3, "load/seed": 7,
    "load/shard_counts": [4],
    "rebalance/writers": 2, "rebalance/batches": 3, "rebalance/seed": 7, "rebalance/shards": 4,
    "rebalance/hot_fraction": 0.5,
    "sharded/shard_counts": [4], "replay/shard_counts": [4]},
  "metrics": [
    {"name": "table2/provops/s3", "value": 100, "better": "lower"},
    {"name": "table3/ops/Q.1/s3", "value": 10, "better": "lower"},
    {"name": "table3/results/Q.1/s3", "value": 5, "better": "equal"},
    {"name": "retry/retries/s3", "value": 2, "better": "lower"},
    {"name": "retry/exhausted/s3", "value": 1, "better": "lower"},
    {"name": "load/s3/x4/events", "value": 100, "better": "equal"},
    {"name": "load/s3/x4/writeops", "value": 200, "better": "lower"},
    {"name": "load/s3/x4/eps", "value": 50, "better": "higher"},
    {"name": "rebalance/s3/split", "value": 1, "better": "higher"},
    {"name": "rebalance/s3/posthotshare", "value": 0.4, "better": "lower"},
    {"name": "rebalance/s3/migops", "value": 30, "better": "lower"},
    {"name": "rebalance/s3/migusd", "value": 0.01, "better": "lower"},
    {"name": "sharded/s3/x4/provops", "value": 100, "better": "lower"},
    {"name": "sharded/s3/x4/verifyops", "value": 40, "better": "lower"},
    {"name": "sharded/s3/x4/verifyusd", "value": 0.002, "better": "lower"},
    {"name": "sharded/s3/x4/clean", "value": 1, "better": "higher"},
    {"name": "sharded/s3/x4/Q.1/ops", "value": 10, "better": "lower"},
    {"name": "sharded/s3/x4/Q.1/usd", "value": 0.001, "better": "lower"},
    {"name": "sharded/s3/x4/Q.1/results", "value": 5, "better": "equal"},
    {"name": "replay/s3/x4/extractops", "value": 20, "better": "lower"},
    {"name": "replay/s3/x4/replayops", "value": 30, "better": "lower"},
    {"name": "replay/s3/x4/replayusd", "value": 0.003, "better": "lower"},
    {"name": "replay/s3/x4/compared", "value": 8, "better": "equal"},
    {"name": "replay/s3/x4/divergences", "value": 0, "better": "lower"}
  ]
}`

// edit is one mutation of a decoded report.
type edit func(*report)

// set changes metric name's value.
func set(name string, v float64) edit {
	return func(r *report) {
		for i := range r.Metrics {
			if r.Metrics[i].Name == name {
				r.Metrics[i].Value = v
				return
			}
		}
		panic("no metric " + name)
	}
}

// drop removes every metric whose name has one of the prefixes.
func drop(prefixes ...string) edit {
	return func(r *report) {
		kept := r.Metrics[:0]
		for _, m := range r.Metrics {
			gone := false
			for _, p := range prefixes {
				gone = gone || strings.HasPrefix(m.Name, p)
			}
			if !gone {
				kept = append(kept, m)
			}
		}
		r.Metrics = kept
	}
}

// add declares a new metric.
func add(name, better string, v float64) edit {
	return func(r *report) { r.Metrics = append(r.Metrics, metric{Name: name, Value: v, Better: better}) }
}

// config changes one config entry.
func config(key string, v any) edit {
	return func(r *report) { r.Config[key] = v }
}

// TestCompare pins benchdiff's gate: identical reports pass, every gated
// metric fails once it regresses beyond -tol (an equal metric on any
// change), a vanished section, row or metric fails, a metric only in the
// new report passes, and any config difference fails as a stale baseline.
func TestCompare(t *testing.T) {
	cases := []struct {
		name string
		// old and new edit copies of baseReport before the comparison.
		old, new []edit
		// fail names the metric or config line that must be flagged;
		// empty means the comparison passes.
		fail string
	}{
		{name: "identical"},
		{name: "within tolerance", new: []edit{set("table2/provops/s3", 101)}},
		{name: "seeded metric", new: []edit{add("table2/provops/s3+sdb", "lower", 5)}},
		{name: "rebalance none to split", old: []edit{set("rebalance/s3/split", 0)}},
		{name: "improvements", new: []edit{set("table2/provops/s3", 50), set("load/s3/x4/eps", 80)}},

		{name: "table2 provops", new: []edit{set("table2/provops/s3", 102)}, fail: "table2/provops/s3"},
		{name: "table3 ops", new: []edit{set("table3/ops/Q.1/s3", 11)}, fail: "table3/ops/Q.1/s3"},
		{name: "table3 results", new: []edit{set("table3/results/Q.1/s3", 4)}, fail: "table3/results/Q.1/s3"},
		{name: "retry retries", new: []edit{set("retry/retries/s3", 3)}, fail: "retry/retries/s3"},
		{name: "retry exhausted", new: []edit{set("retry/exhausted/s3", 2)}, fail: "retry/exhausted/s3"},
		{name: "retry from zero", old: []edit{set("retry/retries/s3", 0)}, new: []edit{set("retry/retries/s3", 1)}, fail: "retry/retries/s3"},
		{name: "load events", new: []edit{set("load/s3/x4/events", 99)}, fail: "load/s3/x4/events"},
		{name: "load writeops", new: []edit{set("load/s3/x4/writeops", 210)}, fail: "load/s3/x4/writeops"},
		{name: "load eps", new: []edit{set("load/s3/x4/eps", 40)}, fail: "load/s3/x4/eps"},
		{name: "rebalance action", new: []edit{set("rebalance/s3/split", 0)}, fail: "rebalance/s3/split"},
		{name: "rebalance posthotshare", new: []edit{set("rebalance/s3/posthotshare", 0.5)}, fail: "rebalance/s3/posthotshare"},
		{name: "rebalance migops", new: []edit{set("rebalance/s3/migops", 31)}, fail: "rebalance/s3/migops"},
		{name: "rebalance migusd", new: []edit{set("rebalance/s3/migusd", 0.011)}, fail: "rebalance/s3/migusd"},
		{name: "sharded provops", new: []edit{set("sharded/s3/x4/provops", 110)}, fail: "sharded/s3/x4/provops"},
		{name: "sharded verifyops", new: []edit{set("sharded/s3/x4/verifyops", 41)}, fail: "sharded/s3/x4/verifyops"},
		{name: "sharded verifyusd", new: []edit{set("sharded/s3/x4/verifyusd", 0.003)}, fail: "sharded/s3/x4/verifyusd"},
		{name: "sharded clean", new: []edit{set("sharded/s3/x4/clean", 0)}, fail: "sharded/s3/x4/clean"},
		{name: "sharded query ops", new: []edit{set("sharded/s3/x4/Q.1/ops", 11)}, fail: "sharded/s3/x4/Q.1/ops"},
		{name: "sharded query usd", new: []edit{set("sharded/s3/x4/Q.1/usd", 0.002)}, fail: "sharded/s3/x4/Q.1/usd"},
		{name: "sharded query results", new: []edit{set("sharded/s3/x4/Q.1/results", 6)}, fail: "sharded/s3/x4/Q.1/results"},
		{name: "replay extract ops", new: []edit{set("replay/s3/x4/extractops", 21)}, fail: "replay/s3/x4/extractops"},
		{name: "replay ops", new: []edit{set("replay/s3/x4/replayops", 31)}, fail: "replay/s3/x4/replayops"},
		{name: "replay usd", new: []edit{set("replay/s3/x4/replayusd", 0.004)}, fail: "replay/s3/x4/replayusd"},
		{name: "replay divergences", new: []edit{set("replay/s3/x4/divergences", 1)}, fail: "replay/s3/x4/divergences"},
		{name: "replay compared", new: []edit{set("replay/s3/x4/compared", 7)}, fail: "replay/s3/x4/compared"},

		{name: "vanished table2", new: []edit{drop("table2/")}, fail: "table2/provops/s3"},
		{name: "vanished table3", new: []edit{drop("table3/")}, fail: "table3/ops/Q.1/s3"},
		{name: "vanished retry", new: []edit{drop("retry/")}, fail: "retry/retries/s3"},
		{name: "vanished load", new: []edit{drop("load/")}, fail: "load/s3/x4/events"},
		{name: "vanished rebalance", new: []edit{drop("rebalance/")}, fail: "rebalance/s3/split"},
		{name: "vanished sharded", new: []edit{drop("sharded/")}, fail: "sharded/s3/x4/provops"},
		{name: "vanished replay", new: []edit{drop("replay/")}, fail: "replay/s3/x4/extractops"},
		{name: "vanished table2 row", new: []edit{drop("table2/provops/s3")}, fail: "table2/provops/s3"},
		{name: "vanished table3 row", new: []edit{drop("table3/ops/Q.1/s3", "table3/results/Q.1/s3")}, fail: "table3/results/Q.1/s3"},
		{name: "vanished retry arch", new: []edit{drop("retry/"), add("retry/retries/s3+sdb", "lower", 0), add("retry/exhausted/s3+sdb", "lower", 0)},
			fail: "retry/exhausted/s3"},
		{name: "vanished load run", new: []edit{drop("load/s3/x4/")}, fail: "load/s3/x4/eps"},
		{name: "vanished rebalance run", new: []edit{drop("rebalance/s3/")}, fail: "rebalance/s3/migusd"},
		{name: "vanished sharded row", new: []edit{drop("sharded/s3/x4/")}, fail: "sharded/s3/x4/clean"},
		{name: "vanished sharded query", new: []edit{drop("sharded/s3/x4/Q.1/")}, fail: "sharded/s3/x4/Q.1/results"},
		{name: "vanished replay row", new: []edit{drop("replay/s3/x4/")}, fail: "replay/s3/x4/divergences"},

		{name: "scale mismatch", new: []edit{config("scale", 0.05)}, fail: "config/scale"},
		{name: "seed mismatch", new: []edit{config("seed", 2.0)}, fail: "config/seed"},
		{name: "tool mismatch", new: []edit{config("tool", "compile")}, fail: "config/tool"},
		{name: "load config mismatch", new: []edit{config("load/tenants", 3.0)}, fail: "config/load/tenants"},
		{name: "load shard counts mismatch", new: []edit{config("load/shard_counts", []any{1.0, 4.0})}, fail: "config/load/shard_counts"},
		{name: "vanished config", new: []edit{func(r *report) { delete(r.Config, "rebalance/hot_fraction") }},
			fail: "config/rebalance/hot_fraction"},
	}
	decode := func(edits []edit) *report {
		r, err := parse([]byte(baseReport))
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range edits {
			e(r)
		}
		return r
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			ok := compare(&out, decode(tc.old), decode(tc.new), 0.01)
			text := out.String()
			if tc.fail == "" {
				if !ok || strings.Contains(text, "REGRESSION") || !strings.HasSuffix(text, "benchdiff: OK\n") {
					t.Fatalf("want a pass, got ok=%v:\n%s", ok, text)
				}
				return
			}
			if ok || !strings.HasSuffix(text, "benchdiff: FAIL\n") {
				t.Fatalf("want a failure, got ok=%v:\n%s", ok, text)
			}
			flagged := false
			for _, line := range strings.Split(text, "\n") {
				if strings.HasPrefix(line, tc.fail+" ") &&
					(strings.Contains(line, "REGRESSION") || strings.Contains(line, "MISMATCH")) {
					flagged = true
				}
			}
			if !flagged {
				t.Fatalf("no REGRESSION or MISMATCH line for %q:\n%s", tc.fail, text)
			}
		})
	}
}

// TestParseRejects pins the report validation: another schema (a
// passbench/v1 baseline has no metrics and would pass vacuously), an
// unknown direction, and a metric declared twice are errors.
func TestParseRejects(t *testing.T) {
	for name, raw := range map[string]string{
		"v1 schema":      `{"schema": "passbench/v1"}`,
		"unknown better": `{"schema": "passbench/v2", "metrics": [{"name": "a", "value": 1, "better": "smaller"}]}`,
		"duplicate": `{"schema": "passbench/v2", "metrics": [
			{"name": "a", "value": 1, "better": "lower"}, {"name": "a", "value": 2, "better": "lower"}]}`,
	} {
		if _, err := parse([]byte(raw)); err == nil {
			t.Errorf("%s: parsed without error", name)
		}
	}
}
