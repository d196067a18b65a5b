// Command benchdiff compares two passbench -json reports and fails when the
// new one regresses. It knows no report section: passbench declares every
// gated value as a metric {name, value, better}, and benchdiff walks the
// old report's metrics.
//
//   - A "lower" metric (cloud ops, dollars, retries) regresses when it grows
//     by more than -tol; any growth from 0 is a regression.
//   - A "higher" metric (modeled throughput, 0/1 flags such as "still
//     splits") regresses when it drops by more than -tol.
//   - An "equal" metric (event and result counts, audit coverage) must
//     match exactly.
//   - A metric missing from the new report fails; one only in the new
//     report passes (it seeds the next baseline).
//
// The new report's config (scale, seed, tool, each section's run config)
// must match every key of the old one. Against the committed baseline a
// mismatch can only mean a stale baseline, so it fails too.
//
//	benchdiff bench/passbench.json new.json            # fail on any regression
//	benchdiff -tol 0.01 bench/passbench.json new.json  # allow 1% drift
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"maps"
	"math"
	"os"
	"reflect"
	"slices"
	"strconv"
)

const schema = "passbench/v2"

// metric is one gated value as passbench declares it.
type metric struct {
	Name   string  `json:"name"`
	Value  float64 `json:"value"`
	Better string  `json:"better"` // "lower", "higher" or "equal"
}

// report is the part of a passbench/v2 report benchdiff reads.
type report struct {
	Schema  string         `json:"schema"`
	Config  map[string]any `json:"config"`
	Metrics []metric       `json:"metrics"`
}

// parse decodes and validates a report.
func parse(raw []byte) (*report, error) {
	var r report
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, err
	}
	if r.Schema != schema {
		return nil, fmt.Errorf("schema %q, want %q", r.Schema, schema)
	}
	seen := map[string]bool{}
	for _, m := range r.Metrics {
		switch {
		case m.Better != "lower" && m.Better != "higher" && m.Better != "equal":
			return nil, fmt.Errorf("metric %s: unknown better %q", m.Name, m.Better)
		case seen[m.Name]:
			return nil, fmt.Errorf("metric %s declared twice", m.Name)
		}
		seen[m.Name] = true
	}
	return &r, nil
}

func load(path string) (*report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	r, err := parse(raw)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
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

// regressed reports whether old -> new breaks the metric's direction:
// beyond tol for lower/higher, at all for equal.
func regressed(better string, oldV, newV, tol float64) bool {
	switch better {
	case "equal":
		return newV != oldV
	case "higher":
		oldV, newV = -oldV, -newV
	}
	if oldV == 0 {
		return newV > 0
	}
	return (newV-oldV)/math.Abs(oldV) > tol
}

func num(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }

// compare gates newRep against oldRep with fractional tolerance tol,
// writing one line per old metric and a closing verdict to w. It reports
// false when the configs differ or any metric regressed or vanished.
func compare(w io.Writer, oldRep, newRep *report, tol float64) bool {
	failed := false
	for _, k := range slices.Sorted(maps.Keys(oldRep.Config)) {
		if o, n := oldRep.Config[k], newRep.Config[k]; !reflect.DeepEqual(o, n) {
			fmt.Fprintf(w, "%-40s old=%v new=%v  MISMATCH (stale baseline: regenerate bench/passbench.json)\n",
				"config/"+k, o, n)
			failed = true
		}
	}
	if !failed {
		newVals := make(map[string]float64, len(newRep.Metrics))
		for _, m := range newRep.Metrics {
			newVals[m.Name] = m.Value
		}
		for _, m := range oldRep.Metrics {
			n, ok := newVals[m.Name]
			if !ok {
				fmt.Fprintf(w, "%-40s old=%-10s missing in new report  REGRESSION\n", m.Name, num(m.Value))
				failed = true
				continue
			}
			delta := "n/a"
			if m.Value != 0 {
				delta = fmt.Sprintf("%+.2f%%", 100*(n-m.Value)/math.Abs(m.Value))
			}
			status := "ok"
			if regressed(m.Better, m.Value, n, tol) {
				status = "REGRESSION"
				failed = true
			}
			fmt.Fprintf(w, "%-40s old=%-10s new=%-10s delta=%s  %s\n", m.Name, num(m.Value), num(n), delta, status)
		}
	}
	if failed {
		fmt.Fprintln(w, "benchdiff: FAIL")
		return false
	}
	fmt.Fprintln(w, "benchdiff: OK")
	return true
}
