package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// layerStats aggregates spans. Self time is exclusive: every instant of a
// call's wall time is charged to the innermost spans running at that
// instant, split evenly when several run in parallel (the router's
// fan-out), so a call's self times sum exactly to its wall time.
type layerStats struct {
	self      map[string]float64 // seconds, by layer
	selfOp    map[string]float64 // seconds, by layer.op
	dur       map[string]float64 // seconds inside spans, by layer.op
	count     map[string]int64   // spans, by layer.op
	units     map[string]int64   // work units, by layer.op
	allocs    map[string]uint64  // heap objects, by layer.op
	classWall map[string]float64 // seconds of root spans, by call class
	classSelf map[string]float64 // self seconds of their trees, by class
	calls     map[string]int64   // root spans, by class
	// memberQueries counts member-store query spans under search calls.
	memberQueries int64
}

func newLayerStats() *layerStats {
	return &layerStats{
		self: map[string]float64{}, selfOp: map[string]float64{}, dur: map[string]float64{},
		count: map[string]int64{}, units: map[string]int64{}, allocs: map[string]uint64{},
		classWall: map[string]float64{}, classSelf: map[string]float64{}, calls: map[string]int64{},
	}
}

// add folds a tracer's spans in. Calls are sequential, so each call's
// spans are contiguous and start with its root.
func (s *layerStats) add(spans []span) {
	for i := 0; i < len(spans); {
		j := i + 1
		for j < len(spans) && spans[j].root == int32(i) {
			j++
		}
		s.addCall(spans[i:j], int32(i))
		i = j
	}
}

func (s *layerStats) addCall(g []span, base int32) {
	root := g[0]
	class := root.op
	wall := (root.end - root.start).Seconds()
	s.calls[class]++
	s.classWall[class] += wall
	self := exclusiveTimes(g, base)
	for k, sp := range g {
		key := sp.layer + "." + sp.op
		s.self[sp.layer] += self[k]
		s.selfOp[key] += self[k]
		s.classSelf[class] += self[k]
		s.dur[key] += (sp.end - sp.start).Seconds()
		s.count[key]++
		s.units[key] += sp.n
		s.allocs[key] += sp.allocs
		if class == "search" && sp.op == "query" && sp.layer != "shard" {
			s.memberQueries++
		}
	}
}

// exclusiveTimes sweeps a call's span boundaries and charges each
// elementary interval to the spans active in it that have no active
// child.
func exclusiveTimes(g []span, base int32) []float64 {
	self := make([]float64, len(g))
	if len(g) == 1 {
		self[0] = (g[0].end - g[0].start).Seconds()
		return self
	}
	type event struct {
		t     time.Duration
		k     int
		start bool
	}
	evs := make([]event, 0, 2*len(g))
	for k, sp := range g {
		evs = append(evs, event{sp.start, k, true}, event{sp.end, k, false})
	}
	sort.SliceStable(evs, func(a, b int) bool { return evs[a].t < evs[b].t })
	active := make([]bool, len(g))
	children := make([]int, len(g))
	parent := func(k int) int {
		if g[k].parent < 0 {
			return -1
		}
		return int(g[k].parent - base)
	}
	var leaves []int
	prev := evs[0].t
	for _, e := range evs {
		if dt := (e.t - prev).Seconds(); dt > 0 {
			leaves = leaves[:0]
			for k := range g {
				if active[k] && children[k] == 0 {
					leaves = append(leaves, k)
				}
			}
			for _, k := range leaves {
				self[k] += dt / float64(len(leaves))
			}
		}
		prev = e.t
		p := parent(e.k)
		if e.start {
			active[e.k] = true
			if p >= 0 {
				children[p]++
			}
		} else {
			active[e.k] = false
			if p >= 0 {
				children[p]--
			}
		}
	}
	return self
}

// selfSumError is the largest relative gap, over call classes, between
// the summed self times and the summed wall time of the calls.
func (s *layerStats) selfSumError() float64 {
	worst := 0.0
	for class, wall := range s.classWall {
		if wall > 0 {
			worst = math.Max(worst, math.Abs(s.classSelf[class]-wall)/wall)
		}
	}
	return worst
}

func sumValues(m map[string]float64) float64 {
	t := 0.0
	for _, v := range m {
		t += v
	}
	return t
}

// perUnit is dur[key] per work unit, in the given time unit.
func (s *layerStats) perUnit(key string, unit time.Duration) float64 {
	return ratio(s.dur[key], float64(s.units[key])) / unit.Seconds()
}

// perSpan is dur[key] per span, in the given time unit.
func (s *layerStats) perSpan(key string, unit time.Duration) float64 {
	return ratio(s.dur[key], float64(s.count[key])) / unit.Seconds()
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// maxSpansWritten bounds the span file.
const maxSpansWritten = 400000

// writeSpans writes spans as JSON lines under dir, one file per run.
func writeSpans(dir, name string, sets map[string][]span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	p := filepath.Join(dir, name)
	f, err := os.Create(p)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	written := 0
	keys := make([]string, 0, len(sets))
	for k := range sets {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, stack := range keys {
		for _, sp := range sets[stack] {
			if written == maxSpansWritten {
				break
			}
			written++
			fmt.Fprintf(w, `{"stack":%q,"root":%d,"parent":%d,"layer":%q,"op":%q,"start_ns":%d,"end_ns":%d,"n":%d,"allocs":%d}`+"\n",
				stack, sp.root, sp.parent, sp.layer, sp.op, sp.start.Nanoseconds(), sp.end.Nanoseconds(), sp.n, sp.allocs)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return p, f.Close()
}
