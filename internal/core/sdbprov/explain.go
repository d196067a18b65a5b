package sdbprov

import (
	"strings"

	"passcloud/internal/cloud/sdb"
	"passcloud/internal/core"
	"passcloud/internal/prov"
)

// This file implements Explain: the Table 3 cost model extended to
// arbitrary descriptors. Instead of closed-form formulas, the planner
// *simulates* the exact native pipeline (plan selection, phase order, chunk
// boundaries, page boundaries) against the client-side catalog of observed
// writes, so on a single-writer repository the predicted operation counts
// equal the metered ones. The simulation deliberately mirrors
// computeRefs/computeDescendants step for step — when one changes, change
// the other.

// Explain implements core.Querier.
func (l *Layer) Explain(q prov.Query) core.QueryPlan {
	return l.PlanQuery("simpledb", q, l.explainInto)
}

// explainInto fills the plan for a non-paginated descriptor.
func (l *Layer) explainInto(p *core.QueryPlan, q prov.Query) {
	switch {
	case l.graphFallback(q):
		p.Strategy = "graph-walk"
		l.explainScan(p, "one query per item, evaluated on the materialized graph")
	case l.seedPlanOf(q) == seedAll && q.Direction == prov.TraverseNone:
		if q.Projection == prov.ProjectFull {
			p.Strategy = "scan"
			l.explainScan(p, "Q.1 shape: one query per item")
			return
		}
		p.Strategy = "item-listing"
		if l.memoizedRefs(q) {
			p.Cached = true
			p.AddStep("-", "memo", 0, "refs memoized for this generation")
			return
		}
		p.AddStep("SimpleDB", "Select", core.PlanPages(l.catalog.Items(), sdb.SelectPageLimit), "item names only")
	default:
		sim := &planSim{l: l, p: p}
		var refs []prov.Ref
		if l.memoizedRefs(q) {
			p.Strategy = "memo"
			p.Cached = true
			p.AddStep("-", "memo", 0, "refs memoized for this generation")
			sim.mute = true
			refs = sim.refs(q)
		} else {
			refs = sim.refs(q)
		}
		if q.Projection == prov.ProjectFull {
			if l.warmGraph() != nil {
				p.AddStep("-", "snapshot", 0, "records from the warm snapshot")
				return
			}
			p.Cached = false
			p.AddStep("SimpleDB", "GetAttributes", int64(len(refs)), "fetch matched items only")
			if gets := l.catalog.ItemGets(refs); gets > 0 {
				p.AddStep("S3", "GET", gets, "resolve overflow/spill values of matched items")
			}
		}
	}
}

// explainScan predicts the full-repository pass (or reports the warm
// snapshot).
func (l *Layer) explainScan(p *core.QueryPlan, note string) {
	if l.Cache != nil && l.Cache.Warm() {
		p.Cached = true
		p.AddStep("-", "snapshot", 0, "warm snapshot: zero cloud ops")
		return
	}
	items := l.catalog.Items()
	p.AddStep("SimpleDB", "Select", core.PlanPages(items, sdb.SelectPageLimit), "enumerate items")
	p.AddStep("SimpleDB", "GetAttributes", int64(items), note)
	if gets := l.catalog.DecodeGets(); gets > 0 {
		p.AddStep("S3", "GET", gets, "resolve overflow/spill values")
	}
}

// memoizedRefs reports whether q's reference set is memoized at the
// current generation.
func (l *Layer) memoizedRefs(q prov.Query) bool {
	return l.Cache != nil && l.Cache.HasRefs(refsMemoKey(q))
}

// planSim simulates the native refs pipeline against the planner catalog,
// accumulating predicted steps. mute suppresses step accounting (used when
// a memoized sub-result makes a phase free).
type planSim struct {
	l    *Layer
	p    *core.QueryPlan
	mute bool
}

func (s *planSim) step(service, op string, count int64, note string) {
	if !s.mute {
		s.p.AddStep(service, op, count, note)
	}
}

func (s *planSim) strategy(name string) {
	if !s.mute && s.p.Strategy == "" {
		s.p.Strategy = name
	}
}

func (s *planSim) pushdown(expr string) {
	if !s.mute {
		s.p.Pushdown = append(s.p.Pushdown, expr)
	}
}

// refs mirrors computeRefs.
func (s *planSim) refs(q prov.Query) []prov.Ref {
	if q.Direction == prov.TraverseDescendants {
		return s.descendants(q)
	}
	return s.seeds(q)
}

// seeds mirrors the seed strategies of computeRefs.
func (s *planSim) seeds(q prov.Query) []prov.Ref {
	cat := s.l.catalog
	switch s.l.seedPlanOf(q) {
	case seedTwoPhase:
		s.strategy("indexed-two-phase")
		s.pushdown(instancesExpr(q.Tool))
		instances := cat.MatchAttr(prov.AttrName, core.EscapeLiteral(q.Tool))
		s.step("SimpleDB", "Query", core.PlanPages(len(instances), sdb.QueryPageLimit), "phase 1: instances of the tool")
		filters := q.AttrFilters()
		names := make([]string, len(filters))
		for i, f := range filters {
			names[i] = f.Attr
		}
		deps := s.chunkedDependents(instances, "phase 2: dependents, filter attributes riding along", names)
		var out []prov.Ref
		for _, d := range deps {
			if !s.matchesStored(d, filters) {
				continue
			}
			if q.RefPrefix != "" && !strings.HasPrefix(d.String(), q.RefPrefix) {
				continue
			}
			out = append(out, d)
		}
		return out
	case seedPushdown:
		s.strategy("indexed-pushdown")
		s.pushdown(pushdownExpr(q.AttrFilters()))
		matches := cat.MatchAttrs(storedFilters(q.AttrFilters()))
		s.step("SimpleDB", "Query", core.PlanPages(len(matches), sdb.QueryPageLimit), "predicates evaluated inside the backend")
		return filterPrefix(matches, q.RefPrefix)
	case seedPinned:
		s.strategy("pinned-refs")
		filters := q.AttrFilters()
		seen := make(map[prov.Ref]bool, len(q.Refs))
		var pinned []prov.Ref
		for _, r := range q.Refs {
			if seen[r] {
				continue
			}
			seen[r] = true
			if q.RefPrefix != "" && !strings.HasPrefix(r.String(), q.RefPrefix) {
				continue
			}
			pinned = append(pinned, r)
		}
		if len(filters) == 0 {
			prov.SortRefs(pinned)
			return pinned
		}
		s.step("SimpleDB", "GetAttributes", int64(len(pinned)), "fetch pinned items to apply filters")
		if gets := cat.ItemGets(pinned); gets > 0 {
			s.step("S3", "GET", gets, "resolve overflow/spill values of pinned items")
		}
		var out []prov.Ref
		for _, r := range pinned {
			if s.matchesStored(r, filters) {
				out = append(out, r)
			}
		}
		prov.SortRefs(out)
		return out
	default: // seedListing, seedAll
		s.strategy("item-listing")
		s.step("SimpleDB", "Select", core.PlanPages(cat.Items(), sdb.SelectPageLimit), "enumerate item names")
		return filterPrefix(cat.AllRefs(), q.RefPrefix)
	}
}

// descendants mirrors computeDescendants.
func (s *planSim) descendants(q prov.Query) []prov.Ref {
	seedsQ := stripTraversal(q)

	found := make(map[prov.Ref]bool)
	expanded := make(map[prov.Ref]bool)
	var out []prov.Ref
	var frontier []prov.Ref
	level := 0
	var isSeed func(prov.Ref) bool

	if s.l.seedPlanOf(seedsQ) == seedListing {
		s.strategy("indexed-prefix")
		s.pushdown(startsWithExpr(q.RefPrefix))
		level1 := s.l.catalog.DependentsOfPrefix(q.RefPrefix)
		s.step("SimpleDB", "Query", core.PlanPages(len(level1), sdb.QueryPageLimit), "starts-with covers every matching version at once")
		prefix := q.RefPrefix
		isSeed = func(r prov.Ref) bool { return strings.HasPrefix(r.String(), prefix) }
		for _, n := range level1 {
			if !found[n] && (q.IncludeSeeds || !isSeed(n)) {
				found[n] = true
				out = append(out, n)
			}
			if !expanded[n] {
				expanded[n] = true
				frontier = append(frontier, n)
			}
		}
		level = 1
	} else {
		var seeds []prov.Ref
		if !s.mute && s.l.memoizedRefs(seedsQ) {
			s.step("-", "memo", 0, "seed query memoized for this generation")
			prev := s.mute
			s.mute = true
			seeds = s.seeds(seedsQ)
			s.mute = prev
		} else {
			seeds = s.seeds(seedsQ)
		}
		s.strategy("indexed-bfs")
		seedSet := make(map[prov.Ref]bool, len(seeds))
		for _, sr := range seeds {
			seedSet[sr] = true
			expanded[sr] = true
		}
		isSeed = func(r prov.Ref) bool { return seedSet[r] }
		frontier = seeds
	}

	for ; len(frontier) > 0 && (q.Depth == 0 || level < q.Depth); level++ {
		next := s.chunkedDependents(frontier, "BFS level: chunked dependency queries", nil)
		frontier = frontier[:0]
		for _, n := range next {
			if !found[n] && (q.IncludeSeeds || !isSeed(n)) {
				found[n] = true
				out = append(out, n)
			}
			if !expanded[n] {
				expanded[n] = true
				frontier = append(frontier, n)
			}
		}
	}
	return out
}

// chunkedDependents mirrors dependentsOf: ⌈n/chunk⌉ queries, each paging on
// its own match count, results deduplicated in chunk order. When attrNames
// ride along (QueryWithAttributes), decoding a pointer-encoded requested
// value costs an S3 GET per chunk response it appears in — exactly as the
// runtime's per-chunk decode does, including re-decoding an item matched
// by several chunks.
func (s *planSim) chunkedDependents(refs []prov.Ref, note string, attrNames []string) []prov.Ref {
	chunkSize := s.l.cfg.QueryChunk
	op := "Query"
	if len(attrNames) > 0 {
		op = "QueryWithAttributes"
	}
	var ops, gets int64
	seen := make(map[prov.Ref]bool)
	var out []prov.Ref
	for start := 0; start < len(refs); start += chunkSize {
		end := min(start+chunkSize, len(refs))
		matches := s.l.catalog.Dependents(refs[start:end])
		ops += core.PlanPages(len(matches), sdb.QueryPageLimit)
		gets += s.l.catalog.AttrGets(matches, attrNames)
		for _, m := range matches {
			if !seen[m] {
				seen[m] = true
				out = append(out, m)
			}
		}
	}
	if len(refs) > 0 {
		s.step("SimpleDB", op, ops, note)
		if gets > 0 {
			s.step("S3", "GET", gets, "resolve pointer-encoded riding attribute values")
		}
	}
	return out
}

// matchesStored applies attribute filters against the catalog's stored-form
// records, mirroring the runtime's decoded comparison (stored and decoded
// equality agree because the escaping is injective).
func (s *planSim) matchesStored(ref prov.Ref, filters []prov.AttrFilter) bool {
	if len(filters) == 0 {
		return true
	}
	records := s.l.catalog.Records(ref)
	for _, f := range filters {
		if !core.MatchRecords(records, f.Attr, core.EscapeLiteral(f.Value)) {
			return false
		}
	}
	return true
}

// storedFilters converts decoded filter values to their stored forms.
func storedFilters(filters []prov.AttrFilter) []prov.AttrFilter {
	out := make([]prov.AttrFilter, len(filters))
	for i, f := range filters {
		out[i] = prov.AttrFilter{Attr: f.Attr, Value: core.EscapeLiteral(f.Value)}
	}
	return out
}

// PlanQueryRefs implements core.RefPlanner: the reference set Query(q)'s
// native plan would return, predicted from the client-side planner catalog
// without cloud traffic. ok is false for shapes with no native indexed
// plan (the full-graph fallbacks) — for those the shard router keeps its
// union-graph path. Predictions are best-effort when foreign writers have
// touched the region; Explain's Exact flag carries that caveat.
func (l *Layer) PlanQueryRefs(q prov.Query) ([]prov.Ref, bool) {
	if err := q.Validate(); err != nil {
		return nil, false
	}
	q.Limit, q.Cursor = 0, ""
	if q.Direction == prov.TraverseAncestors {
		// The one supported ancestor shape is the router's virtual
		// inputs-of-refs round: the raw union of the pinned refs' direct
		// inputs, read straight off the catalog's inline records. The
		// layer itself answers ancestor queries from the materialized
		// graph, so this descriptor is never executed here.
		if len(q.Refs) == 0 || q.Depth != 1 || !q.IncludeSeeds || q.Tool != "" ||
			q.RefPrefix != "" || len(q.AttrFilters()) > 0 || q.Projection != prov.ProjectRefs {
			return nil, false
		}
		seen := make(map[prov.Ref]bool)
		var out []prov.Ref
		for _, r := range q.Refs {
			for _, rec := range l.catalog.Records(r) {
				if rec.Attr == prov.AttrInput && rec.Value.Kind == prov.KindRef && !seen[rec.Value.Ref] {
					seen[rec.Value.Ref] = true
					out = append(out, rec.Value.Ref)
				}
			}
		}
		prov.SortRefs(out)
		return out, true
	}
	if l.graphFallback(q) {
		return nil, false
	}
	sim := &planSim{l: l, p: &core.QueryPlan{}, mute: true}
	return sim.refs(q), true
}
