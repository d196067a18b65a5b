package sdbprov

import (
	"context"
	"strings"

	"passcloud/internal/cloud/sdb"
	"passcloud/internal/core"
	"passcloud/internal/core/qcache"
	"passcloud/internal/prov"
)

// This file is the layer's composable query engine: one prov.Query
// descriptor in, the cheapest 2009 SimpleDB plan out. The planner picks
// between:
//
//   - indexed-two-phase: the paper's Q.2 shape — one Query for the tool's
//     instances, then chunked QueryWithAttributes for their dependents,
//     with every client-side attribute filter riding the same response;
//   - indexed-pushdown: attribute predicates compiled into one bracket
//     expression joined with `intersection`, evaluated entirely inside
//     SimpleDB — non-matching items' provenance is never fetched;
//   - indexed-prefix: descendants of "every version with this ref prefix"
//     as a single starts-with query (the prov.QDependents idiom: input
//     values are "object:version", so ['input' starts-with 'object:']
//     covers every version at once);
//   - item-listing: refs-only enumeration from Select itemName();
//   - scan / graph-walk: the Q.1 repository pass (or the warm snapshot),
//     served by the layer's core.Kernel, with the shared in-memory
//     evaluator (core.EvalQuery) as the fallback for descriptors SimpleDB
//     cannot push down.
//
// Pushdown honesty: predicates compare against the *stored* encoding
// (core.EscapeLiteral), because that is what SimpleDB indexed; the shared
// evaluator compares decoded records. Property tests drive randomized
// descriptors through both and any disagreement is a bug here. Values too
// large to live inline (pointer-encoded, > 1 KB) cannot be matched by the
// index at all, so such filters fall back to the graph plan. Records
// spilled past the 256-attribute item limit are invisible to the index —
// the architecture's documented blind spot; scan-backed plans see them.
//
// Results are memoized by the descriptor's canonical key (prov.Query.Key)
// in the kernel's generation-stamped cache, and the kernel pins paginated
// descriptors' evaluations to the snapshot generation of the first page
// (core.RunPaged), so page sequences stay consistent across concurrent
// writes.

// seedPlan classifies how a descriptor's seed set is computed natively.
type seedPlan int

const (
	// seedAll: no filters — every item.
	seedAll seedPlan = iota
	// seedTwoPhase: Tool filter — instances, then dependents.
	seedTwoPhase
	// seedPushdown: attribute predicates in one backend expression.
	seedPushdown
	// seedListing: RefPrefix only — enumerate item names, filter client-side.
	seedListing
	// seedPinned: explicit Refs.
	seedPinned
	// seedGraph: no native plan; materialize the graph and evaluate there.
	seedGraph
)

// pushable reports whether a filter value's stored form stays inline —
// values over the overflow threshold are stored as S3 pointers, which the
// SimpleDB index cannot match by equality.
func pushable(v string) bool { return len(v) <= core.OverflowThreshold }

// seedPlanOf picks the native seed strategy for q's filter section.
func (l *Layer) seedPlanOf(q prov.Query) seedPlan {
	filters := q.AttrFilters()
	switch {
	case q.Tool != "":
		if len(q.Refs) > 0 || !pushable(q.Tool) {
			return seedGraph
		}
		for _, f := range filters {
			if !pushable(f.Value) {
				return seedGraph
			}
		}
		return seedTwoPhase
	case len(q.Refs) > 0:
		return seedPinned
	case len(filters) > 0:
		for _, f := range filters {
			if !pushable(f.Value) {
				return seedGraph
			}
		}
		return seedPushdown
	case q.RefPrefix != "":
		return seedListing
	default:
		return seedAll
	}
}

// graphFallback reports whether q is answered from the materialized graph:
// ancestor walks (the snapshot is the cheapest recursive-query substrate),
// unpushable filters, and descendants-of-everything (one scan beats
// chunk-querying the whole repository).
func (l *Layer) graphFallback(q prov.Query) bool {
	sp := l.seedPlanOf(q)
	return q.Direction == prov.TraverseAncestors ||
		sp == seedGraph ||
		(q.Direction == prov.TraverseDescendants && sp == seedAll)
}

// runNative answers a non-paginated descriptor with the layer's indexed
// plans, reporting false for the graph-fallback shapes; the kernel streams
// the plain Q.1 shape itself and evaluates the fallbacks on its graph.
func (l *Layer) runNative(ctx context.Context, q prov.Query, yield func(core.Entry, error) bool) bool {
	if l.graphFallback(q) {
		return false
	}
	l.runIndexed(ctx, q, yield)
	return true
}

// runIndexed streams an indexed plan's matches.
func (l *Layer) runIndexed(ctx context.Context, q prov.Query, yield func(core.Entry, error) bool) {
	refs, err := l.refsFor(ctx, q)
	if err != nil {
		yield(core.Entry{}, err)
		return
	}
	if q.Projection == prov.ProjectRefs {
		for _, r := range refs {
			if !yield(core.Entry{Ref: r}, nil) {
				return
			}
		}
		return
	}
	// Full projection: fetch the matched items only — never the rest of
	// the repository (the pushdown dividend).
	g := l.warmGraph()
	for _, r := range refs {
		var records []prov.Record
		if g != nil {
			records = g.Records(r)
		} else {
			if err := ctx.Err(); err != nil {
				yield(core.Entry{}, err)
				return
			}
			// A vanished item yields its ref with no records.
			records, _, _, err = l.FetchItem(ctx, r)
			if err != nil {
				yield(core.Entry{}, err)
				return
			}
		}
		if !yield(core.Entry{Ref: r, Records: records}, nil) {
			return
		}
	}
}

// warmGraph returns the resident snapshot when valid, else nil.
func (l *Layer) warmGraph() *prov.Graph {
	if l.Cache == nil {
		return nil
	}
	return l.Cache.PeekGraph()
}

// refsFor computes q's matched references, memoized under the descriptor's
// canonical key for the current write generation.
func (l *Layer) refsFor(ctx context.Context, q prov.Query) ([]prov.Ref, error) {
	if l.Cache == nil {
		return l.computeRefs(ctx, q)
	}
	refs, err := l.Cache.Refs(ctx, refsMemoKey(q), func(ctx context.Context) ([]prov.Ref, error) {
		return l.computeRefs(ctx, q)
	})
	return qcache.CopyRefs(refs), err
}

// refsMemoKey is the cache key of a descriptor's reference set.
func refsMemoKey(q prov.Query) string { return "qv2\x00" + q.RefsKey() }

// computeRefs is the uncached native pipeline.
func (l *Layer) computeRefs(ctx context.Context, q prov.Query) ([]prov.Ref, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if q.Direction == prov.TraverseDescendants {
		return l.computeDescendants(ctx, q)
	}
	switch l.seedPlanOf(q) {
	case seedTwoPhase:
		return l.computeTwoPhase(ctx, q)
	case seedPushdown:
		refs, err := l.queryRefs(ctx, pushdownExpr(q.AttrFilters()))
		if err != nil {
			return nil, err
		}
		return filterPrefix(refs, q.RefPrefix), nil
	case seedPinned:
		return l.computePinned(ctx, q)
	default: // seedListing, seedAll: item names only, no attribute fetch
		var refs []prov.Ref
		for name, err := range l.itemNames(ctx, "sdbprov/list-select") {
			if err != nil {
				return nil, err
			}
			if ref, perr := prov.ParseItemName(name); perr == nil {
				refs = append(refs, ref)
			}
		}
		return filterPrefix(refs, q.RefPrefix), nil
	}
}

// computeTwoPhase is the paper's Q.2 plan generalized: phase one retrieves
// the tool's instances by indexed name lookup; phase two retrieves their
// dependents with every requested filter attribute riding the same chunked
// QueryWithAttributes responses — no per-dependent follow-up calls.
func (l *Layer) computeTwoPhase(ctx context.Context, q prov.Query) ([]prov.Ref, error) {
	instances, err := l.instancesOf(ctx, q.Tool)
	if err != nil {
		return nil, err
	}
	filters := q.AttrFilters()
	names := make([]string, len(filters))
	for i, f := range filters {
		names[i] = f.Attr
	}
	deps, err := l.dependentsOf(ctx, instances, names)
	if err != nil {
		return nil, err
	}
	var out []prov.Ref
	for _, d := range deps {
		if !d.matches(filters) {
			continue
		}
		if q.RefPrefix != "" && !strings.HasPrefix(d.ref.String(), q.RefPrefix) {
			continue
		}
		out = append(out, d.ref)
	}
	return out, nil
}

// computePinned resolves an explicit Refs seed set: free for refs-only
// descriptors, one FetchItem per ref when attribute filters must be
// checked.
func (l *Layer) computePinned(ctx context.Context, q prov.Query) ([]prov.Ref, error) {
	filters := q.AttrFilters()
	seen := make(map[prov.Ref]bool, len(q.Refs))
	var out []prov.Ref
	for _, r := range q.Refs {
		if seen[r] {
			continue
		}
		seen[r] = true
		if q.RefPrefix != "" && !strings.HasPrefix(r.String(), q.RefPrefix) {
			continue
		}
		if len(filters) > 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			records, _, ok, err := l.FetchItem(ctx, r)
			if err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
			match := true
			for _, f := range filters {
				if !core.MatchRecords(records, f.Attr, f.Value) {
					match = false
					break
				}
			}
			if !match {
				continue
			}
		}
		out = append(out, r)
	}
	prov.SortRefs(out)
	return out, nil
}

// computeDescendants runs the traversal: seeds from the filter section,
// then chunked dependency queries per BFS level ("it has to retrieve each
// item ... then lookup further ancestors"). Prefix-only seeds skip seed
// materialization entirely — the whole first level is one starts-with
// query over every version at once.
func (l *Layer) computeDescendants(ctx context.Context, q prov.Query) ([]prov.Ref, error) {
	seedsQ := stripTraversal(q)

	found := make(map[prov.Ref]bool)
	expanded := make(map[prov.Ref]bool)
	var out []prov.Ref
	var frontier []prov.Ref
	level := 0
	var isSeed func(prov.Ref) bool

	if l.seedPlanOf(seedsQ) == seedListing {
		expr := startsWithExpr(q.RefPrefix)
		level1, err := l.queryRefs(ctx, expr)
		if err != nil {
			return nil, err
		}
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
		seeds, err := l.refsFor(ctx, seedsQ) // memoized sub-query (Q.2 inside Q.3)
		if err != nil {
			return nil, err
		}
		seedSet := make(map[prov.Ref]bool, len(seeds))
		for _, s := range seeds {
			seedSet[s] = true
			expanded[s] = true
		}
		isSeed = func(r prov.Ref) bool { return seedSet[r] }
		frontier = seeds
	}

	for ; len(frontier) > 0 && (q.Depth == 0 || level < q.Depth); level++ {
		next, err := l.dependentsOf(ctx, frontier, nil)
		if err != nil {
			return nil, err
		}
		frontier = frontier[:0]
		for _, n := range next {
			if !found[n.ref] && (q.IncludeSeeds || !isSeed(n.ref)) {
				found[n.ref] = true
				out = append(out, n.ref)
			}
			if !expanded[n.ref] {
				expanded[n.ref] = true
				frontier = append(frontier, n.ref)
			}
		}
	}
	return out, nil
}

// stripTraversal reduces q to its seed descriptor.
func stripTraversal(q prov.Query) prov.Query {
	q.Direction, q.Depth, q.IncludeSeeds = prov.TraverseNone, 0, false
	q.Projection = prov.ProjectRefs
	q.Limit, q.Cursor = 0, ""
	return q
}

// --- expression builders -----------------------------------------------------

// instancesExpr matches items whose name attribute is tool. The index holds
// stored (escaped) forms, so the literal is escaped exactly like the write
// path escaped it — a tool name needing escape would otherwise never match.
func instancesExpr(tool string) string {
	return "['" + escapeQuery(prov.AttrName) + "' = " + sdb.QuoteString(core.EscapeLiteral(tool)) + "]"
}

// pushdownExpr compiles attribute equality filters into one expression:
// per-attribute predicates joined with `intersection`, values in stored
// form.
func pushdownExpr(filters []prov.AttrFilter) string {
	var b strings.Builder
	for i, f := range filters {
		if i > 0 {
			b.WriteString(" intersection ")
		}
		b.WriteString("['" + escapeQuery(f.Attr) + "' = " + sdb.QuoteString(core.EscapeLiteral(f.Value)) + "]")
	}
	return b.String()
}

// startsWithExpr matches items listing any input with the given ref-string
// prefix — every version of an object at once when the prefix is "obj:".
func startsWithExpr(prefix string) string {
	return "['" + escapeQuery(prov.AttrInput) + "' starts-with " + sdb.QuoteString(prefix) + "]"
}

// filterPrefix keeps refs whose canonical form has the prefix.
func filterPrefix(refs []prov.Ref, prefix string) []prov.Ref {
	if prefix == "" {
		return refs
	}
	out := refs[:0]
	for _, r := range refs {
		if strings.HasPrefix(r.String(), prefix) {
			out = append(out, r)
		}
	}
	return out
}

// --- backend primitives ------------------------------------------------------

// instancesOf finds all object versions whose name attribute is tool
// (phase one of Q.2: "retrieve all objects that correspond to instances of
// blast").
func (l *Layer) instancesOf(ctx context.Context, tool string) ([]prov.Ref, error) {
	return l.queryRefs(ctx, instancesExpr(tool))
}

// queryRefs runs one Query expression to completion, parsing item names.
func (l *Layer) queryRefs(ctx context.Context, expr string) ([]prov.Ref, error) {
	var out []prov.Ref
	for names, err := range core.QueryPages(ctx, l.Retrier, "sdbprov/query", l.cfg.Cloud.SDB, l.cfg.Domain, expr) {
		if err != nil {
			return nil, err
		}
		for _, item := range names {
			if ref, perr := prov.ParseItemName(item); perr == nil {
				out = append(out, ref)
			}
		}
	}
	return out, nil
}

// refAttrs pairs a matched item with the decoded values of the attributes
// that rode the query response.
type refAttrs struct {
	ref   prov.Ref
	attrs map[string][]string
}

// matches applies decoded attribute equality filters: every filter must be
// satisfied by some value (the multi-valued-attribute rule).
func (ra refAttrs) matches(filters []prov.AttrFilter) bool {
	for _, f := range filters {
		ok := false
		for _, v := range ra.attrs[f.Attr] {
			if v == f.Value {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// queryRefAttrs runs one QueryWithAttributes expression to completion,
// returning each matching item with the requested attributes decoded from
// the same response — no follow-up GetAttributes per item.
func (l *Layer) queryRefAttrs(ctx context.Context, expr string, attrNames []string) ([]refAttrs, error) {
	want := make(map[string]bool, len(attrNames))
	for _, n := range attrNames {
		want[n] = true
	}
	var out []refAttrs
	for items, err := range core.QueryAttrPages(ctx, l.Retrier, "sdbprov/query-attrs", l.cfg.Cloud.SDB, l.cfg.Domain, expr, attrNames) {
		if err != nil {
			return nil, err
		}
		for _, item := range items {
			ref, err := prov.ParseItemName(item.Name)
			if err != nil {
				continue
			}
			ra := refAttrs{ref: ref, attrs: make(map[string][]string)}
			for _, a := range item.Attrs {
				if !want[a.Name] {
					continue
				}
				rec, err := l.decodeStored(ctx, ref, a.Name, a.Value)
				if err != nil {
					return nil, err
				}
				ra.attrs[a.Name] = append(ra.attrs[a.Name], rec.Value.String())
			}
			out = append(out, ra)
		}
	}
	return out, nil
}

// inputChunkExpr renders one chunk's OR expression over input values.
func inputChunkExpr(refs []prov.Ref) string {
	var b strings.Builder
	b.WriteString("[")
	for i, r := range refs {
		if i > 0 {
			b.WriteString(" or ")
		}
		b.WriteString("'" + escapeQuery(prov.AttrInput) + "' = " + sdb.QuoteString(r.String()))
	}
	b.WriteString("]")
	return b.String()
}

// dependentsOf finds items listing any of refs as an input, chunking the
// OR expression ("execute a second QueryWithAttributes to retrieve all
// objects that have as ancestor, objects in the result of the first
// query"). When attrNames is non-empty, each item's requested attributes
// ride the same query response — the aggregation that removes the
// one-GetAttributes-per-dependent N+1 from Q.2. Chunks run concurrently
// under the QueryConcurrency bound; results merge in chunk order,
// deduplicated, so the output is identical to the sequential scan's.
func (l *Layer) dependentsOf(ctx context.Context, refs []prov.Ref, attrNames []string) ([]refAttrs, error) {
	chunk := l.cfg.QueryChunk
	nchunks := (len(refs) + chunk - 1) / chunk
	if nchunks == 0 {
		return nil, nil
	}

	runChunk := func(part []prov.Ref) ([]refAttrs, error) {
		expr := inputChunkExpr(part)
		if len(attrNames) > 0 {
			return l.queryRefAttrs(ctx, expr, attrNames)
		}
		found, err := l.queryRefs(ctx, expr)
		if err != nil {
			return nil, err
		}
		out := make([]refAttrs, len(found))
		for i, f := range found {
			out[i] = refAttrs{ref: f}
		}
		return out, nil
	}

	results := make([][]refAttrs, nchunks)
	err := core.RunLimited(ctx, nchunks, l.cfg.QueryConcurrency, func(ci int) error {
		start := ci * chunk
		end := min(start+chunk, len(refs))
		found, err := runChunk(refs[start:end])
		if err != nil {
			return err
		}
		results[ci] = found
		return nil
	})
	if err != nil {
		return nil, err
	}

	seen := make(map[prov.Ref]bool)
	var out []refAttrs
	for _, part := range results {
		for _, ra := range part {
			if !seen[ra.ref] {
				seen[ra.ref] = true
				out = append(out, ra)
			}
		}
	}
	return out, nil
}

// escapeQuery escapes single quotes inside a bracket-language attribute
// name, which is written between single quotes ('attr'): the 2009 query
// grammar escapes a quote by doubling it, exactly like string literals.
// Attribute names today come from our own fixed vocabulary, but provenance
// attributes are user-extensible in PASS — a quote must not be able to
// terminate the name early and smuggle operators into the expression.
func escapeQuery(s string) string { return strings.ReplaceAll(s, "'", "''") }

var _ core.Querier = (*Layer)(nil)
