package core

import (
	"context"
	"fmt"
	"iter"

	"passcloud/internal/cloud"
	"passcloud/internal/cloud/retry"
	"passcloud/internal/core/integrity"
	"passcloud/internal/core/qcache"
	"passcloud/internal/prov"
)

// Kernel is the read-side machinery the storage designs share: the S3-only
// store and the SimpleDB provenance layer each embed one. It owns the write
// generation, the snapshot cache, the cursor stamp and pins, the write
// tracker, the retrier and the integrity ledger, and implements the query
// entrypoint on top of them. An architecture supplies only its protocol:
// the live repository scan and, where it has an index, native plans.
type Kernel struct {
	// Retrier backs off and retries transient cloud errors on every call
	// the architecture issues; its meters feed the retry-overhead report.
	Retrier *retry.Retrier
	// Ledger rolls the Merkle commitment over the architecture's durable
	// writes (nil when integrity is disabled).
	Ledger *integrity.Ledger
	// Cache holds the scanned graph and memoized query results while the
	// stamp is unchanged (nil when disabled).
	Cache *qcache.Cache

	// gen counts writes; stamp samples it together with the region's
	// mutations and consistency epoch, and pagination cursors bind to it.
	gen     qcache.Generation
	stamp   qcache.StampFunc
	pins    Pins
	tracker *qcache.WriteTracker
	scan    func(context.Context) iter.Seq2[Entry, error]
	native  func(context.Context, prov.Query, func(Entry, error) bool) bool
}

// KernelConfig wires a Kernel to one architecture.
type KernelConfig struct {
	// Cloud is the region the architecture stores into. Required.
	Cloud *cloud.Cloud
	// Setup creates the architecture's cloud namespace. It runs once under
	// the write tracker: resource creation meters as a mutation (S3's
	// CreateBucket is a PUT), and tracking it keeps a solo client's plans
	// exact.
	Setup func() error
	// Scan streams the live repository pass. A subject whose records are
	// stored in several places may arrive as several entries.
	Scan func(context.Context) iter.Seq2[Entry, error]
	// Native answers a non-paginated descriptor other than the plain Q.1
	// shape with the architecture's own plan, reporting false when it has
	// none; the kernel then evaluates the descriptor on the repository
	// graph (EvalQuery). nil evaluates every such descriptor on the graph.
	Native func(ctx context.Context, q prov.Query, yield func(Entry, error) bool) bool
	// DisableQueryCache, Retry, Writer and DisableIntegrity carry the
	// architecture config's fields of the same names.
	DisableQueryCache bool
	Retry             retry.Policy
	Writer            string
	DisableIntegrity  bool
}

// NewKernel builds the shared state and runs cfg.Setup.
func NewKernel(cfg KernelConfig) (*Kernel, error) {
	k := &Kernel{
		Retrier: retry.New(cfg.Retry, cfg.Cloud.Clock, cfg.Cloud.RNG),
		tracker: qcache.NewWriteTracker(cfg.Cloud),
		scan:    cfg.Scan,
		native:  cfg.Native,
	}
	if !cfg.DisableIntegrity {
		k.Ledger = integrity.NewLedger(cfg.Writer)
	}
	if err := k.tracker.Track(cfg.Setup); err != nil {
		return nil, err
	}
	k.stamp = qcache.CloudStamp(&k.gen, cfg.Cloud)
	if !cfg.DisableQueryCache {
		k.Cache = qcache.New(k.stamp)
	}
	return k, nil
}

// TrackWrites runs one of this client's outermost write sections under
// the planner's write tracker, so the mutations it meters count as own.
// Do not nest tracked sections — attribution would double-count.
func (k *Kernel) TrackWrites(f func() error) error { return k.tracker.Track(f) }

// ForeignWrites reports region mutations this client did not perform.
func (k *Kernel) ForeignWrites() uint64 { return k.tracker.Foreign() }

// InvalidateQueries bumps the write generation, expiring every cached
// snapshot and memoized query result. Write paths call it themselves even
// when they fail (partial effects may be visible); callers that mutate the
// namespace behind the architecture's back must call it too.
func (k *Kernel) InvalidateQueries() { k.gen.Bump() }

// IntegrityEnabled reports whether the kernel maintains the Merkle ledger.
func (k *Kernel) IntegrityEnabled() bool { return k.Ledger != nil }

// CacheStats exposes the query-cache counters (zero when disabled).
func (k *Kernel) CacheStats() qcache.Stats {
	if k.Cache == nil {
		return qcache.Stats{}
	}
	return k.Cache.Stats()
}

// RetryStats snapshots the retry counters.
func (k *Kernel) RetryStats() retry.Snapshot { return k.Retrier.Snapshot() }

// StampToken implements Stamped: the repository generation cursors bind
// to, exported for composing stores (the shard router) that mint
// composite stamps.
func (k *Kernel) StampToken() string {
	st := k.stamp()
	return fmt.Sprintf("%d.%d", st.Gen, st.Epoch)
}

// Query implements Querier. Entries stream in backend order; a paginated
// descriptor (Limit/Cursor) returns one ref-sorted page, pinned to the
// snapshot generation of the first page, whose last entry carries the
// resume cursor.
func (k *Kernel) Query(ctx context.Context, q prov.Query) iter.Seq2[Entry, error] {
	return func(yield func(Entry, error) bool) {
		if err := q.Validate(); err != nil {
			yield(Entry{}, err)
			return
		}
		if q.Limit > 0 || q.Cursor != "" {
			RunPaged(ctx, q, k.StampToken(), &k.pins, k.evalAll, yield)
			return
		}
		k.run(ctx, q, yield)
	}
}

// run executes one non-paginated descriptor: the plain Q.1 shape streams
// the repository as-is, a native plan answers what it can, and everything
// else is evaluated on the materialized graph.
func (k *Kernel) run(ctx context.Context, q prov.Query, yield func(Entry, error) bool) {
	if !q.HasFilters() && q.Direction == prov.TraverseNone && q.Projection == prov.ProjectFull {
		k.all(ctx)(yield)
		return
	}
	if k.native != nil && k.native(ctx, q, yield) {
		return
	}
	g, err := k.ProvenanceGraph(ctx)
	if err != nil {
		yield(Entry{}, err)
		return
	}
	for _, e := range EvalQuery(g, q) {
		if !yield(e, nil) {
			return
		}
	}
}

// evalAll materializes a full evaluation for the paging layer. Pages must
// hold exactly one entry per ref (the no-duplicates cursor contract), so
// pieces of a subject the live scan yields more than once merge here; when
// refs are unique the merge changes nothing.
func (k *Kernel) evalAll(ctx context.Context, q prov.Query) ([]Entry, error) {
	var out []Entry
	idx := make(map[prov.Ref]int)
	var ferr error
	k.run(ctx, q, func(e Entry, err error) bool {
		if err != nil {
			ferr = err
			return false
		}
		if i, ok := idx[e.Ref]; ok {
			out[i].Records = append(out[i].Records, e.Records...)
			return true
		}
		idx[e.Ref] = len(out)
		out = append(out, e)
		return true
	})
	return out, ferr
}

// all streams the whole repository. With the cache disabled it is the live
// scan, one page resident at a time, and a subject stored in pieces may be
// yielded more than once. With the cache enabled it yields from the
// (built-if-needed) snapshot: merged, one entry per subject, zero cloud ops
// when warm.
func (k *Kernel) all(ctx context.Context) iter.Seq2[Entry, error] {
	if k.Cache == nil {
		return k.scan(ctx)
	}
	return func(yield func(Entry, error) bool) {
		g, err := k.ProvenanceGraph(ctx)
		if err != nil {
			yield(Entry{}, err)
			return
		}
		for _, subject := range g.Subjects() {
			if !yield(Entry{Ref: subject, Records: g.Records(subject)}, nil) {
				return
			}
		}
	}
}

// ProvenanceGraph implements GraphQuerier: the repository graph, shared
// from the snapshot cache (built singleflight on a miss) when enabled.
// Read-only.
func (k *Kernel) ProvenanceGraph(ctx context.Context) (*prov.Graph, error) {
	if k.Cache != nil {
		return k.Cache.Graph(ctx, k.buildGraph)
	}
	return k.buildGraph(ctx)
}

// buildGraph materializes the live scan into a provenance graph.
func (k *Kernel) buildGraph(ctx context.Context) (*prov.Graph, error) {
	g := prov.NewGraph()
	for entry, err := range k.scan(ctx) {
		if err != nil {
			return nil, err
		}
		g.AddAll(entry.Records)
	}
	return g, nil
}

// PlanQuery is the part of Explain every architecture shares: it validates
// q, plans a resumable cursor without costing an evaluation when it can,
// and otherwise has plan fill in the cost of evaluating q without its
// Limit, adding the pagination step after. Predictions are exact only
// while every region mutation was this client's own: the architectures'
// catalogs never see other writers' objects.
func (k *Kernel) PlanQuery(arch string, q prov.Query, plan func(*QueryPlan, prov.Query)) QueryPlan {
	p := QueryPlan{Arch: arch, Exact: k.ForeignWrites() == 0}
	if err := q.Validate(); err != nil {
		p.Strategy = "invalid"
		return p
	}
	// An evicted pin at an unchanged generation falls through: resuming
	// re-evaluates, free only when memoized or snapshot-warm.
	if q.Cursor != "" && ExplainCursor(&p, q, &k.pins, k.StampToken()) {
		return p
	}
	unpaged := q
	unpaged.Limit = 0
	plan(&p, unpaged)
	if q.Limit > 0 {
		p.AddStep("-", "paginate", 0, "first page evaluates fully, sorts and pins; later pages are free")
	}
	return p
}

var (
	_ GraphQuerier = (*Kernel)(nil)
	_ Stamped      = (*Kernel)(nil)
)
