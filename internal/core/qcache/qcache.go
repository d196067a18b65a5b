// Package qcache is the query-performance subsystem shared by the three
// architectures: a generation-stamped snapshot cache for the provenance
// graph, a generation-stamped memo for indexed query results, and
// singleflight coalescing so concurrent identical scans share one cloud
// pass.
//
// The paper concedes that querying is where the cloud architectures pay
// their price — S3-only "has to scan the whole repository" per query and
// SimpleDB "has to retrieve each item ... then lookup further ancestors"
// (§5) — but also notes that "the second phase can, of course, be executed
// from a cache". This package generalizes that observation: a repository
// that has not changed since the last scan can answer every query class
// from the cached snapshot at zero cloud ops.
//
// Invalidation is write-driven. Each store owns a Generation counter and
// bumps it whenever a write could change query results (PutBatch, Sync,
// the WAL commit daemon's SimpleDB pushes, orphan-scan deletions). Cached
// state is keyed by the Stamp observed *before* the backing scan started,
// so a write that lands mid-scan invalidates the snapshot being built: the
// write's bump makes the next query observe a newer stamp and rebuild.
//
// Under eventual consistency a write-generation counter alone is not
// enough: a scan may have been served by a stale replica, and with no
// further writes the cache would pin that staleness forever, even after
// the region converges. The Stamp therefore carries a second component,
// the consistency epoch — the region's clock quantized by its propagation
// horizon. When simulated time passes the horizon (Settle, retry waits),
// the epoch advances and the snapshot expires. Staleness served from the
// cache is thereby bounded by what the backend itself may serve, plus at
// most one propagation horizon. Strongly consistent regions have a zero
// horizon and a constant epoch, so only writes invalidate.
package qcache

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"

	"passcloud/internal/cloud"
	"passcloud/internal/cloud/billing"
	"passcloud/internal/prov"
)

// Generation is a store's write-generation counter. Stores bump it on any
// write that could change query results; bumping more often than necessary
// costs cache misses, never staleness, so stores bump unconditionally —
// including on failed batches, whose partial effects may already be
// visible.
type Generation struct {
	n atomic.Uint64
}

// Bump invalidates every snapshot taken at earlier generations.
func (g *Generation) Bump() { g.n.Add(1) }

// Load returns the current generation.
func (g *Generation) Load() uint64 { return g.n.Load() }

// Stamp identifies one cacheable repository state: a write generation plus
// the consistency epoch of the region.
type Stamp struct {
	Gen   uint64
	Epoch int64
}

// StampFunc samples the current stamp. It must be cheap and safe for
// concurrent use.
type StampFunc func() Stamp

// CloudStamp builds the standard StampFunc for a store on a simulated
// region. The generation component is the sum of two monotonic counters —
// the store's own write generation and the region's metered mutation count
// — so the cache also invalidates when a *different* client of a shared
// region writes, which the store's PutBatch bumps alone cannot see. The
// epoch component is cl's clock quantized by its propagation horizon
// (constant on strongly consistent regions).
func CloudStamp(gen *Generation, cl *cloud.Cloud) StampFunc {
	horizon := int64(cl.MaxDelay())
	return func() Stamp {
		st := Stamp{Gen: gen.Load() + regionWrites(cl)}
		if horizon > 0 {
			st.Epoch = cl.Clock.Now().UnixNano() / horizon
		}
		return st
	}
}

// mutatingOps are the metered operations (Meter "Service/Name" keys) that
// can change what a provenance query observes. SQS traffic is absent
// deliberately: WAL messages are not query-visible until the commit
// daemon's S3/SimpleDB writes, which are listed.
var mutatingOps = []string{
	billing.S3.String() + "/PUT",
	billing.S3.String() + "/COPY",
	billing.S3.String() + "/DELETE",
	billing.SimpleDB.String() + "/PutAttributes",
	billing.SimpleDB.String() + "/BatchPutAttributes",
	billing.SimpleDB.String() + "/DeleteAttributes",
	billing.SimpleDB.String() + "/DeleteDomain",
}

// regionWrites counts every mutating operation metered on the region, by
// any client — a constant-work counter read, not a meter snapshot, since
// it runs on every stamp sample including warm hits. Monotonic, and
// queries perform none of the listed ops, so a scan never invalidates
// itself.
func regionWrites(cl *cloud.Cloud) uint64 {
	return uint64(cl.Meter.OpSum(mutatingOps))
}

// WriteTracker attributes the region's metered mutations to this client:
// every write path the client owns runs under Track, and whatever the
// region meters beyond that was written by somebody else. Query planners
// use Foreign to downgrade their predictions from exact to estimate —
// their statistics catalogs only mirror this client's own writes.
//
// Attribution samples the meter around each tracked section, so mutations
// a *concurrent* foreign writer lands inside this client's write window
// are misattributed as own; the tracker is a planner heuristic, not an
// audit log.
type WriteTracker struct {
	cl  *cloud.Cloud
	own atomic.Int64
}

// NewWriteTracker builds a tracker for cl. Mutations metered before the
// tracker existed (a pre-populated shared region) count as foreign: the
// client's planner never observed them.
func NewWriteTracker(cl *cloud.Cloud) *WriteTracker {
	return &WriteTracker{cl: cl}
}

// Track runs one of this client's write sections, attributing the
// mutations it meters to the client.
func (t *WriteTracker) Track(f func() error) error {
	before := regionWrites(t.cl)
	err := f()
	t.own.Add(int64(regionWrites(t.cl) - before))
	return err
}

// Foreign reports how many of the region's metered mutations this client
// did not perform itself (clamped at zero under concurrent-window
// misattribution).
func (t *WriteTracker) Foreign() uint64 {
	total := int64(regionWrites(t.cl))
	if own := t.own.Load(); total > own {
		return uint64(total - own)
	}
	return 0
}

// Stats counts cache outcomes; tests and benchmarks read it to prove that
// repeated queries stop touching the cloud.
type Stats struct {
	// GraphHits/GraphMisses count Graph calls served from / rebuilding the
	// snapshot. RefHits/RefMisses count Refs calls likewise.
	GraphHits, GraphMisses uint64
	RefHits, RefMisses     uint64
	// Coalesced counts calls that joined another caller's in-flight build
	// instead of issuing their own cloud pass.
	Coalesced uint64
}

// graphCall is one in-flight snapshot build being shared.
type graphCall struct {
	stamp Stamp
	done  chan struct{}
	graph *prov.Graph
	err   error
}

// refCall is one in-flight result computation being shared.
type refCall struct {
	done chan struct{}
	refs []prov.Ref
	err  error
}

// Cache holds one store's cached query state. The zero value is not
// usable; construct with New. All methods are safe for concurrent use.
//
// The cached *prov.Graph is shared between callers and must be treated as
// immutable; Graph's read methods are safe for concurrent readers.
type Cache struct {
	stamp StampFunc

	mu         sync.Mutex
	graph      *prov.Graph // nil: no valid snapshot
	graphStamp Stamp
	graphBuild *graphCall // non-nil: a build is in flight

	refStamp Stamp
	refs     map[string][]prov.Ref
	refBuild map[string]*refCall

	stats Stats
}

// New builds a cache over the given stamp source.
func New(stamp StampFunc) *Cache {
	return &Cache{
		stamp:    stamp,
		refs:     make(map[string][]prov.Ref),
		refBuild: make(map[string]*refCall),
	}
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Warm reports whether a graph snapshot for the current stamp is resident —
// a pure peek (no counters move, nothing builds). Query planners use it to
// predict that a scan-backed query will cost zero cloud ops.
func (c *Cache) Warm() bool {
	now := c.stamp()
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.graph != nil && c.graphStamp == now
}

// PeekGraph returns the resident snapshot when it is valid at the current
// stamp, else nil — a pure peek that never builds. The returned graph is
// shared: read-only.
func (c *Cache) PeekGraph() *prov.Graph {
	now := c.stamp()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.graph != nil && c.graphStamp == now {
		return c.graph
	}
	return nil
}

// HasRefs reports whether a memoized result for key is resident at the
// current stamp — a pure peek for query planners.
func (c *Cache) HasRefs(key string) bool {
	now := c.stamp()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.refStamp != now {
		return false
	}
	_, ok := c.refs[key]
	return ok
}

// Graph returns the provenance-graph snapshot for the current stamp,
// building it via build on a miss. Concurrent callers at the same stamp
// share one build (singleflight); a caller whose context ends while
// waiting detaches with its context's error. The returned graph is shared:
// read-only.
func (c *Cache) Graph(ctx context.Context, build func(context.Context) (*prov.Graph, error)) (*prov.Graph, error) {
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		now := c.stamp()
		c.mu.Lock()
		if c.graph != nil && c.graphStamp == now {
			c.stats.GraphHits++
			g := c.graph
			c.mu.Unlock()
			return g, nil
		}
		if fc := c.graphBuild; fc != nil && fc.stamp == now {
			c.stats.Coalesced++
			c.mu.Unlock()
			g, err, retry := waitShared(ctx, fc.done, func() (*prov.Graph, error) { return fc.graph, fc.err })
			if !retry {
				return g, err
			}
			continue // the leader was cancelled; try to become leader
		}
		// Become the leader for this stamp. The stamp was sampled before
		// the scan starts, so a write landing mid-scan (which bumps the
		// generation) makes this snapshot unreachable for later queries.
		fc := &graphCall{stamp: now, done: make(chan struct{})}
		c.graphBuild = fc
		c.stats.GraphMisses++
		c.mu.Unlock()

		g, err := build(ctx)

		// Install only while the built snapshot is still current: if a
		// write (or a newer leader) landed during the build, caching under
		// the old stamp would at best be dead weight and at worst clobber
		// a fresher snapshot installed by a concurrent leader.
		fresh := c.stamp()
		c.mu.Lock()
		fc.graph, fc.err = g, err
		if c.graphBuild == fc {
			c.graphBuild = nil
		}
		if err == nil && fresh == now {
			c.graph, c.graphStamp = g, now
		}
		c.mu.Unlock()
		close(fc.done)
		return g, err
	}
}

// Refs memoizes one indexed query's result under key for the current
// stamp, computing it via compute on a miss. Concurrent callers with the
// same key and stamp share one computation. The returned slice is shared:
// callers must not mutate it (CopyRefs defends the public API surface).
func (c *Cache) Refs(ctx context.Context, key string, compute func(context.Context) ([]prov.Ref, error)) ([]prov.Ref, error) {
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		now := c.stamp()
		c.mu.Lock()
		if c.refStamp != now {
			// A write (or epoch advance) landed: drop the whole memo. The
			// in-flight builds keyed under the old stamp finish but are not
			// recorded.
			c.refStamp = now
			c.refs = make(map[string][]prov.Ref)
			c.refBuild = make(map[string]*refCall)
		}
		if refs, ok := c.refs[key]; ok {
			c.stats.RefHits++
			c.mu.Unlock()
			return refs, nil
		}
		if fc, ok := c.refBuild[key]; ok {
			c.stats.Coalesced++
			c.mu.Unlock()
			refs, err, retry := waitShared(ctx, fc.done, func() ([]prov.Ref, error) { return fc.refs, fc.err })
			if !retry {
				return refs, err
			}
			continue
		}
		fc := &refCall{done: make(chan struct{})}
		c.refBuild[key] = fc
		c.stats.RefMisses++
		c.mu.Unlock()

		refs, err := compute(ctx)

		c.mu.Lock()
		fc.refs, fc.err = refs, err
		// Record only if the memo generation this build was registered
		// under is still current (the map is swapped wholesale on
		// invalidation, so a stale build simply finds itself evicted).
		if c.refBuild[key] == fc {
			delete(c.refBuild, key)
			if err == nil {
				c.refs[key] = refs
			}
		}
		c.mu.Unlock()
		close(fc.done)
		return refs, err
	}
}

// waitShared waits for a shared in-flight call, honoring the waiter's own
// context. retry is true when the leader failed with a cancellation that
// does not apply to this caller, who should attempt the work itself.
func waitShared[T any](ctx context.Context, done <-chan struct{}, result func() (T, error)) (v T, err error, retry bool) {
	select {
	case <-done:
		v, err = result()
		if err == nil {
			return v, nil, false
		}
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			// The leader's context died, not ours: take over.
			var zero T
			return zero, nil, true
		}
		return v, err, false
	case <-ctx.Done():
		var zero T
		return zero, ctx.Err(), false
	}
}

// CopyRefs returns a defensive copy of a shared result slice for handing
// across an API boundary.
func CopyRefs(refs []prov.Ref) []prov.Ref {
	if refs == nil {
		return nil
	}
	return append([]prov.Ref(nil), refs...)
}
