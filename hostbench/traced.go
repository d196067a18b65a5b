package main

import (
	"context"
	"fmt"
	"iter"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"passcloud"
	"passcloud/internal/cloud"
	"passcloud/internal/cloud/billing"
	"passcloud/internal/cloud/retry"
	"passcloud/internal/core"
	"passcloud/internal/core/integrity"
	"passcloud/internal/core/qcache"
	"passcloud/internal/core/s3only"
	"passcloud/internal/core/s3sdb"
	"passcloud/internal/core/s3sdbsqs"
	"passcloud/internal/core/sdbprov"
	"passcloud/internal/core/shard"
	"passcloud/internal/pass"
	"passcloud/internal/prov"
	"passcloud/internal/replay"
	"passcloud/internal/workload"
)

// This file composes the stack the way passcloud.New does — a pass.System
// whose flush calls the shard router or the store, member stores behind
// the router, the WAL commit daemon, auditors and the replay pipeline —
// and records a span around every call into a layer. The composition
// must stay op-for-op identical to the public client: the traced run
// checks it against the untraced one.

// span is one timed call into a layer. Spans of one public call share
// its root.
type span struct {
	layer, op  string
	parent     int32 // -1 for the root (the public call)
	root       int32
	start, end time.Duration // since the tracer's base
	n          int64         // work units: events, subjects, transactions
	// allocs counts heap objects allocated inside the span when
	// countAllocs is set (store puts only).
	allocs      uint64
	countAllocs bool
}

type spanKey struct{}

type tracer struct {
	base  time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// heapObjects reads the cumulative heap allocation count.
func heapObjects() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// begin opens a span under ctx's current span (or as a root).
func (t *tracer) begin(ctx context.Context, layer, op string, countAllocs bool) (context.Context, int32) {
	parent, hasParent := ctx.Value(spanKey{}).(int32)
	var a uint64
	if countAllocs {
		a = heapObjects()
	}
	t.mu.Lock()
	id := int32(len(t.spans))
	s := span{layer: layer, op: op, parent: -1, root: id, start: time.Since(t.base), allocs: a, countAllocs: countAllocs}
	if hasParent {
		s.parent, s.root = parent, t.spans[parent].root
	}
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return context.WithValue(ctx, spanKey{}, id), id
}

// end closes a span, recording its work units.
func (t *tracer) end(id int32, n int64) {
	end := time.Since(t.base)
	t.mu.Lock()
	countAllocs := t.spans[id].countAllocs
	t.mu.Unlock()
	var a uint64
	if countAllocs {
		a = heapObjects()
	}
	t.mu.Lock()
	sp := &t.spans[id]
	sp.end, sp.n = end, n
	if countAllocs {
		sp.allocs = a - sp.allocs
	}
	t.mu.Unlock()
}

// do runs f inside a span.
func (t *tracer) do(ctx context.Context, layer, op string, f func(context.Context) error) error {
	ctx, id := t.begin(ctx, layer, op, false)
	err := f(ctx)
	t.end(id, 0)
	return err
}

// seq wraps an iterator so its iteration runs inside a span. Time the
// consumer spends between entries counts inside the span too.
func (t *tracer) seq(ctx context.Context, layer, op string, inner func(context.Context) iter.Seq2[core.Entry, error]) iter.Seq2[core.Entry, error] {
	return func(yield func(core.Entry, error) bool) {
		ctx, id := t.begin(ctx, layer, op, false)
		defer t.end(id, 0)
		for e, err := range inner(ctx) {
			if !yield(e, err) {
				return
			}
		}
	}
}

// member wraps one architecture store, forwarding every optional
// interface the client and router use: Syncer, Auditor, Stamped, cache
// and retry statistics. SimpleDB-backed members are wrapped in
// plannedMember, which adds RefPlanner, so the router picks the same
// query strategies as it does unwrapped.
type member struct {
	tr    *tracer
	layer string // s3only, s3sdb, s3sdbsqs
	st    shard.Store
	sdb   *sdbprov.Layer // nil for s3only
	putOp string
}

type plannedMember struct{ *member }

func (m plannedMember) PlanQueryRefs(q prov.Query) ([]prov.Ref, bool) {
	return m.st.(core.RefPlanner).PlanQueryRefs(q)
}

func (m *member) Name() string                        { return m.st.Name() }
func (m *member) Properties() core.Properties         { return m.st.Properties() }
func (m *member) StampToken() string                  { return m.st.StampToken() }
func (m *member) Explain(q prov.Query) core.QueryPlan { return m.st.Explain(q) }
func (m *member) RetryStats() retry.Snapshot {
	return m.st.(interface{ RetryStats() retry.Snapshot }).RetryStats()
}

// readLayer names the layer that serves reads and queries: the sdbprov
// query layer on the SimpleDB architectures, the store itself on S3.
func (m *member) readLayer() string {
	if m.sdb != nil {
		return "sdbprov"
	}
	return m.layer
}

func (m *member) Sync(ctx context.Context) error {
	return m.tr.do(ctx, m.layer, "sync", func(ctx context.Context) error { return core.SyncStore(ctx, m.st) })
}
func (m *member) Audit(ctx context.Context) (a *integrity.Audit, err error) {
	err = m.tr.do(ctx, m.layer, "audit", func(ctx context.Context) error {
		a, err = m.st.(integrity.Auditor).Audit(ctx)
		return err
	})
	return a, err
}

func (m *member) CacheStats() qcache.Stats {
	if m.sdb != nil {
		return m.sdb.CacheStats()
	}
	return m.st.(*s3only.Store).CacheStats()
}

func (m *member) PutBatch(ctx context.Context, batch []pass.FlushEvent) error {
	ctx, id := m.tr.begin(ctx, m.layer, m.putOp, true)
	err := m.st.PutBatch(ctx, batch)
	m.tr.end(id, int64(len(batch)))
	return err
}

// Get times the verified read; on the SimpleDB architectures the store's
// Get is the sdbprov verified-read protocol, called here directly.
func (m *member) Get(ctx context.Context, object prov.ObjectID) (o *core.Object, err error) {
	err = m.tr.do(ctx, m.readLayer(), "get", func(ctx context.Context) error {
		if m.sdb != nil {
			o, err = m.sdb.VerifiedGet(ctx, object)
		} else {
			o, err = m.st.Get(ctx, object)
		}
		return err
	})
	return o, err
}

func (m *member) Provenance(ctx context.Context, ref prov.Ref) (rs []prov.Record, err error) {
	err = m.tr.do(ctx, m.readLayer(), "provenance", func(ctx context.Context) error {
		rs, err = m.st.Provenance(ctx, ref)
		return err
	})
	return rs, err
}

// Query times the native plan; on the SimpleDB architectures the store's
// Query is the sdbprov query layer, called here directly.
func (m *member) Query(ctx context.Context, q prov.Query) iter.Seq2[core.Entry, error] {
	return m.tr.seq(ctx, m.readLayer(), "query", func(ctx context.Context) iter.Seq2[core.Entry, error] {
		if m.sdb != nil {
			return m.sdb.Query(ctx, q)
		}
		return m.st.Query(ctx, q)
	})
}

// routerStore puts the shard router behind spans; it is what pass
// flushes into and what queries, reads and replay use when sharded.
type routerStore struct {
	tr    *tracer
	r     *shard.Router
	putOp string
}

func (s routerStore) Name() string                        { return s.r.Name() }
func (s routerStore) Properties() core.Properties         { return s.r.Properties() }
func (s routerStore) Explain(q prov.Query) core.QueryPlan { return s.r.Explain(q) }
func (s routerStore) Sync(ctx context.Context) error {
	return s.tr.do(ctx, "shard", "sync", s.r.Sync)
}

func (s routerStore) PutBatch(ctx context.Context, batch []pass.FlushEvent) error {
	ctx, id := s.tr.begin(ctx, "shard", s.putOp, false)
	err := s.r.PutBatch(ctx, batch)
	s.tr.end(id, int64(len(batch)))
	return err
}

func (s routerStore) Get(ctx context.Context, object prov.ObjectID) (o *core.Object, err error) {
	err = s.tr.do(ctx, "shard", "get", func(ctx context.Context) error {
		o, err = s.r.Get(ctx, object)
		return err
	})
	return o, err
}

func (s routerStore) Provenance(ctx context.Context, ref prov.Ref) (rs []prov.Record, err error) {
	err = s.tr.do(ctx, "shard", "provenance", func(ctx context.Context) error {
		rs, err = s.r.Provenance(ctx, ref)
		return err
	})
	return rs, err
}

func (s routerStore) Query(ctx context.Context, q prov.Query) iter.Seq2[core.Entry, error] {
	return s.tr.seq(ctx, "shard", "query", func(ctx context.Context) iter.Seq2[core.Entry, error] {
		return s.r.Query(ctx, q)
	})
}

// traceStore is what the client layer calls: the router or, unsharded,
// the single member.
type traceStore interface {
	core.Store
	core.Querier
	core.Syncer
}

// stackConfig selects one composition.
type stackConfig struct {
	arch             passcloud.Architecture
	seed             int64
	shards           int
	tenant           string
	disableIntegrity bool
	sandbox          bool
}

// tracedTarget is a composed client stack with spans at every layer
// boundary.
type tracedTarget struct {
	tr      *tracer
	cfg     stackConfig
	single  *cloud.Cloud
	multi   *cloud.Multi
	members []*member
	router  *shard.Router
	store   traceStore
	daemons []*s3sdbsqs.CommitDaemon
	sys     *pass.System
	procs   []*pass.Process
	// flushes, flushEvents and userBytes count what pass hands the store.
	flushes, flushEvents, userBytes int64
}

// newTracedTarget mirrors passcloud.New: one region and store when
// unsharded with no tenant, otherwise a multi-namespace region with one
// store per "<tenant>/shard<i>" namespace behind a router.
func newTracedTarget(tr *tracer, cfg stackConfig) (*tracedTarget, error) {
	t := &tracedTarget{tr: tr, cfg: cfg}
	ccfg := cloud.Config{Seed: cfg.seed}
	if cfg.shards <= 1 && cfg.tenant == "" {
		t.single = cloud.New(ccfg)
		if err := t.addMember(t.single, ""); err != nil {
			return nil, err
		}
	} else {
		t.multi = cloud.NewMulti(ccfg)
		tenant := cfg.tenant
		if tenant == "" {
			tenant = "default"
		}
		for i := 0; i < max(cfg.shards, 1); i++ {
			cl := t.multi.Namespace(fmt.Sprintf("%s/shard%d", tenant, i))
			if err := t.addMember(cl, fmt.Sprintf("client0-s%d", i)); err != nil {
				return nil, err
			}
		}
	}
	if len(t.members) == 1 {
		t.store = t.shardStore(0)
	} else {
		stores := make([]shard.Store, len(t.members))
		for i := range t.members {
			stores[i] = t.shardStore(i)
		}
		r, err := shard.New(shard.Config{Shards: stores})
		if err != nil {
			return nil, err
		}
		t.router = r
		t.store = routerStore{tr: tr, r: r, putOp: "put"}
		if cfg.sandbox {
			t.store = routerStore{tr: tr, r: r, putOp: "sandbox_put"}
		}
	}
	t.sys = pass.NewSystem(pass.Config{
		Flush:        t.flush,
		DisableChain: cfg.disableIntegrity,
	})
	return t, nil
}

func (t *tracedTarget) shardStore(i int) interface {
	shard.Store
	core.Syncer
} {
	if m := t.members[i]; m.sdb != nil {
		return plannedMember{m}
	}
	return t.members[i]
}

// addMember builds one architecture store the way passcloud's
// newStoreOn does.
func (t *tracedTarget) addMember(cl *cloud.Cloud, clientID string) error {
	writer := clientID
	if writer == "" {
		writer = "client0"
	}
	m := &member{tr: t.tr, putOp: "put"}
	if t.cfg.sandbox {
		m.putOp = "sandbox_put"
	}
	switch t.cfg.arch {
	case passcloud.S3Only:
		st, err := s3only.New(s3only.Config{Cloud: cl, Writer: writer, DisableIntegrity: t.cfg.disableIntegrity})
		if err != nil {
			return err
		}
		m.layer, m.st = "s3only", st
	case passcloud.S3SimpleDB:
		st, err := s3sdb.New(s3sdb.Config{Cloud: cl, Writer: writer, DisableIntegrity: t.cfg.disableIntegrity})
		if err != nil {
			return err
		}
		m.layer, m.st, m.sdb = "s3sdb", st, st.Layer()
	case passcloud.S3SimpleDBSQS:
		st, err := s3sdbsqs.New(s3sdbsqs.Config{Cloud: cl, ClientID: clientID, DisableIntegrity: t.cfg.disableIntegrity})
		if err != nil {
			return err
		}
		m.layer, m.st, m.sdb = "s3sdbsqs", st, st.Layer()
		t.daemons = append(t.daemons, s3sdbsqs.NewCommitDaemon(st, nil))
	default:
		return fmt.Errorf("unknown architecture %v", t.cfg.arch)
	}
	t.members = append(t.members, m)
	return nil
}

// flush is the pass.System flush callback: one batch per close.
func (t *tracedTarget) flush(ctx context.Context, batch []pass.FlushEvent) error {
	t.flushes++
	t.flushEvents += int64(len(batch))
	for _, ev := range batch {
		t.userBytes += int64(len(ev.Data))
	}
	return t.store.PutBatch(ctx, batch)
}

func (t *tracedTarget) settle() {
	if t.multi != nil {
		t.multi.Settle()
		return
	}
	t.single.Settle()
}

func (t *tracedTarget) ingest(ctx context.Context, path string, data []byte) error {
	return t.tr.do(ctx, "pass", "close", func(ctx context.Context) error { return t.sys.Ingest(ctx, path, data) })
}

func (t *tracedTarget) exec(parent int32, s *execSpec) {
	_ = t.tr.do(context.Background(), "pass", "exec", func(context.Context) error {
		var pp *pass.Process
		if parent >= 0 {
			pp = t.procs[parent]
		}
		t.procs = append(t.procs, t.sys.Exec(pp, pass.ExecSpec{Name: s.name, Argv: s.argv, Env: s.env}))
		return nil
	})
}

func (t *tracedTarget) read(p int32, path string) error {
	return t.tr.do(context.Background(), "pass", "read", func(context.Context) error { return t.sys.Read(t.procs[p], path) })
}

func (t *tracedTarget) pipe(from, to int32) error {
	return t.tr.do(context.Background(), "pass", "pipe", func(context.Context) error { return t.sys.Pipe(t.procs[from], t.procs[to]) })
}

func (t *tracedTarget) derive(p int32, path string) error {
	return t.tr.do(context.Background(), "pass", "derive", func(context.Context) error {
		data, err := workload.DeriveOutput(t.sys, t.procs[p], path)
		if err != nil {
			return err
		}
		return t.sys.Write(t.procs[p], path, data, pass.Truncate)
	})
}

func (t *tracedTarget) exit(p int32) {
	_ = t.tr.do(context.Background(), "pass", "exit", func(context.Context) error { t.sys.Exit(t.procs[p]); return nil })
}

func (t *tracedTarget) close(ctx context.Context, p int32, path string) error {
	return t.tr.do(ctx, "pass", "close", func(ctx context.Context) error { return t.sys.Close(ctx, t.procs[p], path) })
}

// syncRounds is passcloud's bound on the commit-daemon drain.
const syncRounds = 50

// sync mirrors Client.Sync: flush pending versions, sync buffering
// stores, then drain the WAL commit daemons to quiescence.
func (t *tracedTarget) sync(ctx context.Context) error {
	return t.tr.do(ctx, "api", "sync", func(ctx context.Context) error {
		if err := t.tr.do(ctx, "pass", "sync", t.sys.Sync); err != nil {
			return err
		}
		if err := t.store.Sync(ctx); err != nil {
			return err
		}
		if len(t.daemons) == 0 {
			return nil
		}
		for i := 0; i < syncRounds; i++ {
			committed, pending := 0, 0
			for _, d := range t.daemons {
				cctx, id := t.tr.begin(ctx, "s3sdbsqs", "commit", false)
				n, err := d.RunOnce(cctx, true)
				t.tr.end(id, int64(n))
				if err != nil {
					return err
				}
				committed += n
				pending += d.PendingTransactions()
			}
			if committed == 0 && pending == 0 {
				return nil
			}
			t.settle()
		}
		return passcloud.ErrSyncTimeout
	})
}

func (t *tracedTarget) get(ctx context.Context, path string) (out *passcloud.Object, err error) {
	err = t.tr.do(ctx, "api", "get", func(ctx context.Context) error {
		obj, err := t.store.Get(ctx, prov.ObjectID(path))
		if err != nil {
			return err
		}
		out = &passcloud.Object{Ref: publicRef(obj.Ref), Data: obj.Data, Records: publicRecords(obj.Records)}
		return nil
	})
	return out, err
}

func (t *tracedTarget) search(ctx context.Context, spec passcloud.QuerySpec) (out *passcloud.SearchResult, err error) {
	err = t.tr.do(ctx, "api", "search", func(ctx context.Context) error {
		res := &passcloud.SearchResult{}
		for e, err := range t.store.Query(ctx, compile(spec)) {
			if err != nil {
				return err
			}
			res.Entries = append(res.Entries, passcloud.ProvenanceEntry{Ref: publicRef(e.Ref), Records: publicRecords(e.Records)})
			if e.Cursor != "" {
				res.Cursor = e.Cursor
			}
		}
		out = res
		return nil
	})
	return out, err
}

// verify mirrors Client.VerifyLineage: audit the object's home shard,
// then verify its versions' chains.
func (t *tracedTarget) verify(ctx context.Context, path string) (out *passcloud.LineageReport, err error) {
	err = t.tr.do(ctx, "api", "verify", func(ctx context.Context) error {
		object := prov.ObjectID(path)
		idx := 0
		if t.router != nil {
			idx = t.router.ShardFor(object)
		}
		a, err := t.members[idx].Audit(ctx)
		if err != nil {
			return err
		}
		versions := 0
		for ref := range a.Entries {
			if ref.Object == object {
				versions++
			}
		}
		_, id := t.tr.begin(ctx, "integrity", "verify", false)
		ds, detached := integrity.VerifyObject(object, a.Entries, a.RetainsHistory, idx)
		t.tr.end(id, int64(versions))
		if versions == 0 {
			return fmt.Errorf("%w: %s", passcloud.ErrNotFound, path)
		}
		out = &passcloud.LineageReport{Object: path, Shard: idx, Versions: versions, Detached: detached, Divergences: publicDivergences(ds)}
		return nil
	})
	return out, err
}

// replay mirrors Client.Replay: re-execute the object's lineage on a
// fresh sandbox stack of the same shape, then drain the sandbox.
func (t *tracedTarget) replay(ctx context.Context, path string) (out *passcloud.ReplayReport, err error) {
	err = t.tr.do(ctx, "api", "replay", func(ctx context.Context) error {
		obj, err := t.store.Get(ctx, prov.ObjectID(path))
		if err != nil {
			return err
		}
		sandbox, err := newTracedTarget(t.tr, stackConfig{arch: t.cfg.arch, seed: t.cfg.seed, shards: t.cfg.shards, tenant: "replay", sandbox: true})
		if err != nil {
			return err
		}
		var rep *replay.Report
		err = t.tr.do(ctx, "replay", "replay", func(ctx context.Context) error {
			rep, err = replay.Replay(ctx, replay.Config{
				Source: t.store, Fetch: t.store.Get, Target: sandbox.store,
				Runner: workload.Tools{}, Kernel: pass.DefaultKernel,
			}, obj.Ref)
			return err
		})
		if err != nil {
			return err
		}
		if err := sandbox.sync(ctx); err != nil {
			return fmt.Errorf("replay sandbox sync: %w", err)
		}
		out = &passcloud.ReplayReport{Subjects: rep.Subjects, Sources: rep.Sources, Processes: rep.Processes, Compared: rep.Compared, Usage: sandbox.usage()}
		for _, d := range rep.Divergences {
			out.Divergences = append(out.Divergences, passcloud.ReplayDivergence{Kind: d.Kind.String(), Subject: publicRef(d.Subject), Detail: d.Detail})
		}
		return nil
	})
	return out, err
}

func (t *tracedTarget) verifyAll(ctx context.Context) (*passcloud.VerifyReport, error) {
	auds := make([]integrity.Auditor, len(t.members))
	for i, m := range t.members {
		auds[i] = m
	}
	res, err := integrity.VerifyStores(ctx, auds)
	if err != nil {
		return nil, err
	}
	rep := &passcloud.VerifyReport{NamespaceRoot: res.NamespaceRoot}
	for _, sr := range res.Shards {
		rep.Shards = append(rep.Shards, passcloud.ShardVerification{Shard: sr.Shard, Subjects: sr.Subjects, Records: sr.Records, Divergences: publicDivergences(sr.Divergences)})
	}
	return rep, nil
}

// rawUsage is the region's meter: every namespace when multi-namespace.
func (t *tracedTarget) rawUsage() billing.Usage {
	if t.multi != nil {
		return t.multi.Combined()
	}
	return t.single.Usage()
}

func (t *tracedTarget) usage() passcloud.UsageSummary { return usageSummary(t.rawUsage()) }

// stored is the region's resident bytes over all services.
func (t *tracedTarget) stored() int64 {
	u := t.usage()
	return u.S3Stored + u.SimpleDBStored + u.SQSStored
}

// cacheStats and retryStats sum the members' counters.
func (t *tracedTarget) cacheStats() qcache.Stats {
	var s qcache.Stats
	for _, m := range t.members {
		c := m.CacheStats()
		s.GraphHits += c.GraphHits
		s.GraphMisses += c.GraphMisses
		s.RefHits += c.RefHits
		s.RefMisses += c.RefMisses
		s.Coalesced += c.Coalesced
	}
	return s
}

func (t *tracedTarget) retryStats() retry.OpStats {
	var s retry.OpStats
	for _, m := range t.members {
		o := m.RetryStats().Total
		s.Attempts += o.Attempts
		s.Retries += o.Retries
	}
	return s
}

// conversions the public API performs --------------------------------------

// usageSummary prices a meter snapshot as passcloud's usage summary does.
func usageSummary(u billing.Usage) passcloud.UsageSummary {
	return passcloud.UsageSummary{
		S3Ops: u.Ops(billing.S3), SimpleDBOps: u.Ops(billing.SimpleDB), SQSOps: u.Ops(billing.SQS),
		S3Stored: u.Storage(billing.S3), SimpleDBStored: u.Storage(billing.SimpleDB), SQSStored: u.Storage(billing.SQS),
		TransferredIn:  u.BytesIn(billing.S3) + u.BytesIn(billing.SimpleDB) + u.BytesIn(billing.SQS),
		TransferredOut: u.BytesOut(billing.S3) + u.BytesOut(billing.SimpleDB) + u.BytesOut(billing.SQS),
		USD:            billing.Jan2009.Price(u).Total(),
	}
}

func publicRef(r prov.Ref) passcloud.Ref {
	return passcloud.Ref{Object: string(r.Object), Version: int(r.Version)}
}

func publicRecords(rs []prov.Record) []passcloud.Record {
	out := make([]passcloud.Record, len(rs))
	for i, r := range rs {
		out[i] = passcloud.Record{Subject: publicRef(r.Subject), Attr: r.Attr, Value: r.Value.String()}
		if r.Attr == prov.AttrInput && r.Value.Kind == prov.KindRef {
			out[i].IsInput, out[i].InputRef = true, publicRef(r.Value.Ref)
		}
	}
	return out
}

func publicDivergences(ds []integrity.Divergence) []passcloud.Divergence {
	out := make([]passcloud.Divergence, len(ds))
	for i, d := range ds {
		out[i] = passcloud.Divergence{Kind: d.Kind.String(), Shard: d.Shard, Subject: publicRef(d.Subject), Detail: d.Detail}
	}
	return out
}

// compile builds the descriptor passcloud's QuerySpec compiles to.
func compile(s passcloud.QuerySpec) prov.Query {
	q := prov.Query{
		Tool: s.Tool, Type: s.Type, RefPrefix: s.RefPrefix,
		Direction: prov.Direction(s.Direction), Depth: s.Depth, IncludeSeeds: s.IncludeSeeds,
		Limit: s.Limit, Cursor: s.Cursor,
	}
	if s.RefsOnly {
		q.Projection = prov.ProjectRefs
	}
	for _, r := range s.Refs {
		q.Refs = append(q.Refs, prov.Ref{Object: prov.ObjectID(r.Object), Version: prov.Version(r.Version)})
	}
	keys := make([]string, 0, len(s.Attrs))
	for k := range s.Attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		q.Attrs = append(q.Attrs, prov.AttrFilter{Attr: k, Value: s.Attrs[k]})
	}
	return q
}
