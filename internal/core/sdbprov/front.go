package sdbprov

import (
	"context"
	"fmt"
	"iter"

	"passcloud/internal/cloud/retry"
	"passcloud/internal/core"
	"passcloud/internal/core/integrity"
	"passcloud/internal/prov"
)

// Front is the half of a SimpleDB-backed store that the layer answers on
// its own: reads, queries, planning, audit and arc migration. The s3sdb
// and s3sdbsqs stores embed one and add only their write protocols. It is
// a separate struct rather than an embedded *Layer so that the stores keep
// a Layer method.
//
// Arc migration bypasses the architectures' write protocols. Export
// assumes the S3+SimpleDB+SQS write-ahead log is drained first (the
// reshard controller syncs and pumps the commit daemon before exporting):
// logged-but-uncommitted transactions are invisible to the layer scan and
// would be left behind. Import writes the layer directly, exactly like the
// commit daemon's apply path: the records were already made durable by the
// source shard, so re-logging them would only add a redundant failure
// window.
type Front struct {
	layer *Layer
	arch  string
}

// NewFront binds a store front to layer; arch names the architecture.
func NewFront(arch string, layer *Layer) Front { return Front{layer: layer, arch: arch} }

// Name implements core.Store.
func (f Front) Name() string { return f.arch }

// Layer exposes the SimpleDB provenance layer.
func (f Front) Layer() *Layer { return f.layer }

// Get implements core.Store via the verified-read protocol: data and
// provenance are re-read until MD5(data‖nonce) matches the consistency
// record.
func (f Front) Get(ctx context.Context, object prov.ObjectID) (*core.Object, error) {
	return f.layer.VerifiedGet(ctx, object)
}

// Provenance implements core.Store: one GetAttributes (plus pointer GETs).
func (f Front) Provenance(ctx context.Context, ref prov.Ref) ([]prov.Record, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	records, _, ok, err := f.layer.FetchItem(ctx, ref)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("%w: %s", core.ErrNotFound, ref)
	}
	return records, nil
}

// Query implements core.Querier: the layer's native plans — predicate
// pushdown, two-phase tool queries, prefix traversals, snapshot fallback —
// answer every descriptor.
func (f Front) Query(ctx context.Context, q prov.Query) iter.Seq2[core.Entry, error] {
	return f.layer.Query(ctx, q)
}

// Explain implements core.Querier, reporting the store's architecture.
func (f Front) Explain(q prov.Query) core.QueryPlan {
	p := f.layer.Explain(q)
	p.Arch = f.arch
	return p
}

// PlanQueryRefs implements core.RefPlanner: the layer's plan simulation
// predicts the reference set q's native plan would return.
func (f Front) PlanQueryRefs(q prov.Query) ([]prov.Ref, bool) { return f.layer.PlanQueryRefs(q) }

// ProvenanceGraph implements core.GraphQuerier.
func (f Front) ProvenanceGraph(ctx context.Context) (*prov.Graph, error) {
	return f.layer.ProvenanceGraph(ctx)
}

// Audit implements integrity.Auditor. Only committed state is auditable:
// WAL transactions the commit daemon has not drained yet are invisible,
// exactly like they are to queries.
func (f Front) Audit(ctx context.Context) (*integrity.Audit, error) { return f.layer.Audit(ctx) }

// StampToken implements core.Stamped via the layer's stamp.
func (f Front) StampToken() string { return f.layer.StampToken() }

// RetryStats snapshots the retry counters the store shares with its layer
// (and, on S3+SimpleDB+SQS, the commit daemon and the cleaner).
func (f Front) RetryStats() retry.Snapshot { return f.layer.RetryStats() }

// ExportArc implements core.Migrator via the layer.
func (f Front) ExportArc(ctx context.Context, match func(prov.ObjectID) bool) (*core.ArcExport, error) {
	return f.layer.ExportArc(ctx, match)
}

// ImportArc implements core.Migrator via the layer.
func (f Front) ImportArc(ctx context.Context, exp *core.ArcExport) error {
	return f.layer.ImportArc(ctx, exp)
}

// RemoveArc implements core.Migrator via the layer.
func (f Front) RemoveArc(ctx context.Context, match func(prov.ObjectID) bool) (int, error) {
	return f.layer.RemoveArc(ctx, match)
}
