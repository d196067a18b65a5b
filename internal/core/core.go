// Package core defines the paper's primary contribution as Go interfaces:
// a provenance-aware cloud store with three interchangeable architectures
// (S3-only; S3+SimpleDB; S3+SimpleDB+SQS), the properties each must satisfy
// (Table 1), and the query classes of the evaluation (Table 3).
//
// The architecture implementations live in the subpackages s3only, s3sdb and
// s3sdbsqs; sdbprov holds the SimpleDB provenance layer the latter two
// share.
package core

import (
	"context"
	"errors"
	"fmt"
	"iter"

	"passcloud/internal/pass"
	"passcloud/internal/prov"
)

// Errors shared by all architectures.
var (
	// ErrNotFound is returned by Get/Provenance for unknown objects.
	ErrNotFound = errors.New("core: object not found")
	// ErrInconsistent is returned when a read could not produce data with
	// matching provenance within the retry budget — a read-correctness
	// failure surfaced instead of hidden.
	ErrInconsistent = errors.New("core: data and provenance inconsistent")
	// ErrNoProvenance is returned when data exists but its provenance
	// cannot be located — the atomicity-violation shape of §4.2.
	ErrNoProvenance = errors.New("core: object has no provenance")
)

// PartialWriteError reports a batch write that half-landed: the Landed
// events are fully applied — data and provenance both durably visible, or
// provenance alone for transient subjects, which carry no data — while the
// rest of the batch is not. Callers (pass.System) mark the landed events
// persistent and retry only the remainder, so a store-side failure never
// forces re-writing what already landed and never silently loses the rest.
//
// Events whose provenance landed without their data are deliberately NOT
// listed: they are the §4.2 orphan shape and must be repaired by the retry
// (idempotent re-write) or the recovery scan, not declared durable.
type PartialWriteError struct {
	// Landed lists the refs of fully applied events, in batch order.
	Landed []prov.Ref
	// Err is the failure that stopped the batch.
	Err error
}

// Error implements the error interface.
func (e *PartialWriteError) Error() string {
	return fmt.Sprintf("core: partial batch write (%d events landed): %v", len(e.Landed), e.Err)
}

// Unwrap exposes the cause to errors.Is/As.
func (e *PartialWriteError) Unwrap() error { return e.Err }

// LandedRefs reports the fully applied refs; pass.System recovers partial
// batches through this interface method without importing core.
func (e *PartialWriteError) LandedRefs() []prov.Ref { return e.Landed }

// PartialWrite wraps err with the landed refs, collapsing the no-progress
// case to the bare error: a PartialWriteError with nothing landed would make
// callers walk an empty list for no information.
func PartialWrite(landed []prov.Ref, err error) error {
	if err == nil || len(landed) == 0 {
		return err
	}
	return &PartialWriteError{Landed: landed, Err: err}
}

// Object is a retrieved object with its verified provenance.
type Object struct {
	// Ref is the object version the data corresponds to.
	Ref prov.Ref
	// Data is the object content.
	Data []byte
	// Records is the provenance of exactly this version.
	Records []prov.Record
}

// Store is a provenance-aware cloud store. One Store instance corresponds
// to one PASS client; its PutBatch is wired as the pass.System flush
// function. The contract is batch-first: a close hands the store the whole
// causal chain of versions becoming persistent in one call, so every
// architecture can amortize cloud round trips (BatchPutAttributes for
// SimpleDB items, one write-ahead-log transaction per batch, concurrent S3
// PUTs) instead of paying one protocol run per record.
type Store interface {
	// Name identifies the architecture ("s3", "s3+sdb", "s3+sdb+sqs").
	Name() string

	// PutBatch persists a causally ordered batch of PASS flush events:
	// file versions with data, and transient object versions with
	// provenance only. Ancestors precede descendants within the batch.
	// The paper's write protocols run entirely inside PutBatch.
	// Implementations must be idempotent under batch replay: a failed or
	// cancelled batch is retried in full by the caller.
	PutBatch(ctx context.Context, batch []pass.FlushEvent) error

	// Get retrieves the current version of object together with
	// provenance that provably describes the returned bytes (read
	// correctness, to the degree the architecture supports it).
	Get(ctx context.Context, object prov.ObjectID) (*Object, error)

	// Provenance returns the provenance records of one specific object
	// version — the paper's Q.1 unit operation.
	Provenance(ctx context.Context, ref prov.Ref) ([]prov.Record, error)

	// Properties reports the architecture's Table 1 row as designed.
	// The props package verifies these claims empirically.
	Properties() Properties
}

// Put persists a single flush event: the one-element adapter over the
// batch-first contract, for callers (tests, probes) that deal in single
// events.
func Put(ctx context.Context, s Store, ev pass.FlushEvent) error {
	return s.PutBatch(ctx, []pass.FlushEvent{ev})
}

// Flusher adapts a Store to pass.Config.Flush: each coalesced close batch
// becomes one PutBatch call, with the caller's context threaded through.
func Flusher(s Store) pass.FlushFunc {
	return func(ctx context.Context, batch []pass.FlushEvent) error {
		return s.PutBatch(ctx, batch)
	}
}

// Syncer is implemented by stores that buffer client-side state between
// Puts (the S3-only architecture buffers transient provenance waiting for a
// descendant's PUT to ride on). Callers should Sync after the last Put of a
// session so trailing state persists.
type Syncer interface {
	Sync(ctx context.Context) error
}

// SyncStore syncs s if it buffers client-side state.
func SyncStore(ctx context.Context, s Store) error {
	if syncer, ok := s.(Syncer); ok {
		return syncer.Sync(ctx)
	}
	return nil
}

// Properties is one row of Table 1.
type Properties struct {
	// Atomicity: provenance is recorded atomically with the data it
	// describes (both or neither survive a crash).
	Atomicity bool
	// Consistency: retrieved data and provenance provably match.
	Consistency bool
	// CausalOrdering: ancestors' data and provenance are (eventually)
	// recorded whenever a descendant is.
	CausalOrdering bool
	// EfficientQuery: provenance queries do not require scanning every
	// object in the repository.
	EfficientQuery bool
}

// ReadCorrectness is the composite property: atomicity and consistency.
func (p Properties) ReadCorrectness() bool { return p.Atomicity && p.Consistency }

// Querier is the composable query surface every architecture implements:
// one entrypoint taking a prov.Query descriptor, plus a cost planner. The
// evaluation's query classes (Table 3) are the descriptors prov.Q1,
// prov.QOutputsOf and prov.QDescendantsOfOutputs, drained with
// CollectRefs, CollectEntries or CollectRecords; each backend's native plan
// meters exactly the paper's cloud ops for them.
type Querier interface {
	// Query answers one descriptor, streaming entries. A non-nil error
	// ends the sequence (its entry is zero); breaking early is allowed
	// and releases the underlying scan. For paginated descriptors
	// (Limit/Cursor set) the last entry of a truncated page carries the
	// resume cursor.
	Query(ctx context.Context, q prov.Query) iter.Seq2[Entry, error]

	// Explain predicts the cloud cost of Query(q) without running it —
	// the Table 3 cost model extended to arbitrary descriptors. The
	// prediction uses client-side planner statistics: exact for the ops
	// this client performed itself, an estimate when other clients write
	// to the shared region.
	Explain(q prov.Query) QueryPlan
}

// Entry is one object version's provenance, as yielded by streaming
// queries.
type Entry struct {
	Ref     prov.Ref
	Records []prov.Record
	// Cursor is set only on the last entry of a truncated page of a
	// paginated query: pass it back via prov.Query.Cursor to resume.
	Cursor string
}

// CollectRecords drains a query stream into one record set per ref,
// merging the pieces of a subject a live scan yields more than once. The
// record slices are the map's own: mutating them never touches a shared
// snapshot.
func CollectRecords(seq iter.Seq2[Entry, error]) (map[prov.Ref][]prov.Record, error) {
	out := make(map[prov.Ref][]prov.Record)
	for entry, err := range seq {
		if err != nil {
			return nil, err
		}
		out[entry.Ref] = append(out[entry.Ref], entry.Records...)
	}
	return out, nil
}

// CollectRefs drains a query stream into its references.
func CollectRefs(seq iter.Seq2[Entry, error]) ([]prov.Ref, error) {
	var out []prov.Ref
	for entry, err := range seq {
		if err != nil {
			return nil, err
		}
		out = append(out, entry.Ref)
	}
	return out, nil
}

// CollectEntries drains a query stream into a slice.
func CollectEntries(seq iter.Seq2[Entry, error]) ([]Entry, error) {
	var out []Entry
	for entry, err := range seq {
		if err != nil {
			return nil, err
		}
		out = append(out, entry)
	}
	return out, nil
}

// GraphQuerier is implemented by stores that can hand out the repository's
// provenance graph directly — from their query-cache snapshot when warm,
// at zero cloud ops. The returned graph is shared and must be treated as
// read-only. Callers that need a traversal (ancestry walks) should prefer
// this over re-materializing a graph from a streamed scan.
type GraphQuerier interface {
	ProvenanceGraph(ctx context.Context) (*prov.Graph, error)
}

// RefPlanner is implemented by stores whose Explain simulation can also
// predict the reference set a query's native plan would return, without
// cloud traffic. The shard router uses it to drive distributed multi-hop
// traversals in plan space: each BFS round's frontier is predicted per
// shard and merged exactly the way the live fan-out merges entries, which
// is what keeps Router.Explain's composed estimate equal to the metered
// run.
//
// ok reports shape support, not answer accuracy: it is false when the
// descriptor has no native indexed plan (shapes that fall back to a full
// graph materialization), and true otherwise even if foreign writers have
// made the client-side catalog stale — the accompanying QueryPlan's Exact
// flag carries that caveat. Beyond the natively planned shapes,
// implementations must support one virtual descriptor the router never
// executes directly: {Refs, TraverseAncestors, Depth: 1, IncludeSeeds:
// true, ProjectRefs, no other filters}, answering the raw union of the
// pinned refs' direct inputs (the plan-space mirror of the router's
// inputs-of-refs fan-out round).
type RefPlanner interface {
	PlanQueryRefs(q prov.Query) ([]prov.Ref, bool)
}

// ProvenanceGraph returns q's repository graph, preferring the store's own
// (possibly cached) graph and falling back to materializing the streamed
// scan. The result is shared: read-only.
func ProvenanceGraph(ctx context.Context, q Querier) (*prov.Graph, error) {
	if gq, ok := q.(GraphQuerier); ok {
		return gq.ProvenanceGraph(ctx)
	}
	g := prov.NewGraph()
	for entry, err := range q.Query(ctx, prov.Q1()) {
		if err != nil {
			return nil, err
		}
		g.AddAll(entry.Records)
	}
	return g, nil
}
