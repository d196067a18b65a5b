// Arc migration: the store-side contract behind elastic resharding.
//
// A migration moves an *arc* — the set of objects a consistent-hash ring
// reassignment strips from one shard and hands to another — between two
// member stores of the same architecture. The router (internal/core/shard)
// orchestrates copy → verify → flip; the stores contribute the three
// primitives below, each implemented natively so the copy preserves the
// architecture's own encoding, consistency records and integrity
// commitments instead of replaying writes through the public path (which
// could not reconstruct historical versions or per-version nonces). The
// pieces both designs share — export accounting, the ledger slots a
// removal drops, and prefix deletion — live here; each store keeps only
// its protocol.
package core

import (
	"context"

	"passcloud/internal/cloud/retry"
	"passcloud/internal/cloud/s3"
	"passcloud/internal/core/integrity"
	"passcloud/internal/prov"
)

// ArcExport is one shard's captured copy of a migrating arc. Subjects
// lists every provenance subject whose records travel with the arc —
// including transient riders whose own hash may place them elsewhere;
// they home with their carrier, and the router's double-read window is
// keyed off this exact set. Payload is architecture-specific; ImportArc
// rejects a payload minted by a different architecture.
type ArcExport struct {
	// Subjects are the provenance subjects the export carries.
	Subjects []prov.Ref
	// Objects counts the storage objects (carriers, items, data blobs)
	// captured.
	Objects int
	// Bytes is the payload volume: data bodies plus record values.
	Bytes int64
	// Payload holds the architecture-specific captured state.
	Payload any

	listed map[prov.Ref]bool
}

// Add accounts one captured storage object: it counts the object, adds its
// body and every string record value to Bytes, and lists each subject its
// records carry, then carrier itself (part of the arc even when all its
// records rode elsewhere), unless already listed.
func (e *ArcExport) Add(carrier prov.Ref, body []byte, records []prov.Record) {
	e.Objects++
	e.Bytes += int64(len(body))
	for _, rec := range records {
		if rec.Value.Kind == prov.KindString {
			e.Bytes += int64(len(rec.Value.Str))
		}
		e.list(rec.Subject)
	}
	e.list(carrier)
}

func (e *ArcExport) list(subject prov.Ref) {
	if e.listed == nil {
		e.listed = make(map[prov.Ref]bool)
	}
	if !e.listed[subject] {
		e.listed[subject] = true
		e.Subjects = append(e.Subjects, subject)
	}
}

// Migrator is the per-store migration surface. All three methods are
// idempotent with respect to crash recovery: re-importing an arc
// overwrites the same keys with the same contents, and re-removing an
// already-removed arc removes nothing.
type Migrator interface {
	// ExportArc captures every object whose ID matches, with full
	// provenance (own records and transient riders) in decoded form plus
	// whatever raw state the architecture needs to reproduce the objects
	// bit-identically (bodies, version metadata, consistency nonces).
	ExportArc(ctx context.Context, match func(prov.ObjectID) bool) (*ArcExport, error)
	// ImportArc writes a captured arc into this store natively: records
	// re-encode under this store's own pipeline and the store's OWN
	// integrity ledger commits the imported leaves (checkpoints are never
	// copied across stores — each shard stays single-writer).
	ImportArc(ctx context.Context, exp *ArcExport) error
	// RemoveArc deletes every matching object (and its provenance,
	// overflow/spill objects and ledger slots), then persists a fresh
	// checkpoint so the shard's commitment reflects the removal. It takes
	// the predicate rather than an export so crash recovery can re-derive
	// the removal set without in-memory state. Returns the number of
	// storage objects removed.
	RemoveArc(ctx context.Context, match func(prov.ObjectID) bool) (int, error)
}

// ArcSlots lists the ledger slots an arc removal drops: every slot of l
// whose object, as the architecture decodes it from the slot name, matches
// the arc. The set covers the objects a removal's listing surfaces and
// phantom slots whose object is already gone (tampered away) alike; a
// slot left behind would make the next audit flag a root mismatch against
// records that no longer exist. nil when integrity is off.
func ArcSlots(l *integrity.Ledger, object func(slot string) (prov.ObjectID, bool), match func(prov.ObjectID) bool) []string {
	if l == nil {
		return nil
	}
	var out []string
	for _, slot := range l.Slots() {
		if o, ok := object(slot); ok && match(o) {
			out = append(out, slot)
		}
	}
	return out
}

// DeletePrefix removes every S3 object under prefix, paging the listing
// under listOp and retrying each deletion under deleteOp.
func DeletePrefix(ctx context.Context, r *retry.Retrier, listOp, deleteOp string, svc *s3.Service, bucket, prefix string) error {
	for objects, err := range ListPages(ctx, r, listOp, svc, bucket, prefix) {
		if err != nil {
			return err
		}
		for _, info := range objects {
			if err := r.Do(ctx, deleteOp, func() error { return svc.Delete(bucket, info.Key) }); err != nil {
				return err
			}
		}
	}
	return nil
}
