// Arc migration for the S3-only architecture (core.Migrator). Carriers
// move whole: a matching data object exports its body plus every record
// its metadata carries — own records and transient riders alike, since
// this architecture stores riders inside the carrier PUT and they must
// keep homing with it. Import re-encodes each carrier natively
// (overflow and bundle objects re-mint under the destination's bucket)
// and the destination's own ledger commits the carrier leaves via the
// same rider mechanism a normal PUT uses; source checkpoints are never
// copied, so each shard stays single-writer. Removal deletes the moved
// carriers and their referenced spill objects, drops the ledger slots,
// and persists the post-removal commitment on a dedicated marker
// carrier — this architecture has no ledger item, checkpoints only ever
// ride data-prefixed metadata where Audit harvests them.
package s3only

import (
	"context"
	"fmt"
	"strings"

	"passcloud/internal/cloud/s3"
	"passcloud/internal/core"
	"passcloud/internal/core/integrity"
	"passcloud/internal/prov"
)

// reshardMarker is the carrier that persists the post-removal checkpoint.
const reshardMarker = prov.ObjectID("/.reshard/checkpoint")

// arcCarrier is one exported data object: its body and the decoded
// records (own and foreign) its metadata carried.
type arcCarrier struct {
	ref     prov.Ref
	body    []byte
	own     []prov.Record
	foreign []prov.Record
}

// arcPayload is the architecture-specific half of a core.ArcExport.
type arcPayload struct {
	carriers []arcCarrier
}

// slotObject decodes a carrier key (a data-prefixed LIST key or ledger
// slot) to its object. The reshard marker is writer-local bookkeeping that
// never migrates.
func slotObject(key string) (prov.ObjectID, bool) {
	object, ok := strings.CutPrefix(key, dataPrefix)
	return prov.ObjectID(object), ok && prov.ObjectID(object) != reshardMarker
}

// listArc pages the data prefix and calls fn for every carrier whose
// object matches the predicate.
func (s *Store) listArc(ctx context.Context, match func(prov.ObjectID) bool, fn func(prov.ObjectID) error) error {
	for objects, err := range core.ListPages(ctx, s.Retrier, "s3only/reshard-list", s.cloud.S3, s.bucket, dataPrefix) {
		if err != nil {
			return err
		}
		for _, info := range objects {
			if object, ok := slotObject(info.Key); ok && match(object) {
				if err := fn(object); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// ExportArc implements core.Migrator.
func (s *Store) ExportArc(ctx context.Context, match func(prov.ObjectID) bool) (*core.ArcExport, error) {
	exp := &core.ArcExport{}
	payload := &arcPayload{}
	err := s.listArc(ctx, match, func(object prov.ObjectID) error {
		var obj *s3.Object
		err := s.Retrier.Do(ctx, "s3only/reshard-get", func() error {
			var gerr error
			obj, gerr = s.cloud.S3.Get(s.bucket, dataKey(object))
			return gerr
		})
		if err != nil {
			return err
		}
		ref, records, err := s.decodeAll(object, obj.Metadata)
		if err != nil {
			return err
		}
		c := arcCarrier{ref: ref, body: obj.Body}
		for _, rec := range records {
			if rec.Subject == ref {
				c.own = append(c.own, rec)
			} else {
				c.foreign = append(c.foreign, rec)
			}
		}
		payload.carriers = append(payload.carriers, c)
		exp.Add(ref, obj.Body, records)
		return nil
	})
	if err != nil {
		return nil, err
	}
	exp.Payload = payload
	return exp, nil
}

// ImportArc implements core.Migrator: each carrier re-encodes through
// the store's own metadata pipeline and lands with one PUT carrying
// data, provenance and this store's freshly minted checkpoint rider.
func (s *Store) ImportArc(ctx context.Context, exp *core.ArcExport) error {
	payload, ok := exp.Payload.(*arcPayload)
	if !ok {
		return fmt.Errorf("s3only: import of a foreign arc payload (%T)", exp.Payload)
	}
	defer s.InvalidateQueries()
	return s.TrackWrites(func() error {
		for _, c := range payload.carriers {
			key := dataKey(c.ref.Object)
			meta, gets, err := s.encodeMetadata(ctx, c.ref, c.own, c.foreign)
			if err != nil {
				return err
			}
			s.mintRider(key, c.ref, c.own, c.foreign, meta)
			if err := s.putCarrier(ctx, "s3only/reshard-put", key, c.body, meta); err != nil {
				return fmt.Errorf("s3only: reshard put: %w", err)
			}
			s.mu.Lock()
			if c.ref.Version > s.latest[key] {
				s.latest[key] = c.ref.Version
			}
			s.mu.Unlock()
			s.catalog.Observe(key, gets)
		}
		return nil
	})
}

// RemoveArc implements core.Migrator.
func (s *Store) RemoveArc(ctx context.Context, match func(prov.ObjectID) bool) (int, error) {
	removed := 0
	err := s.TrackWrites(func() error {
		var victims []prov.Ref
		if err := s.listArc(ctx, match, func(object prov.ObjectID) error {
			head, ok, err := s.headObject(ctx, "s3only/reshard-head", dataKey(object))
			if err != nil {
				return fmt.Errorf("s3only: reshard head: %w", err)
			}
			if !ok {
				return nil // deleted between LIST and HEAD
			}
			ref, _, err := s.decodeAll(object, head.Metadata)
			if err != nil {
				return err
			}
			victims = append(victims, ref)
			return nil
		}); err != nil {
			return err
		}
		slots := core.ArcSlots(s.Ledger, slotObject, match)
		if len(victims) == 0 && len(slots) == 0 {
			return nil
		}
		defer s.InvalidateQueries()
		for _, ref := range victims {
			// The carrier's overflow and bundle objects live under its
			// subject's prov/ prefix (foreign riders' spills included —
			// they encode under the carrier subject).
			prefix := fmt.Sprintf("%s/%s/", provPrefix, prov.EncodeItemName(ref))
			if err := core.DeletePrefix(ctx, s.Retrier, "s3only/reshard-list", "s3only/reshard-prefix-delete", s.cloud.S3, s.bucket, prefix); err != nil {
				return err
			}
			key := dataKey(ref.Object)
			err := s.Retrier.Do(ctx, "s3only/reshard-delete", func() error {
				return s.cloud.S3.Delete(s.bucket, key)
			})
			if err != nil {
				return fmt.Errorf("s3only: reshard delete: %w", err)
			}
			s.forget(key)
			removed++
		}
		if s.Ledger == nil {
			return nil
		}
		for _, slot := range slots {
			s.Ledger.Remove(slot)
			s.forget(slot)
		}
		// Persist the post-removal commitment: without it, the highest
		// surviving rider still commits to the departed leaves and the
		// next audit would flag a root mismatch.
		meta := map[string]string{
			metaVersion:        "0",
			integrity.AttrRoot: s.Ledger.Commit(nil).Token(),
		}
		key := dataKey(reshardMarker)
		if err := s.putCarrier(ctx, "s3only/reshard-ledger-put", key, []byte{'.'}, meta); err != nil {
			return fmt.Errorf("s3only: reshard ledger put: %w", err)
		}
		s.catalog.Observe(key, 0)
		return nil
	})
	return removed, err
}

// forget drops a removed carrier from the planner catalog and the
// version map.
func (s *Store) forget(key string) {
	s.catalog.Forget(key)
	s.mu.Lock()
	delete(s.latest, key)
	s.mu.Unlock()
}

var _ core.Migrator = (*Store)(nil)
