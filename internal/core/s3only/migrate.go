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

// listData pages the data prefix and calls fn for every object whose ID
// matches the predicate, skipping the reshard marker (writer-local
// bookkeeping that never migrates).
func (s *Store) listData(ctx context.Context, match func(prov.ObjectID) bool, fn func(key string, object prov.ObjectID) error) error {
	marker := ""
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		var page *s3.ListPage
		err := s.Retrier.Do(ctx, "s3only/reshard-list", func() error {
			var lerr error
			page, lerr = s.cloud.S3.List(s.bucket, dataPrefix, marker, 0)
			return lerr
		})
		if err != nil {
			return err
		}
		for _, info := range page.Objects {
			object := prov.ObjectID(strings.TrimPrefix(info.Key, dataPrefix))
			if object == reshardMarker || !match(object) {
				continue
			}
			if err := fn(info.Key, object); err != nil {
				return err
			}
		}
		if !page.IsTruncated {
			return nil
		}
		marker = page.NextMarker
	}
}

// ExportArc implements core.Migrator.
func (s *Store) ExportArc(ctx context.Context, match func(prov.ObjectID) bool) (*core.ArcExport, error) {
	exp := &core.ArcExport{}
	payload := &arcPayload{}
	seen := make(map[prov.Ref]bool)
	err := s.listData(ctx, match, func(key string, object prov.ObjectID) error {
		var obj *s3.Object
		err := s.Retrier.Do(ctx, "s3only/reshard-get", func() error {
			var gerr error
			obj, gerr = s.cloud.S3.Get(s.bucket, key)
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
			if rec.Value.Kind == prov.KindString {
				exp.Bytes += int64(len(rec.Value.Str))
			}
			if !seen[rec.Subject] {
				seen[rec.Subject] = true
				exp.Subjects = append(exp.Subjects, rec.Subject)
			}
		}
		// The carrier subject itself is part of the arc even when all its
		// records rode elsewhere (a marker carrying only riders).
		if !seen[ref] {
			seen[ref] = true
			exp.Subjects = append(exp.Subjects, ref)
		}
		payload.carriers = append(payload.carriers, c)
		exp.Objects++
		exp.Bytes += int64(len(obj.Body))
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
		type victim struct {
			key string
			ref prov.Ref
		}
		var victims []victim
		if err := s.listData(ctx, match, func(key string, object prov.ObjectID) error {
			var info *s3.Info
			err := s.Retrier.Do(ctx, "s3only/reshard-head", func() error {
				var herr error
				info, herr = s.cloud.S3.Head(s.bucket, key)
				return herr
			})
			if err != nil {
				return nil // deleted between LIST and HEAD
			}
			ref, _, err := s.decodeAll(object, info.Metadata)
			if err != nil {
				return err
			}
			victims = append(victims, victim{key: key, ref: ref})
			return nil
		}); err != nil {
			return err
		}
		// Phantom slots: a ledger entry whose carrier is already gone (a
		// tampered-away object the LIST can no longer surface). The leaves
		// must still leave the commitment or the next audit flags a root
		// mismatch against records that no longer exist.
		var phantoms []string
		if s.Ledger != nil {
			live := make(map[string]bool, len(victims))
			for _, v := range victims {
				live[v.key] = true
			}
			for _, slot := range s.Ledger.Slots() {
				if !strings.HasPrefix(slot, dataPrefix) || live[slot] {
					continue
				}
				object := prov.ObjectID(strings.TrimPrefix(slot, dataPrefix))
				if object == reshardMarker || !match(object) {
					continue
				}
				phantoms = append(phantoms, slot)
			}
		}
		if len(victims) == 0 && len(phantoms) == 0 {
			return nil
		}
		defer s.InvalidateQueries()
		for _, v := range victims {
			// The carrier's overflow and bundle objects live under its
			// subject's prov/ prefix (foreign riders' spills included —
			// they encode under the carrier subject).
			if err := s.deletePrefix(ctx, fmt.Sprintf("%s/%s/", provPrefix, prov.EncodeItemName(v.ref))); err != nil {
				return err
			}
			err := s.Retrier.Do(ctx, "s3only/reshard-delete", func() error {
				return s.cloud.S3.Delete(s.bucket, v.key)
			})
			if err != nil {
				return fmt.Errorf("s3only: reshard delete: %w", err)
			}
			if s.Ledger != nil {
				s.Ledger.Remove(v.key)
			}
			s.catalog.Forget(v.key)
			s.mu.Lock()
			delete(s.latest, v.key)
			s.mu.Unlock()
			removed++
		}
		for _, slot := range phantoms {
			s.Ledger.Remove(slot)
			s.catalog.Forget(slot)
			s.mu.Lock()
			delete(s.latest, slot)
			s.mu.Unlock()
		}
		if s.Ledger != nil {
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
		}
		return nil
	})
	return removed, err
}

// deletePrefix removes every S3 object under prefix.
func (s *Store) deletePrefix(ctx context.Context, prefix string) error {
	marker := ""
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		var page *s3.ListPage
		err := s.Retrier.Do(ctx, "s3only/reshard-list", func() error {
			var lerr error
			page, lerr = s.cloud.S3.List(s.bucket, prefix, marker, 0)
			return lerr
		})
		if err != nil {
			return err
		}
		for _, info := range page.Objects {
			key := info.Key
			err := s.Retrier.Do(ctx, "s3only/reshard-prefix-delete", func() error {
				return s.cloud.S3.Delete(s.bucket, key)
			})
			if err != nil {
				return err
			}
		}
		if !page.IsTruncated {
			return nil
		}
		marker = page.NextMarker
	}
}

var _ core.Migrator = (*Store)(nil)
