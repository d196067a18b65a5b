// Arc migration for the SimpleDB-indexed architectures (core.Migrator):
// export decodes matching items to their original record form (plus the
// raw S3 data objects, nonce metadata included, so the §4.2 consistency
// protocol keeps verifying on the destination), import re-encodes them
// through the layer's own write pipeline — the destination's ledger
// mints its own checkpoints over the imported leaves, riding the batch
// writes at zero extra cost, and each shard stays single-writer — and
// removal deletes items, their overflow/spill objects, the moved data
// objects, and the ledger slots, finishing with a fresh checkpoint on
// the ledger item so the source's commitment reflects the departure.
package sdbprov

import (
	"context"
	"errors"
	"fmt"

	"passcloud/internal/cloud/s3"
	"passcloud/internal/core"
	"passcloud/internal/core/integrity"
	"passcloud/internal/prov"
)

// arcItem is one exported item: the subject's decoded (original-form)
// records and its consistency record.
type arcItem struct {
	subject prov.Ref
	records []prov.Record
	md5     string
}

// arcData is one exported S3 data object, verbatim: body plus metadata
// (version and consistency nonce).
type arcData struct {
	key  string
	body []byte
	meta map[string]string
}

// arcPayload is the architecture-specific half of a core.ArcExport.
type arcPayload struct {
	items []arcItem
	datas []arcData
}

// slotObject decodes a subject item's name (a Select result or ledger
// slot) to its object. The ledger item never parses.
func slotObject(item string) (prov.ObjectID, bool) {
	ref, err := prov.ParseItemName(item)
	return ref.Object, err == nil
}

// listArc pages the domain's item names and calls fn for every subject
// whose object matches the predicate.
func (l *Layer) listArc(ctx context.Context, match func(prov.ObjectID) bool, fn func(prov.Ref) error) error {
	for name, err := range l.itemNames(ctx, "sdbprov/reshard-select") {
		if err != nil {
			return err
		}
		if ref, perr := prov.ParseItemName(name); perr == nil && match(ref.Object) {
			if err := fn(ref); err != nil {
				return err
			}
		}
	}
	return nil
}

// ExportArc implements core.Migrator.
func (l *Layer) ExportArc(ctx context.Context, match func(prov.ObjectID) bool) (*core.ArcExport, error) {
	exp := &core.ArcExport{}
	payload := &arcPayload{}
	dataObjects := make(map[prov.ObjectID]bool)
	err := l.listArc(ctx, match, func(ref prov.Ref) error {
		records, md5hex, ok, err := l.FetchItem(ctx, ref)
		if err != nil {
			return err
		}
		if !ok {
			return nil // deleted between Select and GetAttributes
		}
		payload.items = append(payload.items, arcItem{subject: ref, records: records, md5: md5hex})
		exp.Add(ref, nil, records)
		if md5hex != "" {
			dataObjects[ref.Object] = true
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Data bodies travel verbatim: the nonce in the metadata is what the
	// copied consistency records hash over.
	for _, it := range payload.items {
		if !dataObjects[it.subject.Object] {
			continue
		}
		delete(dataObjects, it.subject.Object) // one object, one data key
		key := DataKey(it.subject.Object)
		var obj *s3.Object
		err := l.Retrier.Do(ctx, "sdbprov/reshard-data-get", func() error {
			var gerr error
			obj, gerr = l.cfg.Cloud.S3.Get(l.cfg.Bucket, key)
			return gerr
		})
		if err != nil {
			if errors.Is(err, s3.ErrNoSuchKey) {
				continue // an orphaned item's data never landed
			}
			return nil, err
		}
		payload.datas = append(payload.datas, arcData{key: key, body: obj.Body, meta: obj.Metadata})
		exp.Add(it.subject, obj.Body, nil)
	}
	exp.Payload = payload
	return exp, nil
}

// ImportArc implements core.Migrator. Records re-encode natively
// (overflow objects re-mint under this layer's bucket) and the batch
// write commits the imported leaves to this layer's own ledger.
func (l *Layer) ImportArc(ctx context.Context, exp *core.ArcExport) error {
	payload, ok := exp.Payload.(*arcPayload)
	if !ok {
		return fmt.Errorf("sdbprov: import of a foreign arc payload (%T)", exp.Payload)
	}
	return l.TrackWrites(func() error {
		for _, d := range payload.datas {
			err := l.Retrier.Do(ctx, "sdbprov/reshard-data-put", func() error {
				return l.cfg.Cloud.S3.Put(l.cfg.Bucket, d.key, d.body, d.meta)
			})
			if err != nil {
				return fmt.Errorf("sdbprov: reshard data put: %w", err)
			}
		}
		writes := make([]ItemWrite, 0, len(payload.items))
		for _, it := range payload.items {
			encoded, err := l.EncodeValues(ctx, it.subject, it.records, "sdbprov/reshard")
			if err != nil {
				return err
			}
			w := ItemWrite{Subject: it.subject, Records: encoded, MD5: it.md5}
			if l.Ledger != nil {
				w.Leaf = integrity.SubjectHash(it.subject, it.records)
			}
			writes = append(writes, w)
		}
		return l.WriteEncodedBatch(ctx, writes, "sdbprov/reshard")
	})
}

// RemoveArc implements core.Migrator.
func (l *Layer) RemoveArc(ctx context.Context, match func(prov.ObjectID) bool) (int, error) {
	removed := 0
	err := l.TrackWrites(func() error {
		var refs []prov.Ref
		if err := l.listArc(ctx, match, func(ref prov.Ref) error {
			refs = append(refs, ref)
			return nil
		}); err != nil {
			return err
		}
		slots := core.ArcSlots(l.Ledger, slotObject, match)
		if len(refs) == 0 && len(slots) == 0 {
			return nil
		}
		// Deletions change what queries see even if a later step fails.
		defer l.InvalidateQueries()
		seenObject := make(map[prov.ObjectID]bool)
		for _, ref := range refs {
			item := prov.EncodeItemName(ref)
			// Overflow and spill objects all live under the item's prefix.
			if err := core.DeletePrefix(ctx, l.Retrier, "sdbprov/reshard-list", "sdbprov/reshard-delete", l.cfg.Cloud.S3, l.cfg.Bucket, OverflowPrefix+"/"+item+"/"); err != nil {
				return err
			}
			err := l.Retrier.Do(ctx, "sdbprov/reshard-delete-item", func() error {
				return l.cfg.Cloud.SDB.DeleteAttributes(l.cfg.Domain, item, nil)
			})
			if err != nil {
				return fmt.Errorf("sdbprov: reshard delete item: %w", err)
			}
			l.catalog.Forget(ref)
			removed++
			if object := ref.Object; !seenObject[object] {
				seenObject[object] = true
				err := l.Retrier.Do(ctx, "sdbprov/reshard-delete-data", func() error {
					return l.cfg.Cloud.S3.Delete(l.cfg.Bucket, DataKey(object))
				})
				if err != nil {
					return fmt.Errorf("sdbprov: reshard delete data: %w", err)
				}
			}
		}
		if l.Ledger == nil {
			return nil
		}
		for _, slot := range slots {
			ref, _ := prov.ParseItemName(slot) // ArcSlots keeps only subject items
			l.catalog.Forget(ref)
		}
		return l.DropFromLedger(ctx, slots)
	})
	return removed, err
}

var _ core.Migrator = (*Layer)(nil)
