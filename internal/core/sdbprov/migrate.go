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

// scanItemNames pages "select itemName()" over the domain and calls fn
// for every item that parses as a subject and matches the predicate.
func (l *Layer) scanItemNames(ctx context.Context, match func(prov.ObjectID) bool, fn func(item string, ref prov.Ref) error) error {
	token := ""
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		page, err := l.selectItemNames(ctx, token)
		if err != nil {
			return err
		}
		for _, name := range page.names {
			ref, perr := prov.ParseItemName(name)
			if perr != nil {
				continue // the ledger item, never a subject
			}
			if !match(ref.Object) {
				continue
			}
			if err := fn(name, ref); err != nil {
				return err
			}
		}
		if page.next == "" {
			return nil
		}
		token = page.next
	}
}

type itemNamePage struct {
	names []string
	next  string
}

func (l *Layer) selectItemNames(ctx context.Context, token string) (itemNamePage, error) {
	var page itemNamePage
	err := l.Retrier.Do(ctx, "sdbprov/reshard-select", func() error {
		res, serr := l.cfg.Cloud.SDB.Select("select itemName() from "+l.cfg.Domain, token)
		if serr != nil {
			return serr
		}
		page.names = page.names[:0]
		for _, item := range res.Items {
			page.names = append(page.names, item.Name)
		}
		page.next = res.NextToken
		return nil
	})
	return page, err
}

// ExportArc implements core.Migrator.
func (l *Layer) ExportArc(ctx context.Context, match func(prov.ObjectID) bool) (*core.ArcExport, error) {
	exp := &core.ArcExport{}
	payload := &arcPayload{}
	dataObjects := make(map[prov.ObjectID]bool)
	err := l.scanItemNames(ctx, match, func(item string, ref prov.Ref) error {
		records, md5hex, ok, err := l.FetchItem(ctx, ref)
		if err != nil {
			return err
		}
		if !ok {
			return nil // deleted between Select and GetAttributes
		}
		payload.items = append(payload.items, arcItem{subject: ref, records: records, md5: md5hex})
		exp.Subjects = append(exp.Subjects, ref)
		exp.Objects++
		for _, rec := range records {
			if rec.Value.Kind == prov.KindString {
				exp.Bytes += int64(len(rec.Value.Str))
			}
		}
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
		exp.Objects++
		exp.Bytes += int64(len(obj.Body))
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
		var items []string
		var refs []prov.Ref
		if err := l.scanItemNames(ctx, match, func(item string, ref prov.Ref) error {
			items = append(items, item)
			refs = append(refs, ref)
			return nil
		}); err != nil {
			return err
		}
		// Phantom slots: a ledger entry whose item is already gone (a
		// tampered-away item the Select can no longer surface). Its leaves
		// must still leave the commitment or the next audit flags a root
		// mismatch against records that no longer exist.
		var phantoms []string
		if l.Ledger != nil {
			live := make(map[string]bool, len(items))
			for _, item := range items {
				live[item] = true
			}
			for _, slot := range l.Ledger.Slots() {
				if slot == LedgerItem || live[slot] {
					continue
				}
				ref, perr := prov.ParseItemName(slot)
				if perr != nil || !match(ref.Object) {
					continue
				}
				phantoms = append(phantoms, slot)
				l.catalog.Forget(ref)
			}
		}
		if len(items) == 0 && len(phantoms) == 0 {
			return nil
		}
		// Deletions change what queries see even if a later step fails.
		defer l.InvalidateQueries()
		seenObject := make(map[prov.ObjectID]bool)
		for i, item := range items {
			// Overflow and spill objects all live under the item's prefix.
			if err := l.deletePrefix(ctx, OverflowPrefix+"/"+item+"/"); err != nil {
				return err
			}
			err := l.Retrier.Do(ctx, "sdbprov/reshard-delete-item", func() error {
				return l.cfg.Cloud.SDB.DeleteAttributes(l.cfg.Domain, item, nil)
			})
			if err != nil {
				return fmt.Errorf("sdbprov: reshard delete item: %w", err)
			}
			l.catalog.Forget(refs[i])
			removed++
			if object := refs[i].Object; !seenObject[object] {
				seenObject[object] = true
				err := l.Retrier.Do(ctx, "sdbprov/reshard-delete-data", func() error {
					return l.cfg.Cloud.S3.Delete(l.cfg.Bucket, DataKey(object))
				})
				if err != nil {
					return fmt.Errorf("sdbprov: reshard delete data: %w", err)
				}
			}
		}
		return l.DropFromLedger(ctx, append(items, phantoms...))
	})
	return removed, err
}

// deletePrefix removes every S3 object under prefix.
func (l *Layer) deletePrefix(ctx context.Context, prefix string) error {
	marker := ""
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		var page *s3.ListPage
		err := l.Retrier.Do(ctx, "sdbprov/reshard-list", func() error {
			var lerr error
			page, lerr = l.cfg.Cloud.S3.List(l.cfg.Bucket, prefix, marker, 0)
			return lerr
		})
		if err != nil {
			return err
		}
		for _, info := range page.Objects {
			key := info.Key
			err := l.Retrier.Do(ctx, "sdbprov/reshard-delete", func() error {
				return l.cfg.Cloud.S3.Delete(l.cfg.Bucket, key)
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

var _ core.Migrator = (*Layer)(nil)
