package sweep

// Post-commit corruption: the applier behind sim.ClassCorrupt. Once
// recovery has converged and the run has verified clean, each armed
// sim.Corruption mutates committed state through raw cloud access — below
// the store APIs, the way a misbehaving service or an attacker with bucket
// credentials would — and the verifier must then flag the corrupted shard.
//
// Victim choice is deterministic: candidates are enumerated in canonical
// order and picked by an RNG seeded from Corruption.Pick, so a logged
// schedule replays to the identical mutation.
//
// The kinds target state whose tampering the integrity layer promises to
// catch, and deliberately avoid mutations that are semantically invisible
// (corrupting a duplicated rider copy of a record, or the version stamp of
// a bare parent-node marker, changes nothing the verifier — or any reader
// — can distinguish from healthy state):
//
//   - flip-byte mutates a stored chain token (SimpleDB: the x-chain
//     attribute; S3-only: a p-* own-record entry carrying x-chain);
//   - swap-version exchanges the chain tokens of two adjacent versions
//     (SimpleDB), or forges the version stamp of a data object (S3-only,
//     which keeps one version per key — caught by the root commitment);
//   - drop-record deletes one committed provenance record (SimpleDB: any
//     non-bookkeeping attribute pair; S3-only: a p-* entry).

import (
	"context"
	"fmt"
	"iter"
	"sort"
	"strconv"
	"strings"

	"passcloud/internal/cloud/sdb"
	"passcloud/internal/core"
	"passcloud/internal/core/integrity"
	"passcloud/internal/core/sdbprov"
	"passcloud/internal/prov"
	"passcloud/internal/sim"
)

// s3FieldSep mirrors the attr/value separator of the S3-only metadata
// encoding (s3only.fieldSep).
const s3FieldSep = "\x1f"

// s3Bucket is the S3-only architecture's default bucket.
const s3Bucket = "pass"

// appliedCorruption records one applied (or skipped) corruption. shard is
// -1 when no victim existed for the drawn kind.
type appliedCorruption struct {
	shard int
	desc  string
}

// applyCorruptions applies every armed corruption in schedule order,
// settling after each so the mutation is visible to the verification that
// follows. Failures to apply are violations — the harness must be able to
// tamper, or the detection assertion would pass vacuously.
func (e *env) applyCorruptions(ctx context.Context, cs []sim.Corruption, violations *[]string) []appliedCorruption {
	var out []appliedCorruption
	for _, c := range cs {
		rng := sim.NewRNG(c.Pick)
		var a appliedCorruption
		switch c.Kind {
		case sim.CorruptFlipByte:
			a = e.corruptFlipByte(ctx, rng, violations)
		case sim.CorruptSwapVersion:
			a = e.corruptSwapVersion(ctx, rng, violations)
		case sim.CorruptDropRecord:
			a = e.corruptDropRecord(ctx, rng, violations)
		default:
			a = appliedCorruption{shard: -1, desc: fmt.Sprintf("%s: unknown kind", c.Kind)}
		}
		out = append(out, a)
		e.settle()
	}
	return out
}

// pickFresh filters out already-tampered victims, picks one
// deterministically, and records the choice so no later corruption of the
// same kind re-hits it (re-swapping a swapped pair would silently restore
// the original state and leave detection nothing to detect). It returns an
// index into ids, or -1 when every victim was already hit.
func (e *env) pickFresh(rng *sim.RNG, ids []string) int {
	var fresh []int
	for i, id := range ids {
		if !e.tampered[id] {
			fresh = append(fresh, i)
		}
	}
	if len(fresh) == 0 {
		return -1
	}
	i := fresh[rng.Intn(len(fresh))]
	if e.tampered == nil {
		e.tampered = make(map[string]bool)
	}
	e.tampered[ids[i]] = true
	return i
}

// mutateTail changes the last byte of a stored value — the minimal
// tampering the chain must catch.
func mutateTail(s string) string {
	if s == "" {
		return "Z"
	}
	last := byte('Z')
	if s[len(s)-1] == 'Z' {
		last = 'Y'
	}
	return s[:len(s)-1] + string(last)
}

// rawWrite runs one raw mutation with a few attempts: leftover armed fault
// windows from the workload schedule may still fire on the underlying op.
func (e *env) rawWrite(desc string, violations *[]string, f func() error) bool {
	var err error
	for attempt := 0; attempt < 4; attempt++ {
		if err = f(); err == nil {
			return true
		}
		e.settle()
	}
	*violations = append(*violations, fmt.Sprintf("corruption apply failed: %s: %v", desc, err))
	return false
}

// sdbItem is one provenance item as enumerated for victim choice.
type sdbItem struct {
	ref   prov.Ref
	name  string
	attrs []sdb.Attr
}

// sdbItems enumerates one shard's provenance items (bookkeeping items,
// like the ledger, are excluded) in canonical name order.
func (e *env) sdbItems(ctx context.Context, se *shardEnv, violations *[]string) []sdbItem {
	var items []sdbItem
	for page, err := range itemPages(ctx, se) {
		if err != nil {
			*violations = append(*violations, fmt.Sprintf("corruption enumerate select failed: %v", err))
			return nil
		}
		for _, it := range page {
			ref, err := prov.ParseItemName(it.Name)
			if err != nil {
				continue
			}
			attrs, ok, err := se.cloud.SDB.GetAttributes(se.layer.Domain(), it.Name)
			if err != nil || !ok {
				continue
			}
			items = append(items, sdbItem{ref: ref, name: it.Name, attrs: attrs})
		}
	}
	sort.Slice(items, func(i, j int) bool { return items[i].name < items[j].name })
	return items
}

// itemPages pages one shard's item names the way a raw client reads them:
// no retrier, so an armed fault surfaces as it would to an auditor.
func itemPages(ctx context.Context, se *shardEnv) iter.Seq2[[]sdb.Item, error] {
	return core.SelectPages(ctx, nil, "sweep/select", se.cloud.SDB, "select itemName() from "+se.layer.Domain())
}

// s3Object is one data object as enumerated for victim choice.
type s3Object struct {
	key  string
	body []byte
	meta map[string]string
	// pKeys are the object's own-record metadata keys, sorted. Own records
	// live only on their own data object (never duplicated onto another
	// carrier), so mutating one is always a semantic change.
	pKeys []string
}

// s3Objects enumerates one shard's data objects in canonical key order.
func (e *env) s3Objects(se *shardEnv, violations *[]string) []s3Object {
	infos, err := se.cloud.S3.ListAll(s3Bucket, dataPrefixS3)
	if err != nil {
		*violations = append(*violations, fmt.Sprintf("corruption enumerate list failed: %v", err))
		return nil
	}
	var objs []s3Object
	for _, info := range infos {
		obj, err := se.cloud.S3.Get(s3Bucket, info.Key)
		if err != nil {
			continue // deleted between LIST and GET
		}
		o := s3Object{key: info.Key, body: obj.Body, meta: obj.Metadata}
		for k := range o.meta {
			if strings.HasPrefix(k, "p-") {
				o.pKeys = append(o.pKeys, k)
			}
		}
		sort.Strings(o.pKeys)
		objs = append(objs, o)
	}
	sort.Slice(objs, func(i, j int) bool { return objs[i].key < objs[j].key })
	return objs
}

// dataPrefixS3 mirrors the S3-only data key prefix.
const dataPrefixS3 = "data"

// corruptFlipByte mutates one stored chain token.
func (e *env) corruptFlipByte(ctx context.Context, rng *sim.RNG, violations *[]string) appliedCorruption {
	if e.shards[0].layer != nil {
		type victim struct {
			shard int
			item  string
			value string
		}
		var victims []victim
		for si, se := range e.shards {
			for _, it := range e.sdbItems(ctx, se, violations) {
				for _, a := range it.attrs {
					if a.Name == integrity.AttrChain {
						victims = append(victims, victim{shard: si, item: it.name, value: a.Value})
						break
					}
				}
			}
		}
		ids := make([]string, len(victims))
		for i, v := range victims {
			ids[i] = fmt.Sprintf("flip|%d|%s", v.shard, v.item)
		}
		i := e.pickFresh(rng, ids)
		if i < 0 {
			return appliedCorruption{shard: -1, desc: "flip-byte: skipped (no victim)"}
		}
		v := victims[i]
		se := e.shards[v.shard]
		desc := fmt.Sprintf("flip-byte shard %d item %s attr %s", v.shard, v.item, integrity.AttrChain)
		e.rawWrite(desc, violations, func() error {
			return se.cloud.SDB.PutAttributes(se.layer.Domain(), v.item, []sdb.ReplaceableAttr{
				{Name: integrity.AttrChain, Value: mutateTail(v.value), Replace: true},
			})
		})
		return appliedCorruption{shard: v.shard, desc: desc}
	}

	type victim struct {
		shard   int
		key     string
		metaKey string
	}
	var victims []victim
	for si, se := range e.shards {
		for _, o := range e.s3Objects(se, violations) {
			for _, k := range o.pKeys {
				if strings.HasPrefix(o.meta[k], integrity.AttrChain+s3FieldSep) {
					victims = append(victims, victim{shard: si, key: o.key, metaKey: k})
				}
			}
		}
	}
	ids := make([]string, len(victims))
	for i, v := range victims {
		ids[i] = fmt.Sprintf("flip|%d|%s|%s", v.shard, v.key, v.metaKey)
	}
	i := e.pickFresh(rng, ids)
	if i < 0 {
		return appliedCorruption{shard: -1, desc: "flip-byte: skipped (no victim)"}
	}
	v := victims[i]
	se := e.shards[v.shard]
	desc := fmt.Sprintf("flip-byte shard %d object %s entry %s", v.shard, v.key, v.metaKey)
	e.rawWrite(desc, violations, func() error {
		obj, err := se.cloud.S3.Get(s3Bucket, v.key)
		if err != nil {
			return err
		}
		obj.Metadata[v.metaKey] = mutateTail(obj.Metadata[v.metaKey])
		return se.cloud.S3.Put(s3Bucket, v.key, obj.Body, obj.Metadata)
	})
	return appliedCorruption{shard: v.shard, desc: desc}
}

// corruptSwapVersion exchanges lineage between adjacent versions
// (SimpleDB) or forges a stored version stamp (S3-only).
func (e *env) corruptSwapVersion(ctx context.Context, rng *sim.RNG, violations *[]string) appliedCorruption {
	if e.shards[0].layer != nil {
		type victim struct {
			shard          int
			hiItem, loItem string
			hiVal, loVal   string
		}
		var victims []victim
		for si, se := range e.shards {
			items := e.sdbItems(ctx, se, violations)
			chain := make(map[prov.Ref]sdbItem)
			for _, it := range items {
				for _, a := range it.attrs {
					if a.Name == integrity.AttrChain {
						chain[it.ref] = it
						break
					}
				}
			}
			for _, it := range items {
				hi, hiOK := chain[it.ref]
				lo, loOK := chain[prov.Ref{Object: it.ref.Object, Version: it.ref.Version - 1}]
				if it.ref.Version == 0 || !hiOK || !loOK {
					continue
				}
				var hiVal, loVal string
				for _, a := range hi.attrs {
					if a.Name == integrity.AttrChain {
						hiVal = a.Value
						break
					}
				}
				for _, a := range lo.attrs {
					if a.Name == integrity.AttrChain {
						loVal = a.Value
						break
					}
				}
				victims = append(victims, victim{shard: si, hiItem: hi.name, loItem: lo.name, hiVal: hiVal, loVal: loVal})
			}
		}
		ids := make([]string, len(victims))
		for i, v := range victims {
			ids[i] = fmt.Sprintf("swap|%d|%s", v.shard, v.hiItem)
		}
		i := e.pickFresh(rng, ids)
		if i < 0 {
			return appliedCorruption{shard: -1, desc: "swap-version: skipped (no victim)"}
		}
		v := victims[i]
		se := e.shards[v.shard]
		desc := fmt.Sprintf("swap-version shard %d items %s <-> %s", v.shard, v.hiItem, v.loItem)
		ok := e.rawWrite(desc, violations, func() error {
			return se.cloud.SDB.PutAttributes(se.layer.Domain(), v.hiItem, []sdb.ReplaceableAttr{
				{Name: integrity.AttrChain, Value: v.loVal, Replace: true},
			})
		})
		if ok {
			e.rawWrite(desc, violations, func() error {
				return se.cloud.SDB.PutAttributes(se.layer.Domain(), v.loItem, []sdb.ReplaceableAttr{
					{Name: integrity.AttrChain, Value: v.hiVal, Replace: true},
				})
			})
		}
		return appliedCorruption{shard: v.shard, desc: desc}
	}

	type victim struct {
		shard int
		key   string
	}
	var victims []victim
	for si, se := range e.shards {
		for _, o := range e.s3Objects(se, violations) {
			// Only objects carrying own records: forging the version of a
			// bare parent-node marker changes nothing verifiable.
			if len(o.pKeys) > 0 {
				victims = append(victims, victim{shard: si, key: o.key})
			}
		}
	}
	ids := make([]string, len(victims))
	for i, v := range victims {
		ids[i] = fmt.Sprintf("swap|%d|%s", v.shard, v.key)
	}
	i := e.pickFresh(rng, ids)
	if i < 0 {
		return appliedCorruption{shard: -1, desc: "swap-version: skipped (no victim)"}
	}
	v := victims[i]
	se := e.shards[v.shard]
	desc := fmt.Sprintf("swap-version shard %d object %s (forged version stamp)", v.shard, v.key)
	e.rawWrite(desc, violations, func() error {
		obj, err := se.cloud.S3.Get(s3Bucket, v.key)
		if err != nil {
			return err
		}
		ver, _ := strconv.Atoi(obj.Metadata["x-ver"])
		obj.Metadata["x-ver"] = strconv.Itoa(ver + 1)
		return se.cloud.S3.Put(s3Bucket, v.key, obj.Body, obj.Metadata)
	})
	return appliedCorruption{shard: v.shard, desc: desc}
}

// corruptDropRecord silently deletes one committed provenance record.
func (e *env) corruptDropRecord(ctx context.Context, rng *sim.RNG, violations *[]string) appliedCorruption {
	if e.shards[0].layer != nil {
		type victim struct {
			shard       int
			item        string
			name, value string
		}
		var victims []victim
		for si, se := range e.shards {
			for _, it := range e.sdbItems(ctx, se, violations) {
				for _, a := range it.attrs {
					// Bookkeeping attrs are not provenance records; dropping
					// them is out of the integrity layer's contract.
					if a.Name == sdbprov.AttrMD5 || a.Name == sdbprov.AttrMore || a.Name == integrity.AttrRoot {
						continue
					}
					victims = append(victims, victim{shard: si, item: it.name, name: a.Name, value: a.Value})
				}
			}
		}
		ids := make([]string, len(victims))
		for i, v := range victims {
			ids[i] = fmt.Sprintf("drop|%d|%s|%s|%s", v.shard, v.item, v.name, v.value)
		}
		i := e.pickFresh(rng, ids)
		if i < 0 {
			return appliedCorruption{shard: -1, desc: "drop-record: skipped (no victim)"}
		}
		v := victims[i]
		se := e.shards[v.shard]
		desc := fmt.Sprintf("drop-record shard %d item %s attr %s", v.shard, v.item, v.name)
		e.rawWrite(desc, violations, func() error {
			return se.cloud.SDB.DeleteAttributes(se.layer.Domain(), v.item, []sdb.Attr{{Name: v.name, Value: v.value}})
		})
		return appliedCorruption{shard: v.shard, desc: desc}
	}

	type victim struct {
		shard   int
		key     string
		metaKey string
	}
	var victims []victim
	for si, se := range e.shards {
		for _, o := range e.s3Objects(se, violations) {
			for _, k := range o.pKeys {
				victims = append(victims, victim{shard: si, key: o.key, metaKey: k})
			}
		}
	}
	ids := make([]string, len(victims))
	for i, v := range victims {
		ids[i] = fmt.Sprintf("drop|%d|%s|%s", v.shard, v.key, v.metaKey)
	}
	i := e.pickFresh(rng, ids)
	if i < 0 {
		return appliedCorruption{shard: -1, desc: "drop-record: skipped (no victim)"}
	}
	v := victims[i]
	se := e.shards[v.shard]
	desc := fmt.Sprintf("drop-record shard %d object %s entry %s", v.shard, v.key, v.metaKey)
	e.rawWrite(desc, violations, func() error {
		obj, err := se.cloud.S3.Get(s3Bucket, v.key)
		if err != nil {
			return err
		}
		delete(obj.Metadata, v.metaKey)
		return se.cloud.S3.Put(s3Bucket, v.key, obj.Body, obj.Metadata)
	})
	return appliedCorruption{shard: v.shard, desc: desc}
}
