// Package sdbprov is the SimpleDB provenance layer shared by the paper's
// second and third architectures (§4.2, §4.3): provenance lives in SimpleDB
// — one item per object version, one attribute-value pair per record — and
// data lives in S3, with an MD5-of-data-plus-nonce record tying the two
// together for consistency verification.
//
// The layer implements:
//
//   - the item encoding of §4.2 (ItemName=foo_2; input=bar:2; type=file),
//     with values above 1 KB diverted to S3 objects and referenced by
//     pointer ("We store any provenance values larger than the 1KB SimpleDB
//     limit as separate S3 objects, referenced from SimpleDB");
//   - chunked PutAttributes ("Since SimpleDB allows us to store only 100
//     attributes per call, we might have to issue multiple PutAttributes
//     calls");
//   - the verified read: fetch data and provenance, compare
//     MD5(data‖nonce) against the stored consistency record, and "reissue
//     the query, retrieving data from S3 until we get consistent provenance
//     and data";
//   - the indexed query engine behind Table 3's SimpleDB column, with the
//     N+1 lookups of the paper's description aggregated away: dependents'
//     type attributes ride the same QueryWithAttributes pass as the refs,
//     chunked ancestry queries run concurrently per BFS level, and query
//     results plus the full-repository graph are kept in a
//     generation-stamped snapshot cache (internal/core/qcache) so repeated
//     queries on an unchanged domain cost zero cloud ops.
package sdbprov

import (
	"context"
	"crypto/md5"
	"encoding/hex"
	"errors"
	"fmt"
	"iter"
	"strconv"
	"time"

	"passcloud/internal/cloud"
	"passcloud/internal/cloud/retry"
	"passcloud/internal/cloud/s3"
	"passcloud/internal/cloud/sdb"
	"passcloud/internal/core"
	"passcloud/internal/core/integrity"
	"passcloud/internal/core/planner"
	"passcloud/internal/prov"
	"passcloud/internal/sim"
)

// Reserved attribute names on provenance items.
const (
	// AttrMD5 holds hex(MD5(data ‖ nonce)) — the consistency record.
	AttrMD5 = "x-md5"
	// AttrMore points to an S3 object holding records beyond SimpleDB's
	// 256-pairs-per-item limit. The paper's encoding ("all the provenance
	// of an object version ... as attributes of one item") silently
	// assumes items fit; a compile's linker reads thousands of inputs, so
	// the limit is real and the excess spills, exactly like the >1 KB
	// value rule.
	AttrMore = "x-more"
)

// LedgerItem names the non-provenance item that carries a fresh integrity
// checkpoint after out-of-band deletions (the orphan scan). Its name has no
// version suffix, so ParseItemName rejects it and every scan and query path
// skips it like any other foreign item.
const LedgerItem = "x-ledger"

// Reserved S3 metadata keys on data objects.
const (
	// MetaNonce is the nonce used in the consistency record. "The nonce is
	// typically the file version" plus entropy against reuse.
	MetaNonce = "x-nonce"
	// MetaVersion is the version of the stored data.
	MetaVersion = "x-ver"
)

// Key layout within the bucket.
const (
	// DataPrefix prefixes data object keys.
	DataPrefix = "data"
	// OverflowPrefix prefixes >1 KB record-value objects.
	OverflowPrefix = "prov"
)

// ignoreAttrs are bookkeeping attributes skipped when decoding provenance.
var ignoreAttrs = map[string]bool{AttrMD5: true, AttrMore: true, integrity.AttrRoot: true}

// Config parameterizes a Layer.
type Config struct {
	// Cloud supplies S3 and SimpleDB. Required.
	Cloud *cloud.Cloud
	// Bucket and Domain name the S3 bucket and SimpleDB domain; both are
	// created if missing. Defaults: "pass" / "provenance".
	Bucket string
	Domain string
	// Faults optionally injects crashes inside multi-step writes.
	Faults *sim.FaultPlan
	// MaxReadRetries bounds the consistency retry loop (default 16).
	MaxReadRetries int
	// RetryWait is called between consistency retries. The default
	// advances the simulated clock by a quarter of the propagation
	// horizon, modeling the real time a client would wait before
	// reissuing.
	RetryWait func()
	// QueryChunk is the number of OR-ed values per ancestry query
	// expression (default 32).
	QueryChunk int
	// QueryConcurrency bounds the in-flight chunked ancestry queries per
	// BFS level (default 4). 1 restores strictly sequential chunks.
	QueryConcurrency int
	// DisableQueryCache turns off the generation-stamped query cache,
	// restoring one indexed query run per call (Table 3's SimpleDB row).
	DisableQueryCache bool
	// Retry bounds the transient-error backoff around every cloud call the
	// layer issues. The zero value uses the shared defaults.
	Retry retry.Policy
	// Writer identifies this client in integrity checkpoints (default "w").
	// Clients sharing a domain must use distinct writers.
	Writer string
	// DisableIntegrity turns off the Merkle ledger and its checkpoint
	// riders — the pre-integrity write shape, kept for the op-count parity
	// baselines.
	DisableIntegrity bool
}

// Layer is the shared provenance store. Its kernel's retrier is shared
// with the protocol code built on the layer (stores, commit daemon,
// cleaner), so one run's retry overhead is metered in one place; its
// ledger's checkpoints ride batch writes as the x-root attribute.
type Layer struct {
	*core.Kernel
	cfg Config

	// catalog mirrors this client's writes for Explain's cost predictions.
	catalog *planner.SDBCatalog
}

// New builds the layer, creating bucket and domain if needed.
func New(cfg Config) (*Layer, error) {
	if cfg.Cloud == nil {
		return nil, errors.New("sdbprov: Config.Cloud is required")
	}
	if cfg.Bucket == "" {
		cfg.Bucket = "pass"
	}
	if cfg.Domain == "" {
		cfg.Domain = "provenance"
	}
	if cfg.MaxReadRetries <= 0 {
		cfg.MaxReadRetries = 16
	}
	if cfg.QueryChunk <= 0 {
		cfg.QueryChunk = 32
	}
	if cfg.QueryConcurrency <= 0 {
		cfg.QueryConcurrency = 4
	}
	if cfg.RetryWait == nil {
		clock := cfg.Cloud.Clock
		step := cfg.Cloud.S3.MaxDelay()/4 + time.Millisecond
		cfg.RetryWait = func() { clock.Advance(step) }
	}
	l := &Layer{cfg: cfg, catalog: planner.NewSDBCatalog()}
	k, err := core.NewKernel(core.KernelConfig{
		Cloud: cfg.Cloud,
		Setup: func() error {
			//passvet:allow retrywrap -- one-shot namespace setup at construction: no caller context exists yet, and a failure surfaces directly instead of being retried behind the builder's back
			if err := cfg.Cloud.S3.CreateBucket(cfg.Bucket); err != nil && !errors.Is(err, s3.ErrBucketAlreadyExists) {
				return err
			}
			//passvet:allow retrywrap -- one-shot namespace setup at construction: no caller context exists yet, and a failure surfaces directly instead of being retried behind the builder's back
			if err := cfg.Cloud.SDB.CreateDomain(cfg.Domain); err != nil && !errors.Is(err, sdb.ErrDomainExists) {
				return err
			}
			return nil
		},
		Scan:              l.scanSeq,
		Native:            l.runNative,
		DisableQueryCache: cfg.DisableQueryCache,
		Retry:             cfg.Retry,
		Writer:            cfg.Writer,
		DisableIntegrity:  cfg.DisableIntegrity,
	})
	if err != nil {
		return nil, err
	}
	l.Kernel = k
	return l, nil
}

// ConsistencyWait blocks (in simulated time) for one full propagation
// horizon, the wait a client performs before trusting that a negative read
// — a missing object, a missing item — reflects reality rather than a
// stale replica. Recovery scans use it before destructive decisions.
func (l *Layer) ConsistencyWait() {
	for i := 0; i < 4; i++ {
		l.cfg.RetryWait()
	}
}

// Bucket returns the S3 bucket name.
func (l *Layer) Bucket() string { return l.cfg.Bucket }

// Domain returns the SimpleDB domain name.
func (l *Layer) Domain() string { return l.cfg.Domain }

// Cloud returns the underlying cloud.
func (l *Layer) Cloud() *cloud.Cloud { return l.cfg.Cloud }

// DataKey returns the S3 key holding an object's data.
func DataKey(object prov.ObjectID) string { return DataPrefix + string(object) }

// overflowKey names the S3 object holding one >1 KB record value.
func (l *Layer) overflowKey(subject prov.Ref, n int) string {
	return fmt.Sprintf("%s/%s/%d", OverflowPrefix, prov.EncodeItemName(subject), n)
}

// ConsistencyMD5 computes the §4.2 consistency record: MD5 of the data
// concatenated with the nonce. "The MD5sum of the data itself (without the
// nonce) is sufficient ... except when a file is overwritten with the same
// data", hence the nonce.
func ConsistencyMD5(data []byte, nonce string) string {
	h := md5.New()
	h.Write(data)
	h.Write([]byte(nonce))
	return hex.EncodeToString(h.Sum(nil))
}

// EncodeValues prepares records for storage: string values over 1 KB are
// written to their own S3 objects (their PUTs count toward the paper's op
// totals) and replaced by pointers; smaller literals are escaped. The
// returned records carry the stored form and can travel through the WAL or
// go straight to WriteEncoded.
func (l *Layer) EncodeValues(ctx context.Context, subject prov.Ref, records []prov.Record, faultPrefix string) ([]prov.Record, error) {
	out := make([]prov.Record, len(records))
	overflowN := 0
	for i, rec := range records {
		if rec.Value.Kind != prov.KindString {
			out[i] = rec
			continue
		}
		value := rec.Value.Str
		if len(value) > core.OverflowThreshold {
			okey := l.overflowKey(subject, overflowN)
			overflowN++
			// Re-PUT of the same key/content is idempotent, so a retry
			// after a lost response cannot double-apply.
			err := l.Retrier.Do(ctx, "sdbprov/overflow-put", func() error {
				return l.cfg.Cloud.S3.Put(l.cfg.Bucket, okey, []byte(value), nil)
			})
			if err != nil {
				return nil, fmt.Errorf("sdbprov: overflow put: %w", err)
			}
			if err := l.cfg.Faults.Check(faultPrefix + "/after-overflow-put"); err != nil {
				return nil, err
			}
			value = core.PointerValue(okey)
		} else {
			value = core.EscapeLiteral(value)
		}
		rec.Value = prov.StringValue(value)
		out[i] = rec
	}
	return out, nil
}

// buildAttrs renders one subject's pre-encoded records into the item's
// attribute list: inline records, the MD5 consistency record, the integrity
// checkpoint rider (rootToken, when non-empty), and — for records beyond
// the 256-pairs-per-item limit — an S3 spill object referenced by the
// AttrMore attribute (the spill PUT happens here).
// observe mirrors the item into the planner catalog; callers invoke it
// only once the SimpleDB write succeeds, so a failed write cannot leave a
// phantom item skewing Explain.
func (l *Layer) buildAttrs(ctx context.Context, subject prov.Ref, encoded []prov.Record, md5hex, rootToken, faultPrefix string) (attrs []sdb.ReplaceableAttr, observe func(), err error) {
	item := prov.EncodeItemName(subject)

	// Reserve room for the bookkeeping attributes.
	reserved := 1 // AttrMore slot
	if md5hex != "" {
		reserved++
	}
	if rootToken != "" {
		reserved++
	}
	inline := encoded
	var spill []prov.Record
	if len(encoded)+reserved > sdb.MaxAttrsPerItem {
		cut := sdb.MaxAttrsPerItem - reserved
		inline, spill = encoded[:cut], encoded[cut:]
	}
	observe = func() { l.catalog.Observe(subject, inline, spill) }

	attrs = make([]sdb.ReplaceableAttr, 0, len(inline)+reserved)
	for _, rec := range inline {
		attrs = append(attrs, sdb.ReplaceableAttr{Name: rec.Attr, Value: rec.Value.String()})
	}
	if md5hex != "" {
		attrs = append(attrs, sdb.ReplaceableAttr{Name: AttrMD5, Value: md5hex, Replace: true})
	}
	if rootToken != "" {
		attrs = append(attrs, sdb.ReplaceableAttr{Name: integrity.AttrRoot, Value: rootToken, Replace: true})
	}

	if len(spill) > 0 {
		blob, err := prov.MarshalJSONRecords(spill)
		if err != nil {
			return nil, nil, err
		}
		mkey := fmt.Sprintf("%s/%s/more", OverflowPrefix, item)
		err = l.Retrier.Do(ctx, "sdbprov/spill-put", func() error {
			return l.cfg.Cloud.S3.Put(l.cfg.Bucket, mkey, blob, nil)
		})
		if err != nil {
			return nil, nil, fmt.Errorf("sdbprov: spill put: %w", err)
		}
		if err := l.cfg.Faults.Check(faultPrefix + "/after-spill-put"); err != nil {
			return nil, nil, err
		}
		attrs = append(attrs, sdb.ReplaceableAttr{Name: AttrMore, Value: mkey, Replace: true})
	}
	return attrs, observe, nil
}

// WriteEncoded stores pre-encoded records (from EncodeValues) as one
// SimpleDB item via chunked PutAttributes calls ("Since SimpleDB allows us
// to store only 100 attributes per call, we might have to issue multiple
// PutAttributes calls"). md5hex, when non-empty, adds the consistency
// record. faultPrefix scopes the crash points so each caller's protocol is
// independently testable.
func (l *Layer) WriteEncoded(ctx context.Context, subject prov.Ref, encoded []prov.Record, md5hex, faultPrefix string) error {
	// Invalidate cached query state even on failure: a partial chunked
	// write is already visible to queries.
	defer l.InvalidateQueries()
	attrs, observe, err := l.buildAttrs(ctx, subject, encoded, md5hex, "", faultPrefix)
	if err != nil {
		return err
	}
	if err := l.putChunked(ctx, subject, attrs, faultPrefix); err != nil {
		return err
	}
	observe()
	return nil
}

// putChunked issues the chunked PutAttributes loop for one item.
func (l *Layer) putChunked(ctx context.Context, subject prov.Ref, attrs []sdb.ReplaceableAttr, faultPrefix string) error {
	item := prov.EncodeItemName(subject)
	for start := 0; start < len(attrs); start += sdb.MaxAttrsPerCall {
		end := start + sdb.MaxAttrsPerCall
		if end > len(attrs) {
			end = len(attrs)
		}
		chunk := attrs[start:end]
		// PutAttributes is idempotent (§2.2): the same (name, value) pairs
		// collapse, so a retried-after-lost-response chunk cannot duplicate.
		err := l.Retrier.Do(ctx, "sdbprov/put-attributes", func() error {
			return l.cfg.Cloud.SDB.PutAttributes(l.cfg.Domain, item, chunk)
		})
		if err != nil {
			return fmt.Errorf("sdbprov: put attributes: %w", err)
		}
		if err := l.cfg.Faults.Check(faultPrefix + "/after-putattrs-chunk"); err != nil {
			return err
		}
	}
	return nil
}

// WriteItem encodes and stores a subject's provenance in one step — the
// direct (architecture 2) single-item write path. As an outermost write
// entry point it runs under the planner's write tracker.
func (l *Layer) WriteItem(ctx context.Context, subject prov.Ref, records []prov.Record, md5hex, faultPrefix string) error {
	return l.TrackWrites(func() error {
		encoded, err := l.EncodeValues(ctx, subject, records, faultPrefix)
		if err != nil {
			return err
		}
		return l.WriteEncoded(ctx, subject, encoded, md5hex, faultPrefix)
	})
}

// ItemWrite is one subject's worth of a batched provenance write. Records
// must already carry their stored form (EncodeValues).
type ItemWrite struct {
	Subject prov.Ref
	Records []prov.Record
	// MD5 is the consistency record value; empty for transient subjects.
	MD5 string
	// Leaf is the subject's integrity leaf — integrity.SubjectHash over the
	// ORIGINAL (pre-encoding) record set. Empty skips the ledger for this
	// item (callers that predate the integrity subsystem).
	Leaf string
}

// WriteEncodedBatch stores many subjects' provenance with as few SimpleDB
// calls as possible: items that fit in a single call are grouped into
// BatchPutAttributes requests of up to 25 items each (the 2009 batch
// limit), and oversized items fall back to the chunked PutAttributes path.
// This is the write amortization both indexed architectures ride: a close
// with K unpersisted ancestors costs ⌈K/25⌉ SimpleDB calls instead of K.
//
// Transient SimpleDB errors are retried with backoff (re-sending a group is
// idempotent: per-item set semantics collapse duplicates). When the batch
// still fails after some groups landed, the error is a typed
// core.PartialWriteError listing the landed subjects, so callers can tell
// a half-landed batch from an all-or-nothing failure instead of guessing.
//
// When the batch carries integrity leaves, the whole batch is committed to
// the Merkle ledger up front and the minted checkpoint rides every item as
// one extra attribute — zero additional SimpleDB calls. Slot replacement
// makes the commit idempotent: a WAL replay or partial-batch retry
// re-commits the same items with the same leaves and converges to the same
// root (only the checkpoint sequence advances).
func (l *Layer) WriteEncodedBatch(ctx context.Context, writes []ItemWrite, faultPrefix string) error {
	if len(writes) > 0 {
		// Invalidate cached query state even on failure: earlier groups of
		// a partially written batch are already visible to queries.
		defer l.InvalidateQueries()
	}
	rootToken := ""
	if l.Ledger != nil {
		slots := make(map[string][]string)
		for _, w := range writes {
			if w.Leaf == "" {
				continue
			}
			item := prov.EncodeItemName(w.Subject)
			slots[item] = append(slots[item], w.Leaf)
		}
		if len(slots) > 0 {
			rootToken = l.Ledger.Commit(slots).Token()
		}
	}
	var landed []prov.Ref
	var group []sdb.BatchItem
	var groupObserve []func()
	var groupSubjects []prov.Ref
	flushGroup := func() error {
		if len(group) == 0 {
			return nil
		}
		batch := group
		err := l.Retrier.Do(ctx, "sdbprov/batch-put", func() error {
			return l.cfg.Cloud.SDB.BatchPutAttributes(l.cfg.Domain, batch)
		})
		if err != nil {
			return fmt.Errorf("sdbprov: batch put attributes: %w", err)
		}
		// The group landed: mirror its items into the planner catalog and
		// record them for partial-failure reporting.
		for _, observe := range groupObserve {
			observe()
		}
		landed = append(landed, groupSubjects...)
		group, groupObserve, groupSubjects = group[:0], groupObserve[:0], groupSubjects[:0]
		return l.cfg.Faults.Check(faultPrefix + "/after-batchput")
	}
	// partial tags errors with whatever landed before the failure.
	partial := func(err error) error { return core.PartialWrite(landed, err) }

	seen := make(map[string]bool, len(writes))
	for _, w := range writes {
		if err := ctx.Err(); err != nil {
			return partial(err)
		}
		attrs, observe, err := l.buildAttrs(ctx, w.Subject, w.Records, w.MD5, rootToken, faultPrefix)
		if err != nil {
			return partial(err)
		}
		if len(attrs) > sdb.MaxAttrsPerCall {
			// Oversized item: the chunked single-item path. Flush the
			// pending group first so the batch's ancestors-before-
			// descendants write order survives a crash between calls.
			if err := flushGroup(); err != nil {
				return partial(err)
			}
			clear(seen)
			if err := l.putChunked(ctx, w.Subject, attrs, faultPrefix); err != nil {
				return partial(err)
			}
			observe()
			landed = append(landed, w.Subject)
			continue
		}
		name := prov.EncodeItemName(w.Subject)
		if seen[name] {
			// The same subject twice in one batch (version churn): flush
			// the group so the duplicate lands in a later call, preserving
			// write order without tripping the one-item-per-call rule.
			if err := flushGroup(); err != nil {
				return partial(err)
			}
			clear(seen)
		}
		seen[name] = true
		group = append(group, sdb.BatchItem{Name: name, Attrs: attrs})
		groupObserve = append(groupObserve, observe)
		groupSubjects = append(groupSubjects, w.Subject)
		if len(group) == sdb.MaxItemsPerBatch {
			if err := flushGroup(); err != nil {
				return partial(err)
			}
			clear(seen)
		}
	}
	return partial(flushGroup())
}

// FetchItem retrieves and decodes a subject's provenance. ok is false when
// the item is not (yet) visible.
func (l *Layer) FetchItem(ctx context.Context, subject prov.Ref) (records []prov.Record, md5hex string, ok bool, err error) {
	item := prov.EncodeItemName(subject)
	var attrs []sdb.Attr
	err = l.Retrier.Do(ctx, "sdbprov/get-attributes", func() error {
		var gerr error
		attrs, ok, gerr = l.cfg.Cloud.SDB.GetAttributes(l.cfg.Domain, item)
		return gerr
	})
	if err != nil || !ok {
		return nil, "", ok, err
	}
	records, md5hex, _, err = l.decodeAttrs(ctx, subject, attrs)
	if err != nil {
		return nil, "", false, err
	}
	return records, md5hex, true, nil
}

// decodeAttrs converts stored attributes back into records, resolving value
// pointers (one GET each) and the item-spill object if present. rootToken
// is the item's integrity checkpoint rider, if any.
func (l *Layer) decodeAttrs(ctx context.Context, subject prov.Ref, attrs []sdb.Attr) ([]prov.Record, string, string, error) {
	var md5hex, moreKey, rootToken string
	out := make([]prov.Record, 0, len(attrs))
	for _, a := range attrs {
		switch a.Name {
		case AttrMD5:
			md5hex = a.Value
			continue
		case AttrMore:
			moreKey = a.Value
			continue
		case integrity.AttrRoot:
			rootToken = a.Value
			continue
		}
		rec, err := l.decodeStored(ctx, subject, a.Name, a.Value)
		if err != nil {
			return nil, "", "", err
		}
		out = append(out, rec)
	}
	if moreKey != "" {
		var obj *s3.Object
		err := l.Retrier.Do(ctx, "sdbprov/spill-get", func() error {
			var gerr error
			obj, gerr = l.cfg.Cloud.S3.Get(l.cfg.Bucket, moreKey)
			return gerr
		})
		if err != nil {
			return nil, "", "", fmt.Errorf("sdbprov: spill get: %w", err)
		}
		spilled, err := prov.UnmarshalJSONRecords(obj.Body)
		if err != nil {
			return nil, "", "", err
		}
		for _, rec := range spilled {
			if rec.Value.Kind == prov.KindString {
				// Spilled string values carry the stored form.
				resolved, err := l.decodeStored(ctx, subject, rec.Attr, rec.Value.Str)
				if err != nil {
					return nil, "", "", err
				}
				rec = resolved
			}
			out = append(out, rec)
		}
	}
	return out, md5hex, rootToken, nil
}

// decodeStored turns one stored attribute value back into a record,
// resolving pointers and unescaping literals.
func (l *Layer) decodeStored(ctx context.Context, subject prov.Ref, attr, raw string) (prov.Record, error) {
	if !prov.IsRefAttr(attr) {
		okey, literal, isPtr := core.DecodeValue(raw)
		if isPtr {
			var obj *s3.Object
			err := l.Retrier.Do(ctx, "sdbprov/overflow-get", func() error {
				var gerr error
				obj, gerr = l.cfg.Cloud.S3.Get(l.cfg.Bucket, okey)
				return gerr
			})
			if err != nil {
				return prov.Record{}, fmt.Errorf("sdbprov: overflow get: %w", err)
			}
			literal = string(obj.Body)
		}
		return prov.Record{Subject: subject, Attr: attr, Value: prov.StringValue(literal)}, nil
	}
	ref, err := prov.ParseRef(raw)
	if err != nil {
		return prov.Record{}, fmt.Errorf("sdbprov: %w", err)
	}
	return prov.Record{Subject: subject, Attr: attr, Value: prov.RefValue(ref)}, nil
}

// VerifiedGet implements the §4.2 read protocol: retrieve the data and its
// provenance, verify MD5(data‖nonce) against the consistency record, and
// retry on mismatch "until we get consistent provenance and data". It
// returns core.ErrInconsistent when the retry budget is exhausted and
// core.ErrNoProvenance when data exists but its item never appears —
// the atomicity-violation surface.
func (l *Layer) VerifiedGet(ctx context.Context, object prov.ObjectID) (*core.Object, error) {
	var lastErr error = core.ErrInconsistent
	for attempt := 0; attempt <= l.cfg.MaxReadRetries; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if attempt > 0 {
			l.cfg.RetryWait()
		}

		var obj *s3.Object
		err := l.Retrier.Do(ctx, "sdbprov/data-get", func() error {
			var gerr error
			obj, gerr = l.cfg.Cloud.S3.Get(l.cfg.Bucket, DataKey(object))
			return gerr
		})
		if err != nil {
			if errors.Is(err, s3.ErrNoSuchKey) {
				lastErr = fmt.Errorf("%w: %s", core.ErrNotFound, object)
				continue // the object may simply not have propagated yet
			}
			return nil, err
		}
		nonce := obj.Metadata[MetaNonce]
		ver, verr := strconv.Atoi(obj.Metadata[MetaVersion])
		if verr != nil {
			lastErr = fmt.Errorf("%w: data missing version metadata", core.ErrNoProvenance)
			continue
		}
		ref := prov.Ref{Object: object, Version: prov.Version(ver)}

		records, md5hex, ok, err := l.FetchItem(ctx, ref)
		if err != nil {
			return nil, err
		}
		if !ok {
			lastErr = fmt.Errorf("%w: %s", core.ErrNoProvenance, ref)
			continue
		}
		if md5hex == "" || md5hex != ConsistencyMD5(obj.Body, nonce) {
			// Eventual consistency let S3 and SimpleDB disagree; reissue.
			lastErr = fmt.Errorf("%w: %s (md5 mismatch)", core.ErrInconsistent, ref)
			continue
		}
		return &core.Object{Ref: ref, Data: obj.Body, Records: records}, nil
	}
	return nil, lastErr
}

// --- query engine (Table 3, SimpleDB column) --------------------------------

// scanSeq is the live one-query-per-item repository scan: "there is no way
// for SimpleDB to generalize the query and needs to issue one query per
// item" (§5, Q.1). Pagination means only one Select page plus one item are
// resident at once.
func (l *Layer) scanSeq(ctx context.Context) iter.Seq2[core.Entry, error] {
	return func(yield func(core.Entry, error) bool) {
		for name, err := range l.itemNames(ctx, "sdbprov/scan-select") {
			if err != nil {
				yield(core.Entry{}, err)
				return
			}
			ref, perr := prov.ParseItemName(name)
			if perr != nil {
				continue // foreign item in a shared domain
			}
			records, _, ok, err := l.FetchItem(ctx, ref)
			if err != nil {
				yield(core.Entry{}, err)
				return
			}
			if !ok {
				continue
			}
			if !yield(core.Entry{Ref: ref, Records: records}, nil) {
				return
			}
		}
	}
}

// itemNames streams the name of every item in the domain — subjects, the
// ledger item and foreign items alike — paging "select itemName()" with
// each page request retried as op.
func (l *Layer) itemNames(ctx context.Context, op string) iter.Seq2[string, error] {
	return func(yield func(string, error) bool) {
		for items, err := range core.SelectPages(ctx, l.Retrier, op, l.cfg.Cloud.SDB, "select itemName() from "+l.cfg.Domain) {
			if err != nil {
				yield("", err)
				return
			}
			for _, item := range items {
				if !yield(item.Name, nil) {
					return
				}
			}
		}
	}
}

// --- integrity (chain/ledger/audit) -----------------------------------------

// DropFromLedger removes deleted items' leaves from the Merkle ledger and
// re-persists a fresh checkpoint on the dedicated ledger item, so the
// commitment follows a legitimate deletion (the orphan scan, an arc
// removal) instead of flagging it. Callers invoke it once something was
// deleted, even when none of the items held a slot. This is the one place
// a checkpoint costs its own SimpleDB call — a recovery path, never the
// healthy write path.
func (l *Layer) DropFromLedger(ctx context.Context, items []string) error {
	if l.Ledger == nil {
		return nil
	}
	for _, item := range items {
		l.Ledger.Remove(item)
	}
	cp := l.Ledger.Commit(nil)
	attrs := []sdb.ReplaceableAttr{{Name: integrity.AttrRoot, Value: cp.Token(), Replace: true}}
	err := l.Retrier.Do(ctx, "sdbprov/ledger-put", func() error {
		return l.cfg.Cloud.SDB.PutAttributes(l.cfg.Domain, LedgerItem, attrs)
	})
	if err != nil {
		return fmt.Errorf("sdbprov: ledger put: %w", err)
	}
	return nil
}

// Audit implements integrity.Auditor: a live full-domain scan (never the
// query cache — a verifier must read what is actually stored) returning
// every item's decoded records plus every checkpoint rider encountered.
// The op cost — Select pages, one GetAttributes per item, pointer GETs —
// is exactly what the verification-cost benchmark meters.
func (l *Layer) Audit(ctx context.Context) (*integrity.Audit, error) {
	a := &integrity.Audit{
		Entries:        make(map[prov.Ref][]prov.Record),
		RetainsHistory: true, // items are per-version and never reclaimed
	}
	for name, err := range l.itemNames(ctx, "sdbprov/audit-select") {
		if err != nil {
			return nil, err
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var attrs []sdb.Attr
		var ok bool
		err := l.Retrier.Do(ctx, "sdbprov/audit-get", func() error {
			var gerr error
			attrs, ok, gerr = l.cfg.Cloud.SDB.GetAttributes(l.cfg.Domain, name)
			return gerr
		})
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		ref, perr := prov.ParseItemName(name)
		if perr != nil {
			// The ledger item (or a foreign item): harvest any rider.
			for _, at := range attrs {
				if at.Name == integrity.AttrRoot {
					a.AddCheckpoint(at.Value)
				}
			}
			continue
		}
		records, _, rider, err := l.decodeAttrs(ctx, ref, attrs)
		if err != nil {
			return nil, err
		}
		a.Entries[ref] = records
		a.AddCheckpoint(rider)
	}
	return a, nil
}
