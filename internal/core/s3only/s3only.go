// Package s3only implements the paper's first architecture (§4.1, Figure 1):
// PASS with S3 as the only storage substrate. Each file maps to an S3
// object; its provenance travels as S3 user metadata in the very same PUT,
// which is what gives this architecture read correctness for free —
// "either both provenance and data are stored or they are both not stored".
//
// Two complications the paper describes are implemented faithfully:
//
//   - records whose values exceed 1 KB are stored as separate S3 objects
//     and referenced by pointer from the metadata (one extra PUT each);
//   - metadata beyond S3's 2 KB limit spills into a bundle object, which
//     "introduces read correctness challenges and only worsens the query
//     problem" — the bundle is written before the data PUT so a crash
//     leaves garbage, never data without provenance.
//
// Transient objects (processes, pipes) have no S3 object of their own:
// their records ride along in the metadata of the descendant file PUT that
// triggered their flush. This matches the paper's op accounting, where the
// only extra PUTs are the >1 KB overflow records.
//
// Querying is the architecture's weakness: "if we do not know the exact
// object whose provenance we seek, then we might need to iterate over the
// provenance of every object in the repository". The store's core.Kernel
// answers every descriptor from exactly that scan — LIST plus one HEAD per
// object plus one GET per overflow object — so the metered cost exhibits
// the paper's Table 3 row.
// Two mitigations soften the cost without changing it: the per-page HEADs
// run with bounded concurrency (ScanConcurrency), cutting scan latency by
// the concurrency factor, and the scanned graph is kept in a
// generation-stamped snapshot cache (internal/core/qcache) so repeated
// queries on an unchanged repository cost zero cloud ops. Config.
// DisableQueryCache restores the paper's every-query-scans behaviour.
package s3only

import (
	"context"
	"crypto/md5"
	"encoding/hex"
	"errors"
	"fmt"
	"iter"
	"maps"
	"sort"
	"strconv"
	"strings"
	"sync"

	"passcloud/internal/cloud"
	"passcloud/internal/cloud/awserr"
	"passcloud/internal/cloud/retry"
	"passcloud/internal/cloud/s3"
	"passcloud/internal/core"
	"passcloud/internal/core/integrity"
	"passcloud/internal/core/planner"
	"passcloud/internal/pass"
	"passcloud/internal/prov"
	"passcloud/internal/sim"
)

// Reserved metadata keys (outside the provenance encoding).
const (
	metaVersion  = "x-ver"  // version of the stored object
	metaOverflow = "x-over" // pointer to the spill bundle object
)

// Key layout within the bucket.
const (
	dataPrefix = "data"
	provPrefix = "prov"
)

// budget is the metadata space left for provenance after reserved keys and
// the integrity checkpoint rider. The rider's worst-case size is reserved
// unconditionally — with integrity disabled too — so the spill boundaries
// (and with them the op counts) are bit-identical between an integrity run
// and its parity baseline.
const budget = s3.MaxMetadataSize - 64 - riderReserve

// riderReserve holds space for the x-root metadata key and its checkpoint
// token ("v2|writer|seq|count|32-hex-root").
const riderReserve = 96

// Config parameterizes the store.
type Config struct {
	// Cloud supplies the S3 service. Required.
	Cloud *cloud.Cloud
	// Bucket is created if missing. Defaults to "pass".
	Bucket string
	// Faults optionally injects client crashes at protocol points.
	Faults *sim.FaultPlan
	// PutConcurrency bounds the number of in-flight data PUTs when a
	// batch carries several independent file versions (default 4). S3 has
	// no batch PUT, so overlap is the only amortization available to this
	// architecture; versions of the same object always stay sequential so
	// last-writer-wins resolves in causal order.
	PutConcurrency int
	// ScanConcurrency bounds the in-flight HEADs per LIST page during
	// repository scans (default: PutConcurrency). The scan stays one LIST
	// page at a time; only the per-object HEADs within a page overlap.
	ScanConcurrency int
	// DisableQueryCache turns off the snapshot cache, restoring the
	// paper's behaviour of one full scan per query (Table 3's S3 row).
	DisableQueryCache bool
	// Retry bounds the transient-error backoff around every cloud call the
	// store issues. The zero value uses the shared defaults.
	Retry retry.Policy
	// Writer identifies this client in integrity checkpoints (default "w").
	Writer string
	// DisableIntegrity turns off the Merkle ledger and checkpoint riders —
	// the op-count parity baseline.
	DisableIntegrity bool
}

// Store is the S3-only architecture. Its kernel serves queries from the
// metadata scan. The kernel's ledger is keyed by data object key: this
// architecture overwrites an object's metadata in place, so a slot's
// leaves are replaced whenever its key is re-PUT.
type Store struct {
	*core.Kernel
	cloud       *cloud.Cloud
	bucket      string
	faults      *sim.FaultPlan
	concurrency int
	scanConc    int

	// catalog mirrors this client's data PUTs for Explain's predictions.
	catalog *planner.S3Catalog

	mu sync.Mutex
	// foreign buffers transient ancestors' records until the descendant
	// file PUT they will ride on. Client-side state: a crash loses it,
	// exactly like the paper's client-side caches.
	foreign []prov.Record
	// pnodeSeq numbers the marker objects Sync writes for trailing
	// transient provenance.
	pnodeSeq int
	// latest tracks the highest version this client has successfully PUT
	// per data key. Partial-batch recovery can reorder flushes across
	// retries (a new version lands while an older one stays pending); an
	// older version must then never overwrite the newer object.
	latest map[string]prov.Version
}

// New builds the store, creating its bucket if needed.
func New(cfg Config) (*Store, error) {
	if cfg.Cloud == nil {
		return nil, errors.New("s3only: Config.Cloud is required")
	}
	if cfg.Bucket == "" {
		cfg.Bucket = "pass"
	}
	if cfg.PutConcurrency <= 0 {
		cfg.PutConcurrency = 4
	}
	if cfg.ScanConcurrency <= 0 {
		cfg.ScanConcurrency = cfg.PutConcurrency
	}
	s := &Store{cloud: cfg.Cloud, bucket: cfg.Bucket, faults: cfg.Faults,
		concurrency: cfg.PutConcurrency, scanConc: cfg.ScanConcurrency,
		catalog: planner.NewS3Catalog(), latest: make(map[string]prov.Version)}
	k, err := core.NewKernel(core.KernelConfig{
		Cloud: cfg.Cloud,
		Setup: func() error {
			//passvet:allow retrywrap -- one-shot namespace setup at construction: no caller context exists yet, and a failure surfaces directly instead of being retried behind the builder's back
			if err := cfg.Cloud.S3.CreateBucket(cfg.Bucket); err != nil && !errors.Is(err, s3.ErrBucketAlreadyExists) {
				return err
			}
			return nil
		},
		Scan:              s.scanSeq,
		DisableQueryCache: cfg.DisableQueryCache,
		Retry:             cfg.Retry,
		Writer:            cfg.Writer,
		DisableIntegrity:  cfg.DisableIntegrity,
	})
	if err != nil {
		return nil, err
	}
	s.Kernel = k
	return s, nil
}

// Name implements core.Store.
func (s *Store) Name() string { return "s3" }

// Properties implements core.Store: Table 1 row 1.
func (s *Store) Properties() core.Properties {
	return core.Properties{
		Atomicity:      true,
		Consistency:    true,
		CausalOrdering: true,
		EfficientQuery: false,
	}
}

func dataKey(object prov.ObjectID) string { return dataPrefix + string(object) }

func overflowKey(subject prov.Ref, n int) string {
	return fmt.Sprintf("%s/%s/%d", provPrefix, prov.EncodeItemName(subject), n)
}

func bundleKey(subject prov.Ref) string {
	return fmt.Sprintf("%s/%s/bundle", provPrefix, prov.EncodeItemName(subject))
}

// dataPut is one assembled file PUT awaiting execution.
type dataPut struct {
	key  string
	data []byte
	meta map[string]string
	// gets is what decoding this object's metadata costs a scan (overflow
	// pointer and bundle GETs) — recorded into the planner catalog once
	// the PUT lands.
	gets int64
	// ref is the file version this PUT persists.
	ref prov.Ref
	// riders are the transient subjects whose buffered records travel in
	// this PUT's metadata: when the PUT lands, their provenance landed too.
	riders []prov.Ref
	// carriesSaved marks the PUT that drained pre-batch leftovers of the
	// foreign buffer; if it lands, a failed batch must not restore them.
	carriesSaved bool
}

// batchResult accumulates what a (possibly failing) putBatch achieved.
type batchResult struct {
	mu sync.Mutex
	// landed lists fully persisted refs: file versions whose PUT completed
	// plus the transient riders those PUTs carried.
	landed []prov.Ref
	// savedLanded reports that the pre-batch foreign leftovers persisted.
	savedLanded bool
}

func (r *batchResult) record(p dataPut) {
	r.mu.Lock()
	r.landed = append(r.landed, p.ref)
	r.landed = append(r.landed, p.riders...)
	if p.carriesSaved {
		r.savedLanded = true
	}
	r.mu.Unlock()
}

func (r *batchResult) recordRef(ref prov.Ref) {
	r.mu.Lock()
	r.landed = append(r.landed, ref)
	r.mu.Unlock()
}

// PutBatch implements core.Store. Protocol (§4.1), batch-first: transient
// events buffer their records to ride the next file PUT of the batch (its
// triggering descendant, by PASS flush order); each file event's metadata
// is assembled sequentially (overflow and bundle PUTs happen here, before
// any data PUT); then the batch's independent data PUTs — each carrying
// its object and provenance atomically — execute concurrently under the
// PutConcurrency bound.
//
// The foreign buffer is transactional across the batch: on any error the
// buffer is restored so that pre-batch leftovers that did not persist are
// carried again, while leftovers that rode a PUT which landed are not —
// a replayed batch neither loses trailing transient provenance nor
// duplicates it.
//
// A failing batch in which some PUTs completed returns a typed
// core.PartialWriteError naming the fully persisted events (file versions
// and their transient riders); the caller retries only the remainder.
func (s *Store) PutBatch(ctx context.Context, batch []pass.FlushEvent) error {
	// Invalidate cached query snapshots even when the batch fails: partial
	// effects (overflow or bundle PUTs) may already be visible to a scan.
	defer s.InvalidateQueries()
	s.mu.Lock()
	saved := append([]prov.Record(nil), s.foreign...)
	s.mu.Unlock()
	res := &batchResult{}
	if err := s.TrackWrites(func() error { return s.putBatch(ctx, batch, len(saved) > 0, res) }); err != nil {
		s.mu.Lock()
		if res.savedLanded {
			// The leftovers persisted with a landed PUT; restoring them
			// would duplicate their records on the next flush. This-batch
			// records are dropped either way: the caller re-sends their
			// events (minus the landed ones).
			s.foreign = nil
		} else {
			s.foreign = saved
		}
		s.mu.Unlock()
		return core.PartialWrite(res.landed, err)
	}
	return nil
}

func (s *Store) putBatch(ctx context.Context, batch []pass.FlushEvent, savedPresent bool, res *batchResult) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	var puts []dataPut
	for _, ev := range batch {
		if err := ctx.Err(); err != nil {
			return err
		}
		if !ev.Persistent() {
			// Transient object: buffer; its records ride the batch's next
			// file PUT.
			s.mu.Lock()
			s.foreign = append(s.foreign, ev.Records...)
			s.mu.Unlock()
			continue
		}

		if err := s.faults.Check("s3only/before-put"); err != nil {
			return err
		}

		s.mu.Lock()
		stale := s.latest[dataKey(ev.Ref.Object)] > ev.Ref.Version
		s.mu.Unlock()
		if stale {
			// A newer version of this object already landed (an earlier
			// attempt of this chain persisted it before this older pending
			// version was retried): PUTting it would regress the object.
			// Its metadata records would be overwritten by the newer PUT
			// anyway — architecture 1 keeps one version per object — so
			// the event is complete as-is. The foreign buffer is NOT
			// drained: the riders move on to the next carrier.
			res.recordRef(ev.Ref)
			continue
		}

		s.mu.Lock()
		foreign := s.foreign
		s.foreign = nil
		s.mu.Unlock()

		meta, gets, err := s.encodeMetadata(ctx, ev.Ref, ev.Records, foreign)
		if err != nil {
			return err
		}
		s.mintRider(dataKey(ev.Ref.Object), ev.Ref, ev.Records, foreign, meta)
		p := dataPut{key: dataKey(ev.Ref.Object), data: ev.Data, meta: meta, gets: gets, ref: ev.Ref}
		if len(foreign) > 0 {
			p.riders = riderSubjects(foreign)
			p.carriesSaved = savedPresent
			savedPresent = false // the drain emptied the buffer
		}
		puts = append(puts, p)
	}

	// The data PUTs: data and provenance stored atomically, overlapped
	// across independent objects.
	if err := s.doPuts(ctx, puts, res); err != nil {
		return err
	}
	return s.faults.Check("s3only/after-put")
}

// putCarrier executes one provenance-carrying PUT under the retrier. When
// the retry budget exhausts on an ambiguous lost-response chain
// (awserr.ErrRequestTimeout: the op may have been applied), a HEAD probe
// settles whether this exact write — same body, same metadata — is in fact
// durable. Without the probe, a landed-but-reported-failed carrier would
// have its rider records restored and re-carried by a later PUT under a
// different key, double-applying them.
func (s *Store) putCarrier(ctx context.Context, op, key string, body []byte, meta map[string]string) error {
	err := s.Retrier.Do(ctx, op, func() error {
		return s.cloud.S3.Put(s.bucket, key, body, meta)
	})
	if err == nil || !errors.Is(err, awserr.ErrRequestTimeout) {
		return err
	}
	info, herr := s.cloud.S3.Head(s.bucket, key)
	if herr != nil {
		return err
	}
	sum := md5.Sum(body)
	if info.ETag == hex.EncodeToString(sum[:]) && maps.Equal(info.Metadata, meta) {
		return nil // the lost-response attempt applied; the write is durable
	}
	return err
}

// mintRider commits the carrier's leaf set to the ledger and stamps the
// checkpoint token into the PUT's metadata, so the commitment rides the
// write the batch was issuing anyway. The ledger slot is the data key:
// re-PUTting a key replaces its object and metadata wholesale, so the
// slot's previous leaves are replaced to match. A subject with no records
// contributes no leaf — the scan would never yield it as an entry.
func (s *Store) mintRider(key string, own prov.Ref, ownRecords, foreign []prov.Record, meta map[string]string) {
	if s.Ledger == nil {
		return
	}
	var leaves []string
	if len(ownRecords) > 0 {
		leaves = append(leaves, integrity.SubjectHash(own, ownRecords))
	}
	for _, ref := range riderSubjects(foreign) {
		var recs []prov.Record
		for _, r := range foreign {
			if r.Subject == ref {
				recs = append(recs, r)
			}
		}
		leaves = append(leaves, integrity.SubjectHash(ref, recs))
	}
	meta[integrity.AttrRoot] = s.Ledger.Commit(map[string][]string{key: leaves}).Token()
}

// riderSubjects returns the distinct subjects of the buffered records, in
// first-appearance order.
func riderSubjects(records []prov.Record) []prov.Ref {
	seen := make(map[prov.Ref]bool, len(records))
	var out []prov.Ref
	for _, r := range records {
		if !seen[r.Subject] {
			seen[r.Subject] = true
			out = append(out, r.Subject)
		}
	}
	return out
}

// doPuts executes the batch's data PUTs with bounded concurrency. PUTs to
// the same key (several versions of one object in one batch) stay in order
// on one worker, so last-writer-wins resolves to the newest version.
// Transient S3 errors back off and retry; a re-PUT of the same key, body
// and metadata is idempotent, so a retry after a lost response cannot
// double-apply. Completed PUTs are recorded in res even when a later PUT
// sinks the batch.
func (s *Store) doPuts(ctx context.Context, puts []dataPut, res *batchResult) error {
	if len(puts) == 0 {
		return nil
	}
	// Group same-key PUTs, preserving batch order within each group.
	var order []string
	groups := make(map[string][]dataPut)
	for _, p := range puts {
		if _, ok := groups[p.key]; !ok {
			order = append(order, p.key)
		}
		groups[p.key] = append(groups[p.key], p)
	}
	return core.RunLimited(ctx, len(order), s.concurrency, func(i int) error {
		for _, p := range groups[order[i]] {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := s.putCarrier(ctx, "s3only/data-put", p.key, p.data, p.meta); err != nil {
				return fmt.Errorf("s3only: data put: %w", err)
			}
			s.mu.Lock()
			if p.ref.Version > s.latest[p.key] {
				s.latest[p.key] = p.ref.Version
			}
			s.mu.Unlock()
			s.catalog.Observe(p.key, p.gets)
			res.record(p)
		}
		return nil
	})
}

// encodeMetadata renders own + foreign records into S3 metadata, diverting
// >1 KB values to overflow objects and spilling past-2KB remainder into a
// bundle object. The overflow and bundle PUTs happen before the data PUT.
func (s *Store) encodeMetadata(ctx context.Context, subject prov.Ref, own, foreign []prov.Record) (map[string]string, int64, error) {
	meta := map[string]string{
		metaVersion: strconv.Itoa(int(subject.Version)),
	}

	overflowN := 0
	size := len(metaVersion) + len(meta[metaVersion])
	var spill []prov.Record

	// encodeValue diverts >1 KB values to their own S3 objects ("There are
	// 24,952 such records that result in an equal number of additional PUT
	// operations") and escapes literals. It returns the stored form.
	encodeValue := func(v string) (string, error) {
		if len(v) <= core.OverflowThreshold {
			return core.EscapeLiteral(v), nil
		}
		okey := overflowKey(subject, overflowN)
		overflowN++
		err := s.Retrier.Do(ctx, "s3only/overflow-put", func() error {
			return s.cloud.S3.Put(s.bucket, okey, []byte(v), nil)
		})
		if err != nil {
			return "", fmt.Errorf("s3only: overflow put: %w", err)
		}
		if err := s.faults.Check("s3only/after-overflow-put"); err != nil {
			return "", err
		}
		return core.PointerValue(okey), nil
	}

	add := func(key string, rec prov.Record, foreignSubject bool) error {
		value := rec.Value.String()
		if rec.Value.Kind == prov.KindString {
			var err error
			value, err = encodeValue(value)
			if err != nil {
				return err
			}
		}
		var entry string
		if foreignSubject {
			entry = rec.Subject.String() + fieldSep + rec.Attr + fieldSep + value
		} else {
			entry = rec.Attr + fieldSep + value
		}
		if size+len(key)+len(entry) > budget {
			// No metadata room left: the record goes to the spill bundle,
			// keeping its (possibly pointer-encoded) stored form.
			if rec.Value.Kind == prov.KindString {
				rec.Value = prov.StringValue(value)
			}
			spill = append(spill, rec)
			return nil
		}
		meta[key] = entry
		size += len(key) + len(entry)
		return nil
	}

	for i, rec := range own {
		if err := add(fmt.Sprintf("p-%d", i), rec, false); err != nil {
			return nil, 0, err
		}
	}
	for i, rec := range foreign {
		if err := add(fmt.Sprintf("q-%d", i), rec, true); err != nil {
			return nil, 0, err
		}
	}

	gets := int64(overflowN)
	if len(spill) > 0 {
		bkey := bundleKey(subject)
		blob, err := prov.MarshalJSONRecords(spill)
		if err != nil {
			return nil, 0, err
		}
		err = s.Retrier.Do(ctx, "s3only/bundle-put", func() error {
			return s.cloud.S3.Put(s.bucket, bkey, blob, nil)
		})
		if err != nil {
			return nil, 0, fmt.Errorf("s3only: bundle put: %w", err)
		}
		if err := s.faults.Check("s3only/after-bundle-put"); err != nil {
			return nil, 0, err
		}
		meta[metaOverflow] = bkey
		gets++
	}
	return meta, gets, nil
}

// fieldSep separates fields inside a metadata value.
const fieldSep = "\x1f"

// decodeEntry parses one metadata value, resolving overflow pointers.
func (s *Store) decodeEntry(subject prov.Ref, key, entry string, foreign bool) (prov.Record, error) {
	parts := strings.SplitN(entry, fieldSep, 3)
	var attr, raw string
	subj := subject
	if foreign {
		if len(parts) != 3 {
			return prov.Record{}, fmt.Errorf("%w: foreign entry %q", prov.ErrMalformed, key)
		}
		ref, err := prov.ParseRef(parts[0])
		if err != nil {
			return prov.Record{}, err
		}
		subj, attr, raw = ref, parts[1], parts[2]
	} else {
		if len(parts) != 2 {
			return prov.Record{}, fmt.Errorf("%w: entry %q", prov.ErrMalformed, key)
		}
		attr, raw = parts[0], parts[1]
	}

	okey, literal, isPtr := core.DecodeValue(raw)
	if isPtr {
		obj, err := s.cloud.S3.Get(s.bucket, okey)
		if err != nil {
			return prov.Record{}, fmt.Errorf("s3only: overflow get: %w", err)
		}
		literal = string(obj.Body)
	}

	if prov.IsRefAttr(attr) {
		ref, err := prov.ParseRef(literal)
		if err != nil {
			return prov.Record{}, err
		}
		return prov.Record{Subject: subj, Attr: attr, Value: prov.RefValue(ref)}, nil
	}
	return prov.Record{Subject: subj, Attr: attr, Value: prov.StringValue(literal)}, nil
}

// decodeAll extracts every record (own and foreign) from an object's
// metadata, resolving overflow pointers and the spill bundle.
func (s *Store) decodeAll(object prov.ObjectID, meta map[string]string) (ref prov.Ref, records []prov.Record, err error) {
	ver, err := strconv.Atoi(meta[metaVersion])
	if err != nil {
		return prov.Ref{}, nil, fmt.Errorf("%w: missing version metadata", prov.ErrMalformed)
	}
	ref = prov.Ref{Object: object, Version: prov.Version(ver)}

	// Deterministic order: p-* then q-* by numeric suffix, then the
	// bundle. Indexes may be sparse — records that spilled to the bundle
	// leave gaps — so enumerate the keys rather than counting up.
	decodePrefix := func(prefix string, foreign bool) error {
		var idx []int
		for k := range meta {
			if strings.HasPrefix(k, prefix) {
				n, err := strconv.Atoi(strings.TrimPrefix(k, prefix))
				if err != nil {
					return fmt.Errorf("%w: metadata key %q", prov.ErrMalformed, k)
				}
				idx = append(idx, n)
			}
		}
		sort.Ints(idx)
		for _, n := range idx {
			key := prefix + strconv.Itoa(n)
			rec, err := s.decodeEntry(ref, key, meta[key], foreign)
			if err != nil {
				return err
			}
			records = append(records, rec)
		}
		return nil
	}
	if err := decodePrefix("p-", false); err != nil {
		return prov.Ref{}, nil, err
	}
	if err := decodePrefix("q-", true); err != nil {
		return prov.Ref{}, nil, err
	}
	if bkey, ok := meta[metaOverflow]; ok {
		obj, err := s.cloud.S3.Get(s.bucket, bkey)
		if err != nil {
			return prov.Ref{}, nil, fmt.Errorf("s3only: bundle get: %w", err)
		}
		spilled, err := prov.UnmarshalJSONRecords(obj.Body)
		if err != nil {
			return prov.Ref{}, nil, err
		}
		// Bundle string values carry the stored form: unescape literals
		// and resolve overflow pointers.
		for _, rec := range spilled {
			if rec.Value.Kind == prov.KindString {
				okey, literal, isPtr := core.DecodeValue(rec.Value.Str)
				if isPtr {
					oobj, err := s.cloud.S3.Get(s.bucket, okey)
					if err != nil {
						return prov.Ref{}, nil, fmt.Errorf("s3only: overflow get: %w", err)
					}
					literal = string(oobj.Body)
				}
				rec.Value = prov.StringValue(literal)
			}
			records = append(records, rec)
		}
	}
	return ref, records, nil
}

// Get implements core.Store. One GET returns data and metadata together, so
// the provenance always describes the returned bytes.
func (s *Store) Get(ctx context.Context, object prov.ObjectID) (*core.Object, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	obj, err := s.cloud.S3.Get(s.bucket, dataKey(object))
	if err != nil {
		if errors.Is(err, s3.ErrNoSuchKey) {
			return nil, fmt.Errorf("%w: %s", core.ErrNotFound, object)
		}
		return nil, err
	}
	ref, records, err := s.decodeAll(object, obj.Metadata)
	if err != nil {
		return nil, err
	}
	// Keep only this subject's records for the result object.
	var own []prov.Record
	for _, r := range records {
		if r.Subject == ref {
			own = append(own, r)
		}
	}
	return &core.Object{Ref: ref, Data: obj.Body, Records: own}, nil
}

// Provenance implements core.Store. For the current version of an object a
// HEAD suffices ("the only way to read provenance is by issuing a HEAD call
// on an object"); any other ref requires the full scan.
func (s *Store) Provenance(ctx context.Context, ref prov.Ref) ([]prov.Record, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	info, err := s.cloud.S3.Head(s.bucket, dataKey(ref.Object))
	if err == nil {
		cur, records, derr := s.decodeAll(ref.Object, info.Metadata)
		if derr != nil {
			return nil, derr
		}
		if cur == ref {
			var own []prov.Record
			for _, r := range records {
				if r.Subject == ref {
					own = append(own, r)
				}
			}
			return own, nil
		}
	} else if !errors.Is(err, s3.ErrNoSuchKey) {
		return nil, err
	}

	// Older version or transient subject: scan everything.
	all, err := core.CollectRecords(s.Query(ctx, prov.Q1()))
	if err != nil {
		return nil, err
	}
	records, ok := all[ref]
	if !ok {
		return nil, fmt.Errorf("%w: %s", core.ErrNotFound, ref)
	}
	return records, nil
}

// scanned is one object's decoded scan result.
type scanned struct {
	skip    bool // deleted between LIST and HEAD
	records []prov.Record
}

// headObject reads one listed object's metadata under the retrier. ok is
// false only when the object is gone (deleted between LIST and HEAD);
// every other failure is an error, so a fault can never silently drop an
// object's provenance from a scan.
func (s *Store) headObject(ctx context.Context, op, key string) (info *s3.Info, ok bool, err error) {
	err = s.Retrier.Do(ctx, op, func() error {
		var herr error
		info, herr = s.cloud.S3.Head(s.bucket, key)
		return herr
	})
	if errors.Is(err, s3.ErrNoSuchKey) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, err
	}
	return info, true, nil
}

// scanPage HEADs and decodes one LIST page with bounded concurrency,
// returning results in page order. Every worker checks ctx before each
// HEAD, so cancellation mid-page stops promptly instead of draining the
// page's remaining objects.
func (s *Store) scanPage(ctx context.Context, infos []s3.Info) ([]scanned, error) {
	out := make([]scanned, len(infos))
	err := core.RunLimited(ctx, len(infos), s.scanConc, func(i int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		head, ok, err := s.headObject(ctx, "s3only/scan-head", infos[i].Key)
		if err != nil {
			return fmt.Errorf("s3only: scan head: %w", err)
		}
		if !ok {
			out[i].skip = true
			return nil
		}
		object := prov.ObjectID(strings.TrimPrefix(infos[i].Key, dataPrefix))
		_, records, err := s.decodeAll(object, head.Metadata)
		if err != nil {
			return err
		}
		out[i].records = records
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// scanSeq is the live repository scan: LIST pages, parallel HEADs within
// each page, entries yielded in page order. Cancellation is honored per
// object, not per page.
func (s *Store) scanSeq(ctx context.Context) iter.Seq2[core.Entry, error] {
	return func(yield func(core.Entry, error) bool) {
		for objects, err := range core.ListPages(ctx, s.Retrier, "s3only/scan-list", s.cloud.S3, s.bucket, dataPrefix) {
			if err != nil {
				yield(core.Entry{}, err)
				return
			}
			results, err := s.scanPage(ctx, objects)
			if err != nil {
				yield(core.Entry{}, err)
				return
			}
			for _, res := range results {
				if res.skip {
					continue
				}
				var subjects []prov.Ref
				bySubject := make(map[prov.Ref][]prov.Record)
				for _, r := range res.records {
					if _, ok := bySubject[r.Subject]; !ok {
						subjects = append(subjects, r.Subject)
					}
					bySubject[r.Subject] = append(bySubject[r.Subject], r)
				}
				for _, subject := range subjects {
					if !yield(core.Entry{Ref: subject, Records: bySubject[subject]}, nil) {
						return
					}
				}
			}
		}
	}
}

// Explain implements core.Querier: on this architecture every cold plan is
// the same full scan Table 3 charges — LIST pages, one HEAD per object,
// one GET per overflow/bundle object — and every warm plan is free.
func (s *Store) Explain(q prov.Query) core.QueryPlan {
	return s.PlanQuery(s.Name(), q, func(p *core.QueryPlan, _ prov.Query) {
		if s.Cache != nil && s.Cache.Warm() {
			p.Strategy = "snapshot"
			p.Cached = true
			p.AddStep("-", "snapshot", 0, "warm snapshot: zero cloud ops")
			return
		}
		p.Strategy = "scan"
		objects, gets := s.catalog.ScanCost()
		p.AddStep("S3", "LIST", core.PlanPages(objects, s3.DefaultMaxKeys), "page the data prefix")
		p.AddStep("S3", "HEAD", int64(objects), "provenance rides object metadata: one HEAD per object")
		if gets > 0 {
			p.AddStep("S3", "GET", gets, "resolve overflow and bundle objects")
		}
	})
}

// Sync persists any buffered transient provenance that no descendant PUT
// carried (processes whose flush trailed the session's last file close).
// The records ride a one-byte marker object so they remain discoverable by
// the metadata scan, preserving this architecture's single-PUT atomicity.
func (s *Store) Sync(ctx context.Context) error {
	return s.TrackWrites(func() error { return s.sync(ctx) })
}

func (s *Store) sync(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	s.mu.Lock()
	foreign := s.foreign
	s.foreign = nil
	seq := s.pnodeSeq
	s.pnodeSeq++
	s.mu.Unlock()
	if len(foreign) == 0 {
		return nil
	}
	// The marker PUT below changes what a scan sees; even a failed attempt
	// may have written overflow objects.
	defer s.InvalidateQueries()

	subject := prov.Ref{Object: prov.ObjectID(fmt.Sprintf("/.pnodes/%06d", seq)), Version: 0}
	restore := func() {
		s.mu.Lock()
		s.foreign = append(foreign, s.foreign...)
		s.mu.Unlock()
	}
	meta, gets, err := s.encodeMetadata(ctx, subject, nil, foreign)
	if err != nil {
		restore()
		return err
	}
	s.mintRider(dataKey(subject.Object), subject, nil, foreign, meta)
	if err := s.putCarrier(ctx, "s3only/pnode-put", dataKey(subject.Object), []byte{'.'}, meta); err != nil {
		// The records did not persist: put them back so a later Sync
		// retries them, and release the marker sequence number so that
		// retry targets the same key (an overwrite, never a duplicate
		// marker carrying the same records).
		restore()
		s.mu.Lock()
		if s.pnodeSeq == seq+1 {
			s.pnodeSeq = seq
		}
		s.mu.Unlock()
		return fmt.Errorf("s3only: pnode put: %w", err)
	}
	s.catalog.Observe(dataKey(subject.Object), gets)
	return nil
}

// Audit implements integrity.Auditor: a live paged scan — never the query
// cache, a cached snapshot could mask live tampering — that unions each
// subject's stored records and harvests every surviving checkpoint rider
// from the carrier metadata. RetainsHistory is false: this architecture
// overwrites an object's metadata in place, so superseded file versions
// legitimately vanish and a missing predecessor is not a divergence.
func (s *Store) Audit(ctx context.Context) (*integrity.Audit, error) {
	a := &integrity.Audit{Entries: make(map[prov.Ref][]prov.Record)}
	for objects, err := range core.ListPages(ctx, s.Retrier, "s3only/audit-list", s.cloud.S3, s.bucket, dataPrefix) {
		if err != nil {
			return nil, err
		}
		for _, info := range objects {
			head, ok, err := s.headObject(ctx, "s3only/audit-head", info.Key)
			if err != nil {
				return nil, fmt.Errorf("s3only: audit head: %w", err)
			}
			if !ok {
				continue
			}
			a.AddCheckpoint(head.Metadata[integrity.AttrRoot])
			object := prov.ObjectID(strings.TrimPrefix(info.Key, dataPrefix))
			_, records, err := s.decodeAll(object, head.Metadata)
			if err != nil {
				return nil, err
			}
			for _, r := range records {
				a.Entries[r.Subject] = append(a.Entries[r.Subject], r)
			}
		}
	}
	return a, nil
}

var (
	_ core.Store        = (*Store)(nil)
	_ core.Querier      = (*Store)(nil)
	_ core.GraphQuerier = (*Store)(nil)
	_ core.Syncer       = (*Store)(nil)
)
