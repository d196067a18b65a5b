package s3sdbsqs

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"time"

	"passcloud/internal/cloud"
	"passcloud/internal/cloud/s3"
	"passcloud/internal/cloud/sqs"
	"passcloud/internal/core/sdbprov"
	"passcloud/internal/prov"
	"passcloud/internal/sim"
)

// CommitDaemon executes the §4.3 commit phase: "A separate daemon on the
// client, the commit daemon, reads the log records from transactions that
// have a commit record and pushes them to S3 and SimpleDB appropriately.
// After transmitting all the operations for a transaction, the commit
// daemon deletes the log records in the WAL queue."
//
// Replay safety relies on idempotency (§4.3): COPY keeps the temporary
// object until the final delete, so a crash mid-commit simply reprocesses
// the transaction — re-COPY and re-PutAttributes change nothing. Two
// details harden that story against redelivery:
//
//   - transactions assemble by distinct WAL sequence number, never by
//     message copy, so duplicate deliveries (SQS at-least-once) and
//     duplicate sends (a client retrying a lost response) cannot make a
//     transaction look complete while a distinct record is missing;
//   - a transaction observed via redelivered messages re-COPYs its data
//     only after confirming the live object is not already a NEWER version
//     — a stale transaction replayed after a crash-before-delete must not
//     regress an object that committed again since.
type CommitDaemon struct {
	cloud  *cloud.Cloud
	layer  *sdbprov.Layer
	queue  string
	faults *sim.FaultPlan

	// Threshold is the approximate queue depth that triggers a drain:
	// "The daemon periodically monitors the WAL queue for the number of
	// messages ... Once it exceeds a threshold, the daemon executes the
	// commit phase."
	Threshold int

	// Visibility hides received messages while a drain is in progress.
	Visibility time.Duration

	// pending carries partially assembled transactions across rounds: due
	// to SQS's eventual consistency "there may be times where the daemon
	// receives the commit record of a transaction but does not receive all
	// rest of the records".
	pending map[string]*txState

	// committedVersion tracks, per real data key, the highest version this
	// daemon has committed in its lifetime: the cheap (no extra ops) replay
	// guard. A restarted daemon loses it and falls back to the HEAD probe
	// on redelivered transactions.
	committedVersion map[string]int
}

// txState is one transaction under assembly. A transaction covers one PASS
// flush batch, so it may carry several data pointers (one per file version)
// and the provenance of several items.
type txState struct {
	begin    bool
	count    int // total messages in the tx, begin and commit included
	commit   bool
	dataMsgs []walMessage
	md5Msgs  []walMessage
	provMsgs []walMessage
	seqSeen  map[int]bool      // distinct WAL sequence numbers absorbed
	receipts map[string]string // message ID -> latest receipt handle
	// redelivered is set when any copy arrived with ReceiveCount > 1: a
	// prior daemon may have partially committed this tx before crashing.
	redelivered bool
	// firstSeen bounds how long an incomplete tx is retained.
	firstSeen time.Time
}

// NewCommitDaemon builds a daemon for a store's WAL queue.
func NewCommitDaemon(st *Store, faults *sim.FaultPlan) *CommitDaemon {
	return &CommitDaemon{
		cloud:            st.cloud,
		layer:            st.Layer(),
		queue:            st.queue,
		faults:           faults,
		Threshold:        1,
		Visibility:       5 * time.Minute,
		pending:          make(map[string]*txState),
		committedVersion: make(map[string]int),
	}
}

// RunOnce performs one daemon cycle: check the approximate queue depth
// against the threshold, and if reached (or force is set), drain the queue
// and process every complete committed transaction. It returns the number
// of transactions committed this round.
func (d *CommitDaemon) RunOnce(ctx context.Context, force bool) (int, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	if !force {
		var n int
		err := d.layer.Retrier.Do(ctx, "s3sdbsqs/queue-depth", func() error {
			var qerr error
			n, qerr = d.cloud.SQS.ApproximateNumberOfMessages(d.queue)
			return qerr
		})
		if err != nil {
			return 0, err
		}
		if n < d.Threshold {
			return 0, nil
		}
	}
	if err := d.drain(ctx); err != nil {
		return 0, err
	}
	return d.processReady(ctx)
}

// Run loops RunOnce until the context ends, advancing through the poll
// interval on the simulated clock. Examples use it; tests use RunOnce.
func (d *CommitDaemon) Run(ctx context.Context, poll time.Duration) error {
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		if _, err := d.RunOnce(ctx, false); err != nil {
			return err
		}
		d.cloud.Clock.Advance(poll)
	}
}

// drain pulls messages until several consecutive receives come back empty —
// the repeat-until-satisfied discipline SQS sampling demands. Transient
// receive errors back off and retry inside the loop.
func (d *CommitDaemon) drain(ctx context.Context) error {
	emptyRounds := 0
	for emptyRounds < 4 {
		if err := ctx.Err(); err != nil {
			return err
		}
		var batch []sqs.Message
		err := d.layer.Retrier.Do(ctx, "s3sdbsqs/wal-receive", func() error {
			var rerr error
			batch, rerr = d.cloud.SQS.ReceiveMessage(d.queue, 10, d.Visibility)
			return rerr
		})
		if err != nil {
			return err
		}
		if len(batch) == 0 {
			emptyRounds++
			continue
		}
		emptyRounds = 0
		for _, m := range batch {
			wal, err := decodeWAL(m.Body)
			if err != nil {
				// A corrupt message cannot belong to a valid commit;
				// delete it so it stops churning.
				//passvet:allow retrywrap -- best-effort purge of an undecodable message: a lost delete only means SQS re-offers it next round, so retrying here buys nothing
				_ = d.cloud.SQS.DeleteMessage(d.queue, m.ReceiptHandle)
				continue
			}
			d.absorb(wal, m)
		}
	}
	return nil
}

// absorb merges one received message copy into its transaction's state.
// Distinct WAL sequence numbers advance assembly; further copies of a seq —
// redelivery or a duplicated send — only refresh bookkeeping (receipts must
// be tracked per copy so the final delete clears every copy).
func (d *CommitDaemon) absorb(wal walMessage, m sqs.Message) {
	tx := d.pending[wal.TxID]
	if tx == nil {
		tx = &txState{
			seqSeen:   make(map[int]bool),
			receipts:  make(map[string]string),
			firstSeen: d.cloud.Clock.Now(),
		}
		d.pending[wal.TxID] = tx
	}
	tx.receipts[m.ID] = m.ReceiptHandle // always refresh: handles rotate per receive
	if m.ReceiveCount > 1 {
		tx.redelivered = true
	}
	if tx.seqSeen[wal.Seq] {
		return // another copy of an already-absorbed record
	}
	tx.seqSeen[wal.Seq] = true

	switch wal.Kind {
	case kindBegin:
		tx.begin = true
		tx.count = wal.Count
	case kindCommit:
		tx.commit = true
	case kindData:
		tx.dataMsgs = append(tx.dataMsgs, wal)
	case kindMD5:
		tx.md5Msgs = append(tx.md5Msgs, wal)
	case kindProv:
		tx.provMsgs = append(tx.provMsgs, wal)
	}
}

// complete reports whether every distinct record of the transaction has
// arrived: begin, commit, and count total sequence numbers. Message copies
// never count twice.
func (tx *txState) complete() bool {
	if !tx.begin || !tx.commit {
		return false
	}
	return len(tx.seqSeen) >= tx.count
}

// processReady commits every fully assembled transaction, in deterministic
// object/version order within the round, and prunes incomplete transactions
// whose records have outlived SQS retention: their missing messages can
// never arrive (SQS reaped them), so holding the assembled fragment would
// wedge the daemon's pending set forever.
func (d *CommitDaemon) processReady(ctx context.Context) (int, error) {
	now := d.cloud.Clock.Now()
	for txid, tx := range d.pending {
		if !tx.complete() && now.Sub(tx.firstSeen) > sqs.RetentionPeriod {
			delete(d.pending, txid)
		}
	}
	var ready []string
	for txid, tx := range d.pending {
		if tx.complete() {
			ready = append(ready, txid)
		}
	}
	sort.Slice(ready, func(i, j int) bool {
		a, b := d.pending[ready[i]], d.pending[ready[j]]
		ka, kb := txOrderKey(a), txOrderKey(b)
		if ka != kb {
			return ka < kb
		}
		return ready[i] < ready[j]
	})

	done := 0
	for _, txid := range ready {
		if err := ctx.Err(); err != nil {
			return done, err
		}
		var retry bool
		terr := d.layer.TrackWrites(func() error {
			var err error
			retry, err = d.commitTx(ctx, txid, d.pending[txid])
			return err
		})
		err := terr
		if err != nil {
			return done, err
		}
		if retry {
			continue // e.g. temp object not yet visible: next round
		}
		delete(d.pending, txid)
		done++
	}
	return done, nil
}

// txOrderKey orders transactions by first data destination and version so
// that same-object versions commit in order within a round.
func txOrderKey(tx *txState) string {
	if len(tx.dataMsgs) == 0 {
		return ""
	}
	first := tx.dataMsgs[0]
	for _, m := range tx.dataMsgs[1:] {
		if m.RealKey < first.RealKey || (m.RealKey == first.RealKey && m.Version < first.Version) {
			first = m
		}
	}
	return fmt.Sprintf("%s#%09d", first.RealKey, first.Version)
}

// commitTx executes the §4.3 commit steps for one transaction:
//
//	(b) COPY each object from its temporary name to its real name;
//	(c) store the batch's provenance in SimpleDB, items grouped into
//	    BatchPutAttributes calls;
//	(d) delete the WAL messages, then delete the temporary objects.
//
// retryTx is true when the transaction should be reattempted later (a
// temporary object has not propagated to the serving replica yet).
func (d *CommitDaemon) commitTx(ctx context.Context, txid string, tx *txState) (retryTx bool, err error) {
	// (b) the data COPYs, in (key, version) order so that several versions
	// of one object within the transaction land last-writer-correct. The
	// temporary objects' metadata already carries nonce and version; COPY
	// preserves it.
	dataMsgs := append([]walMessage(nil), tx.dataMsgs...)
	sort.Slice(dataMsgs, func(i, j int) bool {
		if dataMsgs[i].RealKey != dataMsgs[j].RealKey {
			return dataMsgs[i].RealKey < dataMsgs[j].RealKey
		}
		return dataMsgs[i].Version < dataMsgs[j].Version
	})
	if tx.redelivered && len(dataMsgs) > 0 {
		// A redelivered transaction may be a replay racing a newer commit
		// that has not propagated to every replica yet. The staleReplay
		// probe below must not trust an unconverged HEAD — wait out the
		// horizon first, exactly like the orphan scan does before its
		// destructive decisions.
		d.layer.ConsistencyWait()
	}
	for _, dm := range dataMsgs {
		if err := ctx.Err(); err != nil {
			return false, err
		}
		stale, err := d.staleReplay(tx, dm)
		if err != nil {
			return false, err
		}
		if stale {
			// A newer version of this object committed since this tx was
			// logged (the tx is a replay of a crash-interrupted commit):
			// re-COPYing would regress the object. The provenance item for
			// this version is still (re-)written below — items are
			// per-version and idempotent.
			continue
		}
		err = d.layer.Retrier.Do(ctx, "s3sdbsqs/commit-copy", func() error {
			cerr := d.cloud.S3.Copy(d.layer.Bucket(), dm.TmpKey, d.layer.Bucket(), dm.RealKey, nil)
			if errors.Is(cerr, s3.ErrNoSuchKey) {
				retryTx = true // not propagated yet; retry next round
				return nil
			}
			return cerr
		})
		if err != nil {
			return false, fmt.Errorf("s3sdbsqs: commit copy: %w", err)
		}
		if retryTx {
			return true, nil
		}
		if v, ok := d.committedVersion[dm.RealKey]; !ok || dm.Version > v {
			d.committedVersion[dm.RealKey] = dm.Version
		}
		if err := d.faults.Check("commit/after-copy"); err != nil {
			return false, err
		}
	}

	// (c) provenance into SimpleDB. Records were value-encoded during the
	// log phase, so they group straight into batched item writes.
	recordsByItem := make(map[string][]prov.Record)
	leafByItem := make(map[string]string)
	var itemOrder []string
	for _, pm := range tx.provMsgs {
		records, err := pm.decodeRecords()
		if err != nil {
			return false, err
		}
		if pm.Item == "" {
			continue
		}
		if _, ok := recordsByItem[pm.Item]; !ok {
			itemOrder = append(itemOrder, pm.Item)
		}
		recordsByItem[pm.Item] = append(recordsByItem[pm.Item], records...)
		if pm.Leaf != "" {
			leafByItem[pm.Item] = pm.Leaf
		}
	}
	md5ByItem := make(map[string]string, len(tx.md5Msgs))
	for _, mm := range tx.md5Msgs {
		if _, ok := recordsByItem[mm.Item]; !ok {
			itemOrder = append(itemOrder, mm.Item)
		}
		md5ByItem[mm.Item] = mm.MD5
	}
	// SQS sampling may deliver the chunks in any order; commit items in a
	// deterministic order regardless.
	sort.Strings(itemOrder)
	writes := make([]sdbprov.ItemWrite, 0, len(itemOrder))
	for _, item := range itemOrder {
		subject, err := prov.ParseItemName(item)
		if err != nil {
			return false, err
		}
		writes = append(writes, sdbprov.ItemWrite{
			Subject: subject,
			Records: recordsByItem[item],
			MD5:     md5ByItem[item],
			Leaf:    leafByItem[item],
		})
	}
	if len(writes) > 0 {
		if err := d.layer.WriteEncodedBatch(ctx, writes, "commit"); err != nil {
			return false, err
		}
		if err := d.faults.Check("commit/after-prov-write"); err != nil {
			return false, err
		}
	}

	// (d) delete the log records (every received copy, duplicates included;
	// deletes are idempotent and retried on transient errors)...
	for _, receipt := range tx.receipts {
		r := receipt
		err := d.layer.Retrier.Do(ctx, "s3sdbsqs/wal-delete", func() error {
			return d.cloud.SQS.DeleteMessage(d.queue, r)
		})
		if err != nil {
			return false, err
		}
	}
	if err := d.faults.Check("commit/after-delete-messages"); err != nil {
		return false, err
	}
	// ...and only then the temporary objects, preserving idempotent replay.
	for _, dm := range dataMsgs {
		key := dm.TmpKey
		err := d.layer.Retrier.Do(ctx, "s3sdbsqs/tmp-delete", func() error {
			return d.cloud.S3.Delete(d.layer.Bucket(), key)
		})
		if err != nil {
			return false, err
		}
	}
	return false, d.faults.Check("commit/after-tmp-delete")
}

// staleReplay reports whether dm's COPY would regress its object: true when
// a strictly newer version is already committed. The in-memory
// committedVersion map answers for transactions this daemon committed
// itself; for redelivered transactions — the signature of a predecessor
// daemon crashing mid-commit — a HEAD on the live object checks the
// version the metadata actually carries. Equal versions still re-COPY: the
// tx rewrites its own MD5 record, and data+nonce+MD5 must come from the
// same transaction to stay verifiable.
func (d *CommitDaemon) staleReplay(tx *txState, dm walMessage) (bool, error) {
	if v, ok := d.committedVersion[dm.RealKey]; ok && v > dm.Version {
		return true, nil
	}
	if !tx.redelivered {
		return false, nil
	}
	info, err := d.cloud.S3.Head(d.layer.Bucket(), dm.RealKey)
	if err != nil {
		if errors.Is(err, s3.ErrNoSuchKey) {
			return false, nil // nothing live to regress
		}
		return false, err
	}
	live, err := strconv.Atoi(info.Metadata[sdbprov.MetaVersion])
	if err != nil {
		return false, nil // unversioned foreign object: let COPY decide
	}
	return live > dm.Version, nil
}

// PendingTransactions reports how many transactions are partially
// assembled — a test observability hook.
func (d *CommitDaemon) PendingTransactions() int { return len(d.pending) }
