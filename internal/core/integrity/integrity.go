// Package integrity makes stored provenance tamper-evident: every object
// version's record set is hash-chained to its predecessor at write time,
// and every store rolls a cheap Merkle commitment (one small root) over
// the record sets it has committed, so an auditor can re-derive the root
// from the stored records and detect any post-commit alteration — a
// flipped byte, a swapped version, a silently dropped record.
//
// The design rides entirely on writes the architectures already perform:
//
//   - The chain is an ordinary provenance record (attribute "x-chain")
//     appended to each version's record set by the PASS layer before
//     flush. Its value embeds the subject hash of the predecessor
//     version's full record set, so rewriting any historical record
//     breaks every later link. The value is memoized per version, so WAL
//     replay and partial-batch retry re-flush byte-identical records —
//     the chain extends, never forks, and nothing is hashed twice.
//
//   - The commitment is a Merkle root over per-subject leaf hashes,
//     tracked by a Ledger the storage layer advances at its true commit
//     point (the SimpleDB batch write, the WAL commit, the S3 PUT). Each
//     committed checkpoint rides as an extra attribute ("x-root") on an
//     item or metadata key the write was sending anyway — zero
//     additional cloud operations on the healthy write path.
//
// Verification (VerifyAudit, driving Client.VerifyLineage/VerifyAll)
// re-derives every subject hash and the root from the stored records and
// reports typed divergences: chain breaks and gaps name the subject,
// root mismatches name the shard.
package integrity

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"passcloud/internal/prov"
)

// Reserved names the integrity subsystem adds to stored forms.
const (
	// AttrChain is the chain record's attribute name. Chain records are
	// ordinary provenance records — they ride every encoding, WAL message
	// and query path unchanged — whose value is a chain token.
	AttrChain = "x-chain"
	// AttrRoot is the checkpoint rider: a SimpleDB attribute or S3
	// metadata key (never a provenance record) holding a checkpoint
	// token. Decoders skip it like the other protocol attributes.
	AttrRoot = "x-root"
)

// Chain token forms.
const (
	// TokenGenesis marks version 0 of an object: no predecessor.
	TokenGenesis = "genesis"
	// TokenDetached marks a version whose writer did not know its
	// predecessor's record set (the object was attached from another
	// client's history). The link is unverifiable, not divergent.
	TokenDetached = "detached"
	// tokenLinkPrefix prefixes an embedded predecessor subject hash.
	tokenLinkPrefix = "h:"
)

// hashHexLen truncates subject hashes and roots to 128 bits (32 hex
// characters): strong enough for tamper evidence, small enough that chain
// records and checkpoint riders never push a write over the S3 metadata
// or SQS message budgets the architectures pack against.
const hashHexLen = 32

// LinkToken renders the chain token embedding a predecessor's subject hash.
func LinkToken(prevHash string) string { return tokenLinkPrefix + prevHash }

// ParseLink extracts the embedded predecessor hash from a link token.
func ParseLink(token string) (string, bool) {
	if strings.HasPrefix(token, tokenLinkPrefix) {
		return token[len(tokenLinkPrefix):], true
	}
	return "", false
}

// ChainRecord builds the chain record flushed with a version's record set.
func ChainRecord(subject prov.Ref, token string) prov.Record {
	return prov.Record{Subject: subject, Attr: AttrChain, Value: prov.StringValue(token)}
}

// SubjectHash canonically hashes one version's full record set (the chain
// record included): sorted, deduplicated attribute/value lines under the
// subject reference. Deduplication mirrors SimpleDB's set semantics, so a
// record set replayed through any architecture hashes identically, and
// sorting makes the hash independent of flush or scan order. The hash
// doubles as the subject's Merkle leaf.
func SubjectHash(subject prov.Ref, records []prov.Record) string {
	lines := make([]string, 0, len(records))
	for _, r := range records {
		if r.Attr == AttrRoot { // defensive: riders are not records
			continue
		}
		lines = append(lines, r.Attr+"\x1f"+r.Value.String())
	}
	sort.Strings(lines)
	h := sha256.New()
	h.Write([]byte(subject.String()))
	h.Write([]byte{'\n'})
	prev := ""
	first := true
	for _, l := range lines {
		if !first && l == prev {
			continue
		}
		first, prev = false, l
		h.Write([]byte(l))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))[:hashHexLen]
}

// DedupRecords drops exact duplicate records, preserving first-appearance
// order. A store that replicates a subject's records across carriers (the
// S3-only design re-sends rider copies after a whole-batch replay) unions
// them to duplicates in an audit; identical copies are not divergences. A
// copy altered in any byte is NOT merged away and the chain and root
// checks catch it.
func DedupRecords(records []prov.Record) []prov.Record {
	seen := make(map[prov.Record]bool, len(records))
	out := records[:0:0]
	for _, r := range records {
		if !seen[r] {
			seen[r] = true
			out = append(out, r)
		}
	}
	return out
}

// ComposeRoots folds per-shard roots into the single namespace root the
// router exposes: shard order is part of the commitment (shard i's root in
// position i), so swapping two shards' stores is itself a divergence.
func ComposeRoots(roots []string) string {
	h := sha256.New()
	for i, r := range roots {
		fmt.Fprintf(h, "%d:%s\n", i, r)
	}
	return hex.EncodeToString(h.Sum(nil))[:hashHexLen]
}

// Checkpoint is one committed ledger state: after the writer's Seq-th
// commit, the store's subject leaves rolled to Root over Count subjects.
type Checkpoint struct {
	// Writer identifies the client whose ledger minted the checkpoint.
	Writer string
	// Seq orders a writer's checkpoints; the highest is the final state.
	Seq int
	// Count is the number of distinct subject leaves under Root.
	Count int
	// Root is the Merkle root at mint time.
	Root string
}

// checkpointVersion tags the stored token form. v2 commits to the trie
// root (see trie.go); v1 committed to a sorted pairwise fold. No cloud
// state outlives a process, so no v1 token can exist in a store this
// build reads, and v1 is rejected rather than verified.
const checkpointVersion = "v2"

// Token renders the stored form: "v2|writer|seq|count|root". It is the
// same length as the v1 form it replaced, so riders fit the same budgets.
func (c Checkpoint) Token() string {
	return fmt.Sprintf("%s|%s|%d|%d|%s", checkpointVersion, c.Writer, c.Seq, c.Count, c.Root)
}

// ParseCheckpoint reverses Token. Writers may contain '|' only if they
// enjoy corrupt verification reports, so they must not. A v1 token is an
// error: its root is not a trie root, so an audit treats it as absent and
// reports checkpoint-missing rather than passing silently.
func ParseCheckpoint(token string) (Checkpoint, error) {
	parts := strings.Split(token, "|")
	if len(parts) == 5 && parts[0] == "v1" {
		return Checkpoint{}, fmt.Errorf("integrity: unsupported v1 checkpoint token %q", token)
	}
	if len(parts) != 5 || parts[0] != checkpointVersion {
		return Checkpoint{}, fmt.Errorf("integrity: malformed checkpoint token %q", token)
	}
	seq, err := strconv.Atoi(parts[2])
	if err != nil || seq < 0 {
		return Checkpoint{}, fmt.Errorf("integrity: malformed checkpoint seq in %q", token)
	}
	count, err := strconv.Atoi(parts[3])
	if err != nil || count < 0 {
		return Checkpoint{}, fmt.Errorf("integrity: malformed checkpoint count in %q", token)
	}
	return Checkpoint{Writer: parts[1], Seq: seq, Count: count, Root: parts[4]}, nil
}

// Ledger tracks one writer's committed subject leaves, keyed by storage
// slot — the unit the store overwrites atomically (a SimpleDB item, an S3
// object's metadata). Re-committing a slot replaces its leaves, which
// makes the ledger idempotent under WAL replay, ack-loss retry and
// partial-batch re-flush: the same slot re-committed with the same
// records converges to the same state, and an S3 metadata overwrite that
// supersedes an older version's records supersedes its leaves too.
//
// Distinct leaves are refcounted across slots and held in a live trie,
// so a commit rehashes only the paths of the leaves it adds or drops:
// O(k log n) for k touched leaves, not a rebuild of all n.
//
// Ledger is safe for concurrent use.
type Ledger struct {
	mu     sync.Mutex
	writer string
	seq    int
	slots  map[string][]string
	// refs counts, per distinct leaf, the slot entries holding it; the
	// trie holds exactly the leaves with a positive count.
	refs map[string]*leafRef
	tree trie
}

// leafRef is one distinct leaf's reference count and trie key.
type leafRef struct {
	n   int
	key digest
}

// NewLedger builds an empty ledger for the named writer.
func NewLedger(writer string) *Ledger {
	if writer == "" {
		writer = "w"
	}
	return &Ledger{writer: writer, slots: make(map[string][]string), refs: make(map[string]*leafRef)}
}

// Commit replaces the given slots' leaves and mints the next checkpoint
// over the whole ledger. One Commit covers one durable store write (one
// batch, one PUT), so the checkpoint riding that write commits to
// everything written up to and including it.
func (l *Ledger) Commit(slots map[string][]string) Checkpoint {
	l.mu.Lock()
	defer l.mu.Unlock()
	for slot, leaves := range slots {
		// Reference the new leaves before releasing the old ones, so a
		// re-committed leaf never leaves the trie.
		for _, leaf := range leaves {
			l.ref(leaf)
		}
		l.release(slot)
		if len(leaves) > 0 {
			l.slots[slot] = append([]string(nil), leaves...)
		}
	}
	l.seq++
	return l.checkpointLocked()
}

// Remove drops a slot (a deleted item or object) without minting a
// checkpoint; the next Commit's checkpoint covers the removal.
func (l *Ledger) Remove(slot string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.release(slot)
}

// ref counts one slot entry of leaf, inserting it into the trie on first
// reference.
func (l *Ledger) ref(leaf string) {
	r := l.refs[leaf]
	if r == nil {
		r = &leafRef{key: leafDigest(leaf)}
		l.refs[leaf] = r
		l.tree.insert(r.key)
	}
	r.n++
}

// release drops a slot and its leaf references, removing leaves no other
// slot entry holds.
func (l *Ledger) release(slot string) {
	for _, leaf := range l.slots[slot] {
		r := l.refs[leaf]
		if r.n--; r.n == 0 {
			delete(l.refs, leaf)
			l.tree.remove(r.key)
		}
	}
	delete(l.slots, slot)
}

// Slots lists the ledger's live slot keys. Removal paths use it to find
// slots whose stored carrier has vanished (a tampered-away object no
// listing can surface) so the commitment can still follow the departure.
func (l *Ledger) Slots() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]string, 0, len(l.slots))
	for slot := range l.slots {
		out = append(out, slot)
	}
	sort.Strings(out)
	return out
}

// Checkpoint reports the current state without advancing Seq.
func (l *Ledger) Checkpoint() Checkpoint {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.checkpointLocked()
}

func (l *Ledger) checkpointLocked() Checkpoint {
	return Checkpoint{Writer: l.writer, Seq: l.seq, Count: len(l.refs), Root: l.tree.root()}
}
