package integrity

import (
	"context"
	"fmt"
	"sort"

	"passcloud/internal/prov"
)

// Auditor is the store-side hook verification runs on: a full dump of the
// committed provenance (decoded records, one entry per subject) together
// with every persisted checkpoint rider the scan encountered. All three
// architecture stores and the SimpleDB provenance layer implement it.
type Auditor interface {
	Audit(ctx context.Context) (*Audit, error)
}

// Audit is one store's verifiable state, as scanned.
type Audit struct {
	// Shard is the store's shard index (0 when unsharded); verification
	// stamps it into every divergence.
	Shard int
	// Entries maps each stored subject to its decoded records.
	Entries map[prov.Ref][]prov.Record
	// Checkpoints are the persisted checkpoint riders, in scan order.
	// Duplicates are expected (one rider per item/object).
	Checkpoints []Checkpoint
	// RetainsHistory reports whether the store keeps every version's
	// records (the SimpleDB designs) or only the latest per S3 key (the
	// S3-only design, whose metadata is overwritten in place). Without
	// history, a missing predecessor is a fact of the architecture, not a
	// divergence.
	RetainsHistory bool

	// pred is the predecessor-lookup map when chains span stores: a
	// transient ancestor's versions ride the file flushes that trigger
	// them, which may home on different shards, so a link's predecessor
	// can legitimately live on another shard. nil means Entries.
	pred map[prov.Ref][]prov.Record
}

// AddCheckpoint parses one persisted checkpoint rider and records it. An
// empty token is no rider. A token that no longer parses was tampered
// with; dropping it surfaces downstream as a stale or missing checkpoint.
func (a *Audit) AddCheckpoint(token string) {
	if token == "" {
		return
	}
	if cp, err := ParseCheckpoint(token); err == nil {
		a.Checkpoints = append(a.Checkpoints, cp)
	}
}

// predecessors resolves a chain link's predecessor record set.
func (a *Audit) predecessors(ref prov.Ref) ([]prov.Record, bool) {
	if a.pred != nil {
		r, ok := a.pred[ref]
		return r, ok
	}
	r, ok := a.Entries[ref]
	return r, ok
}

// DivergenceKind classifies what verification found.
type DivergenceKind int

// The divergence kinds VerifyAudit reports.
const (
	// ChainBreak: a version's chain token does not match its
	// predecessor's re-derived subject hash — some record of the
	// predecessor (or the token itself) was altered.
	ChainBreak DivergenceKind = iota
	// ChainGap: a version links to a predecessor the store no longer
	// holds, on an architecture that retains history — the predecessor's
	// records were dropped post-commit.
	ChainGap
	// ChainMissing: a stored version carries no chain record at all —
	// the chain record itself was dropped.
	ChainMissing
	// RootMismatch: the Merkle root re-derived from every stored record
	// differs from the writer's highest committed checkpoint — some
	// record in the shard was altered, added or dropped.
	RootMismatch
	// CheckpointMissing: the store holds records but no checkpoint rider
	// survived — the commitments themselves were stripped.
	CheckpointMissing
)

// String names the kind for reports.
func (k DivergenceKind) String() string {
	switch k {
	case ChainBreak:
		return "chain-break"
	case ChainGap:
		return "chain-gap"
	case ChainMissing:
		return "chain-missing"
	case RootMismatch:
		return "root-mismatch"
	case CheckpointMissing:
		return "checkpoint-missing"
	default:
		return fmt.Sprintf("DivergenceKind(%d)", int(k))
	}
}

// Divergence is one verification finding: which record diverged, on which
// shard, and how.
type Divergence struct {
	Kind  DivergenceKind
	Shard int
	// Subject is the object version the finding is anchored to (zero for
	// shard-level findings: RootMismatch, CheckpointMissing).
	Subject prov.Ref
	// Detail explains the finding (expected vs. derived values).
	Detail string
}

// String renders one finding.
func (d Divergence) String() string {
	if d.Subject == (prov.Ref{}) {
		return fmt.Sprintf("shard %d: %s: %s", d.Shard, d.Kind, d.Detail)
	}
	return fmt.Sprintf("shard %d: %s: %s: %s", d.Shard, d.Kind, d.Subject, d.Detail)
}

// ShardResult is one shard's verification outcome.
type ShardResult struct {
	Shard int
	// Subjects and Records count what was scanned.
	Subjects, Records int
	// Root is the Merkle root re-derived from the stored records.
	Root string
	// Checkpoint is the writer's highest committed checkpoint (zero when
	// none survived or writers were multiple).
	Checkpoint Checkpoint
	// MultiWriter reports that more than one writer's checkpoints were
	// found; the root comparison is skipped (each writer commits only to
	// its own writes — see ARCHITECTURE.md), chain checks still run.
	MultiWriter bool
	// Detached counts chain links that could not be verified because the
	// writer attached the object mid-history (informational, not a
	// divergence).
	Detached int
	// Divergences are the findings, subject-sorted.
	Divergences []Divergence
}

// Clean reports a divergence-free shard.
func (r *ShardResult) Clean() bool { return len(r.Divergences) == 0 }

// VerifyAudit re-derives every subject hash and the Merkle root from a
// store's scanned state and returns the shard's result: the root check
// against the highest surviving checkpoint, then chain checks per object
// version.
func VerifyAudit(a *Audit) *ShardResult {
	res := CheckRoot(a)
	res.Divergences = append(res.Divergences, verifyChains(a, &res.Detached)...)
	sortDivergences(res.Divergences)
	return res
}

// CheckRoot is VerifyAudit's root-level half, which the reshard copy
// check also runs on its own: it deduplicates a's entries in place,
// re-derives the shard root from their leaves with MerkleRoot, and
// compares it with the highest checkpoint of the single writer that
// committed there. Its only possible finding is RootMismatch or
// CheckpointMissing.
func CheckRoot(a *Audit) *ShardResult {
	res := &ShardResult{Shard: a.Shard, Subjects: len(a.Entries)}
	leaves := make([]string, 0, len(a.Entries))
	for ref, records := range a.Entries {
		records = DedupRecords(records)
		a.Entries[ref] = records
		res.Records += len(records)
		leaves = append(leaves, SubjectHash(ref, records))
	}
	res.Root = MerkleRoot(leaves)

	cp, multi, ok := latestCheckpoint(a.Checkpoints)
	res.MultiWriter = multi
	switch {
	case !ok:
		if len(a.Entries) > 0 {
			res.Divergences = append(res.Divergences, Divergence{
				Kind: CheckpointMissing, Shard: a.Shard,
				Detail: fmt.Sprintf("%d subjects stored but no checkpoint rider found", len(a.Entries)),
			})
		}
	case multi:
		// Several writers committed here; each root covers only its own
		// writes, so no single checkpoint matches the union. Chain checks
		// still hold every record accountable to its predecessor.
	default:
		res.Checkpoint = cp
		if cp.Root != res.Root {
			res.Divergences = append(res.Divergences, Divergence{
				Kind: RootMismatch, Shard: a.Shard,
				Detail: fmt.Sprintf("committed root %s (seq %d, %d subjects) != derived root %s (%d subjects)",
					cp.Root, cp.Seq, cp.Count, res.Root, len(leaves)),
			})
		}
	}
	return res
}

// verifyChains walks every object's version history present in the audit
// and checks each chain link.
func verifyChains(a *Audit, detached *int) []Divergence {
	byObject := make(map[prov.ObjectID][]prov.Ref)
	for ref := range a.Entries {
		byObject[ref.Object] = append(byObject[ref.Object], ref)
	}
	var out []Divergence
	for _, refs := range byObject {
		sort.Slice(refs, func(i, j int) bool { return refs[i].Version < refs[j].Version })
		for _, ref := range refs {
			out = append(out, verifyLink(a, ref, detached)...)
		}
	}
	return out
}

// verifyLink checks one version's chain record against its predecessor.
func verifyLink(a *Audit, ref prov.Ref, detached *int) []Divergence {
	var tokens []string
	for _, r := range a.Entries[ref] {
		if r.Attr == AttrChain {
			tokens = append(tokens, r.Value.String())
		}
	}
	switch {
	case len(tokens) == 0:
		return []Divergence{{Kind: ChainMissing, Shard: a.Shard, Subject: ref,
			Detail: "no chain record in stored record set"}}
	case len(tokens) > 1:
		sort.Strings(tokens)
		return []Divergence{{Kind: ChainBreak, Shard: a.Shard, Subject: ref,
			Detail: fmt.Sprintf("%d chain records stored (want exactly one): %v", len(tokens), tokens)}}
	}
	token := tokens[0]
	if token == TokenDetached {
		if detached != nil {
			*detached++
		}
		return nil
	}
	if ref.Version == 0 {
		if token != TokenGenesis {
			return []Divergence{{Kind: ChainBreak, Shard: a.Shard, Subject: ref,
				Detail: fmt.Sprintf("version 0 carries chain token %q (want %q)", token, TokenGenesis)}}
		}
		return nil
	}
	want, ok := ParseLink(token)
	if !ok {
		return []Divergence{{Kind: ChainBreak, Shard: a.Shard, Subject: ref,
			Detail: fmt.Sprintf("malformed chain token %q", token)}}
	}
	prev := prov.Ref{Object: ref.Object, Version: ref.Version - 1}
	prevRecords, present := a.predecessors(prev)
	if !present {
		if a.RetainsHistory {
			return []Divergence{{Kind: ChainGap, Shard: a.Shard, Subject: ref,
				Detail: fmt.Sprintf("links to %s, which the store no longer holds", prev)}}
		}
		// The S3-only design overwrites an object's metadata in place, so
		// superseded file versions legitimately vanish; the surviving
		// version's own hash is still pinned by the root commitment.
		return nil
	}
	if got := SubjectHash(prev, prevRecords); got != want {
		return []Divergence{{Kind: ChainBreak, Shard: a.Shard, Subject: ref,
			Detail: fmt.Sprintf("links to %s with hash %s, but stored records hash to %s", prev, want, got)}}
	}
	return nil
}

// latestCheckpoint picks each writer's highest-Seq checkpoint and reports
// whether more than one writer committed. With exactly one writer its
// final checkpoint is returned.
func latestCheckpoint(cps []Checkpoint) (cp Checkpoint, multi, ok bool) {
	latest := make(map[string]Checkpoint)
	for _, c := range cps {
		if have, seen := latest[c.Writer]; !seen || c.Seq > have.Seq {
			latest[c.Writer] = c
		}
	}
	if len(latest) == 0 {
		return Checkpoint{}, false, false
	}
	if len(latest) > 1 {
		return Checkpoint{}, true, true
	}
	for _, c := range latest {
		return c, false, true
	}
	panic("unreachable")
}

// sortDivergences orders findings deterministically: by subject, then kind.
func sortDivergences(ds []Divergence) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.Subject != b.Subject {
			if a.Subject.Object != b.Subject.Object {
				return a.Subject.Object < b.Subject.Object
			}
			return a.Subject.Version < b.Subject.Version
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		return a.Detail < b.Detail
	})
}

// Result is a whole namespace's verification outcome: every shard's
// result plus the composed namespace root.
type Result struct {
	Shards []*ShardResult
	// NamespaceRoot composes the per-shard derived roots in shard order.
	NamespaceRoot string
}

// Clean reports a fully divergence-free namespace.
func (r *Result) Clean() bool {
	for _, s := range r.Shards {
		if !s.Clean() {
			return false
		}
	}
	return true
}

// Divergences flattens every shard's findings.
func (r *Result) Divergences() []Divergence {
	var out []Divergence
	for _, s := range r.Shards {
		out = append(out, s.Divergences...)
	}
	return out
}

// VerifyStores audits and verifies each store as one shard (index =
// position) and composes the namespace root. With more than one shard,
// chain links resolve predecessors through the union of every shard's
// entries — each shard's root still covers exactly its own entries —
// because transient ancestors home with the file flush that triggered
// them, which can place adjacent versions of one process on different
// shards.
func VerifyStores(ctx context.Context, stores []Auditor) (*Result, error) {
	res := &Result{}
	audits := make([]*Audit, len(stores))
	for i, st := range stores {
		a, err := st.Audit(ctx)
		if err != nil {
			return nil, fmt.Errorf("integrity: audit shard %d: %w", i, err)
		}
		a.Shard = i
		audits[i] = a
	}
	var union map[prov.Ref][]prov.Record
	if len(audits) > 1 {
		union = make(map[prov.Ref][]prov.Record)
		for _, a := range audits {
			for ref, records := range a.Entries {
				union[ref] = append(union[ref], records...)
			}
		}
	}
	roots := make([]string, 0, len(audits))
	for _, a := range audits {
		a.pred = union
		sr := VerifyAudit(a)
		res.Shards = append(res.Shards, sr)
		roots = append(roots, sr.Root)
	}
	res.NamespaceRoot = ComposeRoots(roots)
	return res, nil
}

// VerifyObject checks one object's chain through the given entries (its
// stored versions) — the VerifyLineage core, shared with the audit path.
func VerifyObject(object prov.ObjectID, entries map[prov.Ref][]prov.Record, retainsHistory bool, shard int) ([]Divergence, int) {
	sub := make(map[prov.Ref][]prov.Record)
	for ref, records := range entries {
		if ref.Object == object {
			sub[ref] = DedupRecords(records)
		}
	}
	detached := 0
	a := &Audit{Shard: shard, Entries: sub, RetainsHistory: retainsHistory}
	ds := verifyChains(a, &detached)
	sortDivergences(ds)
	return ds, detached
}
