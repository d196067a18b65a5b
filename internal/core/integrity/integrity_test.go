package integrity

import (
	"strings"
	"testing"

	"passcloud/internal/prov"
)

func ref(obj string, v int) prov.Ref {
	return prov.Ref{Object: prov.ObjectID(obj), Version: prov.Version(v)}
}

func rec(subject prov.Ref, attr, value string) prov.Record {
	return prov.Record{Subject: subject, Attr: attr, Value: prov.StringValue(value)}
}

// chainSet builds a healthy chained history of n versions of obj.
func chainSet(t *testing.T, obj string, n int) map[prov.Ref][]prov.Record {
	t.Helper()
	entries := make(map[prov.Ref][]prov.Record)
	prevHash := ""
	for v := 0; v < n; v++ {
		r := ref(obj, v)
		token := TokenGenesis
		if v > 0 {
			token = LinkToken(prevHash)
		}
		records := []prov.Record{
			rec(r, prov.AttrType, prov.TypeFile),
			rec(r, prov.AttrName, obj),
			ChainRecord(r, token),
		}
		entries[r] = records
		prevHash = SubjectHash(r, records)
	}
	return entries
}

func TestSubjectHashOrderAndDuplicateInvariance(t *testing.T) {
	r := ref("/a", 0)
	a := []prov.Record{rec(r, "type", "file"), rec(r, "name", "/a"), rec(r, "input", "/b:0")}
	b := []prov.Record{rec(r, "input", "/b:0"), rec(r, "name", "/a"), rec(r, "type", "file"), rec(r, "name", "/a")}
	if SubjectHash(r, a) != SubjectHash(r, b) {
		t.Fatal("hash must be order- and duplicate-invariant (set semantics)")
	}
	c := []prov.Record{rec(r, "type", "file"), rec(r, "name", "/a"), rec(r, "input", "/b:1")}
	if SubjectHash(r, a) == SubjectHash(r, c) {
		t.Fatal("hash must change when any record changes")
	}
	if SubjectHash(ref("/other", 0), a) == SubjectHash(r, a) {
		t.Fatal("hash must bind the subject reference")
	}
	if len(SubjectHash(r, a)) != hashHexLen {
		t.Fatalf("hash length = %d, want %d", len(SubjectHash(r, a)), hashHexLen)
	}
}

func TestMerkleRoot(t *testing.T) {
	if MerkleRoot(nil) != "empty" {
		t.Fatal("empty set must have the distinguished root")
	}
	a := MerkleRoot([]string{"l1", "l2", "l3"})
	if b := MerkleRoot([]string{"l3", "l1", "l2", "l2"}); b != a {
		t.Fatalf("root must be order/duplicate invariant: %s vs %s", a, b)
	}
	if MerkleRoot([]string{"l1", "l2"}) == MerkleRoot([]string{"l1", "lX"}) {
		t.Fatal("root must change when a leaf changes")
	}
}

func TestCheckpointTokenRoundTrip(t *testing.T) {
	cp := Checkpoint{Writer: "w0-s3", Seq: 17, Count: 42, Root: "9a1cc5ce814a36c49b545632f9bd06e4"}
	tok := cp.Token()
	if want := "v2|w0-s3|17|42|9a1cc5ce814a36c49b545632f9bd06e4"; tok != want {
		t.Fatalf("token = %q, want %q", tok, want)
	}
	got, err := ParseCheckpoint(tok)
	if err != nil {
		t.Fatal(err)
	}
	if got != cp {
		t.Fatalf("round trip: %+v != %+v", got, cp)
	}
	if _, err := ParseCheckpoint("v0|w|1|2|r"); err == nil {
		t.Fatal("wrong version must fail")
	}
	// v1 committed to a different root; it is rejected, not verified.
	if _, err := ParseCheckpoint("v1" + strings.TrimPrefix(tok, "v2")); err == nil ||
		!strings.Contains(err.Error(), "unsupported v1") {
		t.Fatalf("v1 token must be rejected as unsupported, got %v", err)
	}
	if _, err := ParseCheckpoint("garbage"); err == nil {
		t.Fatal("garbage must fail")
	}
}

func TestLedgerCommitReplaceRemove(t *testing.T) {
	l := NewLedger("w")
	cp1 := l.Commit(map[string][]string{"item1": {"a"}, "item2": {"b", "c"}})
	if cp1.Seq != 1 || cp1.Count != 3 {
		t.Fatalf("cp1 = %+v, want seq 1 count 3", cp1)
	}
	// Idempotent replay: same slots, same leaves — root unchanged.
	cp2 := l.Commit(map[string][]string{"item1": {"a"}})
	if cp2.Root != cp1.Root || cp2.Seq != 2 {
		t.Fatalf("replay changed root: %+v vs %+v", cp2, cp1)
	}
	// Replacement: a slot re-committed with new leaves drops the old ones.
	cp3 := l.Commit(map[string][]string{"item2": {"d"}})
	if cp3.Count != 2 {
		t.Fatalf("cp3 count = %d, want 2 after replacement", cp3.Count)
	}
	l.Remove("item1")
	if cp := l.Checkpoint(); cp.Count != 1 {
		t.Fatalf("after remove: count = %d, want 1", cp.Count)
	}
}

func TestVerifyHealthyChain(t *testing.T) {
	entries := chainSet(t, "/data/x", 4)
	var leaves []string
	for r, records := range entries {
		leaves = append(leaves, SubjectHash(r, records))
	}
	cps := []Checkpoint{
		{Writer: "w", Seq: 1, Count: 1, Root: "stale"},
		{Writer: "w", Seq: 2, Count: len(leaves), Root: MerkleRoot(leaves)},
	}
	res := VerifyAudit(&Audit{Entries: entries, Checkpoints: cps, RetainsHistory: true})
	if !res.Clean() {
		t.Fatalf("healthy audit flagged: %v", res.Divergences)
	}
	if res.Checkpoint.Seq != 2 {
		t.Fatalf("latest checkpoint seq = %d, want 2", res.Checkpoint.Seq)
	}
}

func TestVerifyDetectsTampering(t *testing.T) {
	base := func() (map[prov.Ref][]prov.Record, []Checkpoint) {
		entries := chainSet(t, "/data/x", 3)
		var leaves []string
		for r, records := range entries {
			leaves = append(leaves, SubjectHash(r, records))
		}
		return entries, []Checkpoint{{Writer: "w", Seq: 1, Count: len(leaves), Root: MerkleRoot(leaves)}}
	}

	t.Run("flipped byte breaks chain and root", func(t *testing.T) {
		entries, cps := base()
		r1 := ref("/data/x", 1)
		entries[r1][1] = rec(r1, prov.AttrName, "/data/TAMPERED")
		res := VerifyAudit(&Audit{Entries: entries, Checkpoints: cps, RetainsHistory: true})
		if !hasKind(res, ChainBreak) {
			t.Fatalf("want chain-break, got %v", res.Divergences)
		}
		if !hasKind(res, RootMismatch) {
			t.Fatalf("want root-mismatch, got %v", res.Divergences)
		}
		// The break is anchored to the successor whose link dangles.
		for _, d := range res.Divergences {
			if d.Kind == ChainBreak && d.Subject != ref("/data/x", 2) {
				t.Fatalf("chain break anchored to %s, want /data/x:2", d.Subject)
			}
		}
	})

	t.Run("dropped version is a gap", func(t *testing.T) {
		entries, cps := base()
		delete(entries, ref("/data/x", 1))
		res := VerifyAudit(&Audit{Entries: entries, Checkpoints: cps, RetainsHistory: true})
		if !hasKind(res, ChainGap) || !hasKind(res, RootMismatch) {
			t.Fatalf("want chain-gap + root-mismatch, got %v", res.Divergences)
		}
	})

	t.Run("swapped chain tokens break", func(t *testing.T) {
		entries, cps := base()
		r1, r2 := ref("/data/x", 1), ref("/data/x", 2)
		i1, i2 := chainIndex(entries[r1]), chainIndex(entries[r2])
		entries[r1][i1].Value, entries[r2][i2].Value = entries[r2][i2].Value, entries[r1][i1].Value
		res := VerifyAudit(&Audit{Entries: entries, Checkpoints: cps, RetainsHistory: true})
		if !hasKind(res, ChainBreak) {
			t.Fatalf("want chain-break, got %v", res.Divergences)
		}
	})

	t.Run("dropped chain record", func(t *testing.T) {
		entries, cps := base()
		r1 := ref("/data/x", 1)
		entries[r1] = entries[r1][:2] // strip the chain record
		res := VerifyAudit(&Audit{Entries: entries, Checkpoints: cps, RetainsHistory: true})
		if !hasKind(res, ChainMissing) {
			t.Fatalf("want chain-missing, got %v", res.Divergences)
		}
	})

	t.Run("stripped checkpoints", func(t *testing.T) {
		entries, _ := base()
		res := VerifyAudit(&Audit{Entries: entries, RetainsHistory: true})
		if !hasKind(res, CheckpointMissing) {
			t.Fatalf("want checkpoint-missing, got %v", res.Divergences)
		}
	})
}

func TestVerifyWithoutHistoryTolerancesSupersededVersions(t *testing.T) {
	entries := chainSet(t, "/data/x", 3)
	// The S3-only design overwrote versions 0 and 1; only version 2 and
	// its link survive.
	delete(entries, ref("/data/x", 0))
	delete(entries, ref("/data/x", 1))
	var leaves []string
	for r, records := range entries {
		leaves = append(leaves, SubjectHash(r, records))
	}
	cps := []Checkpoint{{Writer: "w", Seq: 1, Count: len(leaves), Root: MerkleRoot(leaves)}}
	res := VerifyAudit(&Audit{Entries: entries, Checkpoints: cps, RetainsHistory: false})
	if !res.Clean() {
		t.Fatalf("superseded versions flagged without history: %v", res.Divergences)
	}
}

func TestVerifyDetachedAndMultiWriter(t *testing.T) {
	r := ref("/fetched", 3)
	records := []prov.Record{rec(r, prov.AttrType, prov.TypeFile), ChainRecord(r, TokenDetached)}
	entries := map[prov.Ref][]prov.Record{r: records}
	cps := []Checkpoint{
		{Writer: "w1", Seq: 1, Count: 1, Root: "r1"},
		{Writer: "w2", Seq: 1, Count: 1, Root: "r2"},
	}
	res := VerifyAudit(&Audit{Entries: entries, Checkpoints: cps, RetainsHistory: true})
	if !res.MultiWriter {
		t.Fatal("want multi-writer flagged")
	}
	if res.Detached != 1 {
		t.Fatalf("detached = %d, want 1", res.Detached)
	}
	if !res.Clean() {
		t.Fatalf("detached link / multi-writer must not diverge: %v", res.Divergences)
	}
}

func TestComposeRootsBindsOrder(t *testing.T) {
	if ComposeRoots([]string{"a", "b"}) == ComposeRoots([]string{"b", "a"}) {
		t.Fatal("namespace root must bind shard order")
	}
}

func TestVerifyObject(t *testing.T) {
	entries := chainSet(t, "/x", 3)
	for r, records := range chainSet(t, "/y", 2) {
		entries[r] = records
	}
	r1 := ref("/x", 1)
	entries[r1][0] = rec(r1, prov.AttrType, "tampered")
	ds, _ := VerifyObject("/x", entries, true, 0)
	if len(ds) != 1 || ds[0].Kind != ChainBreak {
		t.Fatalf("VerifyObject(/x) = %v, want one chain-break", ds)
	}
	if !strings.Contains(ds[0].Detail, "/x:1") {
		t.Fatalf("break detail must name the predecessor: %s", ds[0].Detail)
	}
	if ds, _ := VerifyObject("/y", entries, true, 0); len(ds) != 0 {
		t.Fatalf("VerifyObject(/y) = %v, want clean", ds)
	}
}

func hasKind(res *ShardResult, k DivergenceKind) bool {
	for _, d := range res.Divergences {
		if d.Kind == k {
			return true
		}
	}
	return false
}

func chainIndex(records []prov.Record) int {
	for i, r := range records {
		if r.Attr == AttrChain {
			return i
		}
	}
	return -1
}
