package integrity

import (
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"testing"

	"passcloud/internal/prov"
)

// The golden vectors pin the stored commitment format. Each was checked
// against an independent re-implementation of the spec in trie.go; a
// change here is a format change and needs a new token version.
func TestCommitmentGoldenVectors(t *testing.T) {
	r := ref("/data/in", 2)
	leaf := SubjectHash(r, []prov.Record{
		rec(r, prov.AttrType, prov.TypeFile),
		rec(r, prov.AttrName, "/data/in"),
		ChainRecord(r, TokenGenesis),
	})
	if want := "ed2b8a998d5a257b9b42390cdd946ee7"; leaf != want {
		t.Errorf("SubjectHash = %s, want %s", leaf, want)
	}
	ld := leafDigest("l1")
	if got, want := hex.EncodeToString(ld[:]), "43aaf08ddc892b35f9c97d6697f0573d"; got != want {
		t.Errorf("leaf digest = %s, want %s", got, want)
	}
	var a, b digest
	for i := range a {
		a[i], b[i] = byte(i), byte(0xff-i)
	}
	in := interiorDigest(7, &a, &b)
	if got, want := hex.EncodeToString(in[:]), "783759e3f9486cc1f4d91d9fefccb300"; got != want {
		t.Errorf("interior digest = %s, want %s", got, want)
	}
	if in2 := interiorDigest(8, &a, &b); in2 == in {
		t.Error("interior digest must bind the branch depth")
	}
	for _, tc := range []struct {
		leaves []string
		want   string
	}{
		{nil, "empty"},
		{[]string{"a"}, "022a6979e6dab7aa5ae4c3e5e45f7e97"},
		{[]string{"a", "b", "c", "d", "e"}, "9a1cc5ce814a36c49b545632f9bd06e4"},
		{[]string{"e", "c", "a", "d", "b", "c"}, "9a1cc5ce814a36c49b545632f9bd06e4"},
	} {
		if got := MerkleRoot(tc.leaves); got != tc.want {
			t.Errorf("MerkleRoot(%q) = %s, want %s", tc.leaves, got, tc.want)
		}
	}
}

// TestLedgerMatchesBulkDerivation drives random commit / replace /
// remove / duplicate-leaf sequences and checks, after every step, that
// the incremental root and Count equal the bulk derivation over the
// ledger's live leaf set.
func TestLedgerMatchesBulkDerivation(t *testing.T) {
	for _, seed := range []int64{1, 2, 7, 42, 2009} {
		rng := rand.New(rand.NewSource(seed))
		l := NewLedger("w")
		model := make(map[string][]string)
		pool := make([]string, 40) // small pool: leaves recur across slots
		for i := range pool {
			pool[i] = fmt.Sprintf("leaf-%d", i)
		}
		for step := 0; step < 400; step++ {
			var got Checkpoint
			switch rng.Intn(5) {
			case 0: // remove a slot, then observe
				slot := fmt.Sprintf("s%d", rng.Intn(30))
				l.Remove(slot)
				delete(model, slot)
				got = l.Checkpoint()
			default: // commit 1-4 slots: new, replaced, emptied, duplicated
				slots := make(map[string][]string)
				for k := 1 + rng.Intn(4); k > 0; k-- {
					var leaves []string
					for n := rng.Intn(4); n > 0; n-- {
						leaves = append(leaves, pool[rng.Intn(len(pool))])
					}
					if len(leaves) > 0 && rng.Intn(4) == 0 {
						leaves = append(leaves, leaves[0])
					}
					slot := fmt.Sprintf("s%d", rng.Intn(30))
					slots[slot] = leaves
					if len(leaves) == 0 {
						delete(model, slot)
					} else {
						model[slot] = leaves
					}
				}
				got = l.Commit(slots)
			}
			var all []string
			distinct := make(map[string]bool)
			for _, ls := range model {
				all = append(all, ls...)
				for _, lf := range ls {
					distinct[lf] = true
				}
			}
			if want := MerkleRoot(all); got.Root != want {
				t.Fatalf("seed %d step %d: incremental root %s != bulk root %s", seed, step, got.Root, want)
			}
			if got.Count != len(distinct) {
				t.Fatalf("seed %d step %d: count %d, want %d distinct leaves", seed, step, got.Count, len(distinct))
			}
		}
	}
}

// TestLedgerCommitRehashesLogN is the deterministic scaling guard: a
// one-slot commit rehashes only the paths of the leaves it adds and
// drops, never the whole tree.
func TestLedgerCommitRehashesLogN(t *testing.T) {
	for _, n := range []int{1 << 10, 1 << 15} {
		l := filledLedger(n)
		bound := 2*int(math.Ceil(math.Log2(float64(n)))) + 4
		for i := 0; i < 64; i++ {
			before := l.tree.hashes
			slot := fmt.Sprintf("slot-%d", (i*7919)%n)
			l.Commit(map[string][]string{slot: {fmt.Sprintf("new-%d", i)}})
			if got := l.tree.hashes - before; got > bound {
				t.Fatalf("n=%d: replacing one slot rehashed %d nodes, want <= %d", n, got, bound)
			}
			before = l.tree.hashes
			l.Commit(map[string][]string{fmt.Sprintf("extra-%d", i): {fmt.Sprintf("extra-%d", i)}})
			if got := l.tree.hashes - before; got > bound {
				t.Fatalf("n=%d: adding one slot rehashed %d nodes, want <= %d", n, got, bound)
			}
		}
	}
}

// filledLedger commits n one-leaf slots in one batch.
func filledLedger(n int) *Ledger {
	l := NewLedger("w")
	slots := make(map[string][]string, n)
	for i := 0; i < n; i++ {
		slots[fmt.Sprintf("slot-%d", i)] = []string{fmt.Sprintf("leaf-%d", i)}
	}
	l.Commit(slots)
	return l
}

// BenchmarkLedgerCommit measures one commit that replaces one slot's
// leaf with a fresh one, against a ledger of n leaves: ns/op should stay
// flat as n grows.
func BenchmarkLedgerCommit(b *testing.B) {
	for _, n := range []int{1 << 10, 1 << 13, 1 << 15} {
		b.Run(fmt.Sprintf("leaves=%d", n), func(b *testing.B) {
			l := filledLedger(n)
			slots := l.Slots()
			before := l.tree.hashes
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l.Commit(map[string][]string{slots[i%n]: {"bench-" + strconv.Itoa(i)}})
			}
			b.ReportMetric(float64(l.tree.hashes-before)/float64(b.N), "rehashes/op")
		})
	}
}
