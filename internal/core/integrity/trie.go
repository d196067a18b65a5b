package integrity

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math/bits"
	"slices"
	"sort"
)

// The commitment is a compressed binary (crit-bit) trie over the set of
// distinct leaves, keyed by each leaf's node digest read MSB-first. A node
// digest is SHA-256 truncated to 128 bits, the width of every other hash
// in this package, which also keeps an interior node's input to a single
// SHA-256 block:
//
//	leaf node      D(leaf)      = SHA-256(0x00 || leaf)[:16]
//	interior node  D(bit, l, r) = SHA-256(0x01 || bit || D(l) || D(r))[:16]
//	root                        = hex(D(top)), "empty" for no leaves
//
// An interior node branches at the first bit (its depth, 0..127) where
// the keys below it differ: keys with a 0 there sit under l, keys with a
// 1 under r. A single-leaf subtree collapses to the leaf itself, so n
// leaves yield exactly n-1 interior nodes, and the shape depends only on
// the set of leaves — never on the order they arrived in. Binding the
// branch depth into every interior digest commits to that shape.
//
// MerkleRoot derives the root from scratch in n-1 interior hashes; the
// Ledger keeps the same trie live and rehashes only the paths a commit
// touched, so both produce the same root for the same leaf set.

const (
	leafTag     = 0x00
	interiorTag = 0x01
	// emptyRoot is the distinguished root of the empty leaf set.
	emptyRoot = "empty"
)

// digest is a node digest; a leaf's digest doubles as its trie key.
type digest [hashHexLen / 2]byte

// leafDigest hashes one leaf node.
func leafDigest(leaf string) digest {
	var buf [64]byte
	sum := sha256.Sum256(append(append(buf[:0], leafTag), leaf...))
	return digest(sum[:len(digest{})])
}

// interiorDigest hashes one interior node: its branch depth and its two
// children's digests.
func interiorDigest(bit int, left, right *digest) digest {
	var buf [2 + 2*len(digest{})]byte
	buf[0], buf[1] = interiorTag, byte(bit)
	copy(buf[2:], left[:])
	copy(buf[2+len(left):], right[:])
	sum := sha256.Sum256(buf[:])
	return digest(sum[:len(digest{})])
}

// renderRoot renders a top digest in the stored root form.
func renderRoot(d *digest) string {
	return hex.EncodeToString(d[:])
}

// bitAt reads key bit i, most significant bit of byte 0 first, so bit
// order agrees with bytes.Compare order.
func bitAt(key *digest, i int) int {
	return int(key[i>>3]>>(7-uint(i&7))) & 1
}

// critBit is the first bit at which a and b differ, or -1 if equal.
func critBit(a, b *digest) int {
	for i := range a {
		if x := a[i] ^ b[i]; x != 0 {
			return i*8 + bits.LeadingZeros8(x)
		}
	}
	return -1
}

// MerkleRoot folds a set of subject leaves into one commitment root by
// bulk derivation: leaves are keyed, sorted and deduplicated (set
// semantics), then the trie is built bottom-up in n-1 interior hashes.
// The empty set has the distinguished root "empty". It is the one root
// derivation every verifier uses, and it agrees with Ledger's
// incremental root for the same leaf set.
func MerkleRoot(leaves []string) string {
	if len(leaves) == 0 {
		return emptyRoot
	}
	keys := make([]digest, len(leaves))
	for i, l := range leaves {
		keys[i] = leafDigest(l)
	}
	slices.SortFunc(keys, func(a, b digest) int { return bytes.Compare(a[:], b[:]) })
	keys = slices.Compact(keys)
	top := foldSorted(keys)
	return renderRoot(&top)
}

// foldSorted derives the digest of the subtrie over sorted, distinct keys.
// All keys in the range share the bits above the first and last keys'
// crit bit, so that bit is the range's branch depth.
func foldSorted(keys []digest) digest {
	if len(keys) == 1 {
		return keys[0]
	}
	c := critBit(&keys[0], &keys[len(keys)-1])
	split := sort.Search(len(keys), func(i int) bool { return bitAt(&keys[i], c) == 1 })
	left, right := foldSorted(keys[:split]), foldSorted(keys[split:])
	return interiorDigest(c, &left, &right)
}

// node is one interior trie node. It caches its children's digests; a
// nil child is a leaf, whose key is its cached digest.
type node struct {
	child [2]*node
	hash  [2]digest
	bit   uint8
	// dirty marks a node whose subtree changed since it was last hashed:
	// its parent's cached digest of it is stale until the next rehash.
	dirty bool
}

// trie is the incremental form of the commitment. Inserts and removals
// mark the nodes on their path dirty; root rehashes only dirty nodes, so
// a commit touching k leaves costs O(k log n) hashes.
type trie struct {
	// top is the root node (nil with fewer than two leaves) and topHash
	// its digest — the only leaf's key when n is 1.
	top     *node
	topHash digest
	n       int
	// hashes counts interior digests computed: the deterministic cost
	// the scaling guard asserts on.
	hashes int
}

// insert adds a leaf by its digest, which must not be present.
func (t *trie) insert(key digest) {
	if t.n == 0 {
		t.topHash, t.n = key, 1
		return
	}
	// Find the leaf whose key shares the longest prefix with key.
	at, h := t.top, &t.topHash
	for at != nil {
		d := bitAt(&key, int(at.bit))
		at, h = at.child[d], &at.hash[d]
	}
	insertInto(&t.top, &t.topHash, &key, critBit(&key, h))
	t.n++
}

// insertInto inserts key into the subtree in slot (child, hash),
// splitting the first edge whose branch depth exceeds crit bit c.
func insertInto(child **node, hash *digest, key *digest, c int) {
	n := *child
	if n == nil || int(n.bit) > c {
		in := &node{bit: uint8(c), dirty: true}
		e := bitAt(key, c)
		in.hash[e] = *key
		in.child[1-e], in.hash[1-e] = n, *hash
		*child = in
		return
	}
	n.dirty = true
	d := bitAt(key, int(n.bit))
	insertInto(&n.child[d], &n.hash[d], key, c)
}

// remove deletes the leaf with the given key, which must be present.
func (t *trie) remove(key digest) {
	if t.n == 1 {
		t.topHash = digest{}
	} else {
		removeFrom(&t.top, &t.topHash, &key)
	}
	t.n--
}

// removeFrom deletes key from the subtree in slot (child, hash): the node
// holding the leaf collapses into its other side.
func removeFrom(child **node, hash *digest, key *digest) {
	n := *child
	d := bitAt(key, int(n.bit))
	if n.child[d] == nil {
		*child, *hash = n.child[1-d], n.hash[1-d]
		return
	}
	n.dirty = true
	removeFrom(&n.child[d], &n.hash[d], key)
}

// root rehashes every dirty node and renders the root.
func (t *trie) root() string {
	if t.n == 0 {
		return emptyRoot
	}
	if t.top != nil && t.top.dirty {
		t.topHash = t.rehash(t.top)
	}
	return renderRoot(&t.topHash)
}

// rehash refreshes a dirty node's stale child digests and returns its own.
func (t *trie) rehash(n *node) digest {
	for d, c := range n.child {
		if c != nil && c.dirty {
			n.hash[d] = t.rehash(c)
		}
	}
	n.dirty = false
	t.hashes++
	return interiorDigest(int(n.bit), &n.hash[0], &n.hash[1])
}
