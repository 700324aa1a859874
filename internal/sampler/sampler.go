// Package sampler implements the sampler machinery of §2.2 of the paper:
// the quorum samplers I and H of Lemma 1 (used for Push Quorums and Pull
// Quorums) and the poll-list sampler J of Lemma 2, together with empirical
// checkers for the (θ, δ)-sampler property and for Lemma 2's Properties 1
// and 2 (the border-expansion / isoperimetric condition of Figure 3).
//
// Lemma 1 proves the existence of samplers in which no node is overloaded.
// We realize I and H constructively as the union of d keyed pseudorandom
// permutations of [n]:
//
//	I(s, x) = { σ_{s,j}(x) : j ∈ [d] }
//
// Each σ_{s,j} is a bijection, so every node y belongs to exactly d quorums
// I(s, ·) for every string s — the no-overload condition holds
// deterministically with constant a = 1 — while quorum composition remains
// pseudorandom (the sampler property is validated empirically by this
// package's tests, mirroring the random-graph argument of §4.1). Inverse
// queries ("which quorums do I sit in?"), needed by the Push phase, cost
// O(d) permutation inversions.
package sampler

import (
	"fmt"
	"sync/atomic"

	"github.com/fastba/fastba/internal/bitstring"
	"github.com/fastba/fastba/internal/prng"
)

// Quorum is the interface shared by the string-indexed samplers I and H.
// Implementations must be deterministic and safe for concurrent use.
// Quorum and Inverse must return freshly allocated slices on every call:
// callers own the result and may mutate it (the protocol core deduplicates
// quorums in place on its fan-out paths). The Append forms sample into a
// caller-owned slice instead — dst's existing contents are preserved, so
// callers pass dst[:0] to reuse capacity — and are what the protocol core
// evaluates the rows it does not share into.
type Quorum interface {
	// Quorum returns the quorum assigned to node x for string s.
	// The result may contain duplicates only if the implementation is
	// multiset-based; the permutation construction returns distinct slots
	// per j but the same node may appear under two different j.
	Quorum(s bitstring.String, x int) []int
	// QuorumAppend appends Quorum(s, x) to dst and returns the extended
	// slice.
	QuorumAppend(dst []int, s bitstring.String, x int) []int
	// Inverse returns every node x such that y ∈ Quorum(s, x).
	Inverse(s bitstring.String, y int) []int
	// InverseAppend appends Inverse(s, y) to dst and returns the extended
	// slice.
	InverseAppend(dst []int, s bitstring.String, y int) []int
	// Contains reports whether y ∈ Quorum(s, x).
	Contains(s bitstring.String, x, y int) bool
	// Size returns the quorum cardinality d (counting multiplicity).
	Size() int
	// N returns the node-domain size.
	N() int
}

// PermQuorum is the permutation-based quorum sampler described in the
// package comment. It realizes both I and H; the two instances are
// domain-separated by their key tags.
type PermQuorum struct {
	n, d int
	seed uint64

	// cache is a direct-mapped table of recently used permutation sets,
	// indexed by string hash. Its size is fixed, so a sampler shared by
	// every instance of a long-lived decision log (one new string per
	// instance) or probed with junk strings by a flooding adversary never
	// grows; a miss or an eviction only re-derives d Feistel key schedules
	// and, for the strings asked about again, their rows. Slots are
	// published atomically and a set's permutations never change afterwards,
	// which makes lookups lock-free; racing builders store identical sets,
	// and a set's row table is attached to it once, by compare-and-swap.
	cache [permCacheSlots]atomic.Pointer[permSet]
}

// permCacheSlots bounds the strings whose permutations a PermQuorum keeps.
// An agreement queries a handful of strings at a time (gstring plus the
// private candidates of the unknowledgeable few), so a small table already
// serves almost every lookup.
const permCacheSlots = 64

// permSet is the d permutations σ_{s,j} of one string, tagged with the
// string hash they were keyed by, and the string's row table, allocated by
// the first Rows call.
type permSet struct {
	hash  uint64
	perms []prng.Perm
	rows  atomic.Pointer[QuorumRows]
}

var _ Quorum = (*PermQuorum)(nil)

// NewPermQuorum returns a quorum sampler over [0, n) with quorums of size d.
// tag domain-separates independent samplers drawn from the same master seed
// (e.g. "I" and "H"). It panics on non-positive n or d: sampler geometry is
// fixed at configuration time and invalid values are programming errors.
func NewPermQuorum(n, d int, seed uint64, tag string) *PermQuorum {
	if n <= 0 || d <= 0 {
		panic(fmt.Sprintf("sampler: invalid PermQuorum geometry n=%d d=%d", n, d))
	}
	return &PermQuorum{n: n, d: d, seed: prng.DeriveKey(seed, "sampler/"+tag, 0)}
}

// N returns the node-domain size.
func (q *PermQuorum) N() int { return q.n }

// Size returns d, the quorum cardinality.
func (q *PermQuorum) Size() int { return q.d }

// Quorum returns { σ_{s,j}(x) : j < d }.
func (q *PermQuorum) Quorum(s bitstring.String, x int) []int {
	return q.QuorumAppend(make([]int, 0, q.d), s, x)
}

// QuorumAppend appends Quorum(s, x) to dst.
func (q *PermQuorum) QuorumAppend(dst []int, s bitstring.String, x int) []int {
	ps := q.setFor(s).perms
	for j := range ps {
		dst = append(dst, ps[j].Apply(x))
	}
	return dst
}

// Inverse returns { σ_{s,j}^{-1}(y) : j < d }: the nodes whose quorum for s
// contains y. Its length is always exactly d — the deterministic
// no-overload guarantee of this construction.
func (q *PermQuorum) Inverse(s bitstring.String, y int) []int {
	return q.InverseAppend(make([]int, 0, q.d), s, y)
}

// InverseAppend appends Inverse(s, y) to dst.
func (q *PermQuorum) InverseAppend(dst []int, s bitstring.String, y int) []int {
	ps := q.setFor(s).perms
	for j := range ps {
		dst = append(dst, ps[j].Invert(y))
	}
	return dst
}

// Contains reports whether y ∈ Quorum(s, x) in O(d) time.
func (q *PermQuorum) Contains(s bitstring.String, x, y int) bool {
	ps := q.setFor(s).perms
	for j := range ps {
		if ps[j].Apply(x) == y {
			return true
		}
	}
	return false
}

// Rows returns the row table of string s: the rows H(s, x), derived one at
// a time on request and shared by every caller in the process. The table is
// the one s's cache slot holds, so callers asking about the same string
// share it as long as the slot does; a caller that keeps the table keeps its
// rows after an eviction.
func (q *PermQuorum) Rows(s bitstring.String) *QuorumRows {
	set := q.setFor(s)
	if t := set.rows.Load(); t != nil {
		return t
	}
	t := &QuorumRows{n: q.n, perms: set.perms, rows: make([]atomic.Pointer[Row], q.n)}
	if !set.rows.CompareAndSwap(nil, t) {
		t = set.rows.Load()
	}
	return t
}

// CachedStrings returns how many strings' permutation sets the sampler
// currently holds — its whole per-string footprint, at most permCacheSlots.
func (q *PermQuorum) CachedStrings() int {
	held := 0
	for i := range q.cache {
		if q.cache[i].Load() != nil {
			held++
		}
	}
	return held
}

// PublishedRows returns how many rows the row tables of the cached strings
// hold.
func (q *PermQuorum) PublishedRows() int {
	held := 0
	for i := range q.cache {
		if set := q.cache[i].Load(); set != nil {
			if t := set.rows.Load(); t != nil {
				held += t.published()
			}
		}
	}
	return held
}

// setFor returns the permutation set of s, from the cache slot of s's hash
// when it still holds it and freshly derived (and published to that slot)
// otherwise.
func (q *PermQuorum) setFor(s bitstring.String) *permSet {
	h := s.Hash64()
	slot := &q.cache[h%permCacheSlots]
	if set := slot.Load(); set != nil && set.hash == h {
		return set
	}
	set := &permSet{hash: h, perms: make([]prng.Perm, q.d)}
	for j := range set.perms {
		set.perms[j] = prng.MakePerm(q.n, prng.Hash3(q.seed, h, uint64(j)))
	}
	slot.Store(set)
	return set
}

// HashQuorum is a naive sampler that draws each quorum member independently
// by hashing (s, x, j). It does NOT guarantee the no-overload condition of
// Lemma 1 — a node may sit in far more than d quorums for some string — and
// exists as the ablation baseline quantifying what the permutation
// construction buys (experiment E12 companion; see also TestHashQuorumCanOverload).
type HashQuorum struct {
	n, d int
	seed uint64
}

var _ Quorum = (*HashQuorum)(nil)

// NewHashQuorum returns the naive independent-hash sampler.
func NewHashQuorum(n, d int, seed uint64, tag string) *HashQuorum {
	if n <= 0 || d <= 0 {
		panic(fmt.Sprintf("sampler: invalid HashQuorum geometry n=%d d=%d", n, d))
	}
	return &HashQuorum{n: n, d: d, seed: prng.DeriveKey(seed, "sampler/hash/"+tag, 0)}
}

// N returns the node-domain size.
func (q *HashQuorum) N() int { return q.n }

// Size returns d.
func (q *HashQuorum) Size() int { return q.d }

// Quorum returns the d independently hashed members for (s, x).
func (q *HashQuorum) Quorum(s bitstring.String, x int) []int {
	return q.QuorumAppend(make([]int, 0, q.d), s, x)
}

// QuorumAppend appends Quorum(s, x) to dst.
func (q *HashQuorum) QuorumAppend(dst []int, s bitstring.String, x int) []int {
	h := s.Hash64()
	for j := 0; j < q.d; j++ {
		dst = append(dst, int(prng.Hash4(q.seed, h, uint64(x), uint64(j))%uint64(q.n)))
	}
	return dst
}

// Inverse scans the whole domain — Θ(n·d). The naive construction has no
// efficient inverse; this is part of why the permutation sampler is used.
func (q *HashQuorum) Inverse(s bitstring.String, y int) []int {
	return q.InverseAppend(nil, s, y)
}

// InverseAppend appends Inverse(s, y) to dst.
func (q *HashQuorum) InverseAppend(dst []int, s bitstring.String, y int) []int {
	for x := 0; x < q.n; x++ {
		if q.Contains(s, x, y) {
			dst = append(dst, x)
		}
	}
	return dst
}

// Contains reports whether y ∈ Quorum(s, x).
func (q *HashQuorum) Contains(s bitstring.String, x, y int) bool {
	h := s.Hash64()
	for j := 0; j < q.d; j++ {
		if int(prng.Hash4(q.seed, h, uint64(x), uint64(j))%uint64(q.n)) == y {
			return true
		}
	}
	return false
}
