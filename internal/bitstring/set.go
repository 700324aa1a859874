package bitstring

import "math/bits"

// Set is an allocation-lean set of small non-negative integers (node IDs)
// sized for quorum-scale cardinalities. The protocol's vouch and answer
// counters hold at most d = O(log n) distinct members, so a plain slice
// with linear membership beats both map[int]bool (per-key bucket
// allocations, hashing) and a dense bit vector (Θ(n) bits per set) on the
// delivery hot path. The zero value is an empty set.
type Set struct {
	ids []int32
}

// Add inserts v and reports whether it was newly added.
func (s *Set) Add(v int) bool {
	id := int32(v)
	for _, have := range s.ids {
		if have == id {
			return false
		}
	}
	s.ids = append(s.ids, id)
	return true
}

// Contains reports membership.
func (s *Set) Contains(v int) bool {
	id := int32(v)
	for _, have := range s.ids {
		if have == id {
			return true
		}
	}
	return false
}

// Len returns the cardinality.
func (s *Set) Len() int { return len(s.ids) }

// ForEach calls f for every member, in insertion order.
func (s *Set) ForEach(f func(v int)) {
	for _, id := range s.ids {
		f(int(id))
	}
}

// Reset empties the set, keeping its capacity for reuse.
func (s *Set) Reset() { s.ids = s.ids[:0] }

// Bitset is a dense bit vector over a small integer domain with a
// maintained population count. The protocol cores use it over the dense
// intern-ID space of candidate strings (per-node, bounded by Lemma 4), so
// flag lookups on the delivery path are an index instead of a map probe.
// The zero value is an empty set over an empty domain; Set grows the
// domain as needed.
type Bitset struct {
	words []uint64
	count int
}

// Set sets bit i and reports whether it was previously clear. It panics on
// negative i.
func (b *Bitset) Set(i int) bool {
	if i < 0 {
		panic("bitstring: negative Bitset index")
	}
	w := i >> 6
	for w >= len(b.words) {
		b.words = append(b.words, 0)
	}
	mask := uint64(1) << (i & 63)
	if b.words[w]&mask != 0 {
		return false
	}
	b.words[w] |= mask
	b.count++
	return true
}

// Grow extends the domain to hold [0, n) in one step, so that filling a set
// whose domain is known up front allocates once instead of once per doubling.
func (b *Bitset) Grow(n int) {
	if words := (n + 63) >> 6; words > len(b.words) {
		b.words = append(b.words, make([]uint64, words-len(b.words))...)
	}
}

// Get reports whether bit i is set. Out-of-domain indices read as clear.
func (b *Bitset) Get(i int) bool {
	w := i >> 6
	if i < 0 || w >= len(b.words) {
		return false
	}
	return b.words[w]&(1<<(i&63)) != 0
}

// Count returns the number of set bits.
func (b *Bitset) Count() int { return b.count }

// Reset clears every bit, keeping the word storage for reuse.
func (b *Bitset) Reset() {
	for i := range b.words {
		b.words[i] = 0
	}
	b.count = 0
}

// recount is a debugging invariant helper: it recomputes the population
// count from the words. Exposed to tests only through count equality.
func (b *Bitset) recount() int {
	total := 0
	for _, w := range b.words {
		total += bits.OnesCount64(w)
	}
	return total
}
