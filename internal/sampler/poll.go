package sampler

import (
	"fmt"

	"github.com/fastba/fastba/internal/prng"
)

// Poll is the poll-list sampler J : [n] × R → [n]^d of Lemma 2. Given a
// node x and a random label r drawn from the polynomial label domain R,
// J(x, r) is the poll list that x treats as authoritative when verifying a
// candidate string (Algorithm 1).
//
// The construction takes, for each (x, r), the first d elements of a keyed
// pseudorandom permutation of [n], so a poll list never contains duplicate
// nodes. Lemma 2's two properties are validated empirically by the
// CheckProperty1 and BorderExpansion checkers in this package:
//
//  1. at most θ·n of the (x, r) pairs map to a list with a minority of
//     good nodes, and
//  2. for every small pair-set L, Σ_{(x,r)∈L} |J(x,r) \ L*| > (2/3)·d·|L| —
//     the border expansion that stops the adversary from cornering a set of
//     nodes (Figure 3).
type Poll struct {
	n, d   int
	labels uint64
	seed   uint64
}

// NewPoll returns a poll-list sampler over [0, n) with lists of size d and
// label domain R = [0, labels). The paper requires |R| polynomial in n;
// callers typically use n². It panics on invalid geometry.
func NewPoll(n, d int, labels uint64, seed uint64) *Poll {
	if n <= 0 || d <= 0 || d > n || labels == 0 {
		panic(fmt.Sprintf("sampler: invalid Poll geometry n=%d d=%d labels=%d", n, d, labels))
	}
	return &Poll{n: n, d: d, labels: labels, seed: prng.DeriveKey(seed, "sampler/J", 0)}
}

// N returns the node-domain size.
func (p *Poll) N() int { return p.n }

// Size returns the poll-list cardinality d.
func (p *Poll) Size() int { return p.d }

// Labels returns the cardinality of the label domain R.
func (p *Poll) Labels() uint64 { return p.labels }

// List returns J(x, r): d distinct nodes. The label is reduced modulo |R|
// so that callers may pass raw 64-bit randomness.
func (p *Poll) List(x int, r uint64) []int {
	return p.ListAppend(make([]int, 0, p.d), x, r)
}

// ListAppend appends J(x, r) to dst, the allocation-free form of List
// (callers pass a reused scratch slice as dst[:0]).
func (p *Poll) ListAppend(dst []int, x int, r uint64) []int {
	perm := p.permFor(x, r)
	for i := 0; i < p.d; i++ {
		dst = append(dst, perm.Apply(i))
	}
	return dst
}

// Contains reports whether w ∈ J(x, r), in O(d).
func (p *Poll) Contains(x int, r uint64, w int) bool {
	perm := p.permFor(x, r)
	for i := 0; i < p.d; i++ {
		if perm.Apply(i) == w {
			return true
		}
	}
	return false
}

func (p *Poll) permFor(x int, r uint64) prng.Perm {
	// The sampler itself keeps nothing per (x, r): labels are the
	// adversary's to choose, so any table here could be churned, and one
	// shared Poll serves every instance of a long-lived decision log. The
	// Perm is built by value, on the caller's stack. What makes this
	// affordable is that the protocol core does not come here per delivery:
	// each node memoises the lists it has verified for the length of one
	// agreement instance (internal/core/memo.go).
	return prng.MakePerm(p.n, prng.Hash3(p.seed, uint64(x), r%p.labels))
}
