package sampler

import (
	"fmt"
	"sync/atomic"

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

	// rows is a direct-mapped table of published poll lists, indexed by a
	// hash of (x, r mod |R|) and tagged with it (see Row). Its size is fixed
	// at pollSlots(n).
	rows []atomic.Pointer[pollRow]
}

// NewPoll returns a poll-list sampler over [0, n) with lists of size d and
// label domain R = [0, labels). The paper requires |R| polynomial in n;
// callers typically use n². It panics on invalid geometry.
func NewPoll(n, d int, labels uint64, seed uint64) *Poll {
	if n <= 0 || d <= 0 || d > n || labels == 0 {
		panic(fmt.Sprintf("sampler: invalid Poll geometry n=%d d=%d labels=%d", n, d, labels))
	}
	return &Poll{
		n: n, d: d, labels: labels,
		seed: prng.DeriveKey(seed, "sampler/J", 0),
		rows: make([]atomic.Pointer[pollRow], pollSlots(n)),
	}
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
	perm := p.permFor(x, r)
	list := make([]int, p.d)
	for i := range list {
		list[i] = perm.Apply(i)
	}
	return list
}

// Row returns J(x, r) for a node x in [0, n) as a published row, deriving it
// with d Perm.Apply when the table slot of (x, r mod |R|) holds another
// list. A hit is one Mix64 and one atomic load. Labels are the adversary's
// to choose, so the table is direct-mapped and of fixed size: a flood of
// labels evicts rows, and costs each request what List would, but never
// grows the table. Racing derivers publish equal rows.
func (p *Poll) Row(x int, r uint64) *Row {
	r %= p.labels
	slot := &p.rows[prng.Mix64(r*uint64(p.n)+uint64(x))&uint64(len(p.rows)-1)]
	if pr := slot.Load(); pr != nil && pr.x == x && pr.r == r {
		return &pr.Row
	}
	pr := &pollRow{x: x, r: r}
	pr.init(p.n, p.d)
	perm := p.permFor(x, r)
	for i := 0; i < p.d; i++ {
		pr.add(perm.Apply(i))
	}
	slot.Store(pr)
	return &pr.Row
}

// PublishedRows returns how many poll lists the row table holds, at most
// its fixed size.
func (p *Poll) PublishedRows() int {
	held := 0
	for i := range p.rows {
		if p.rows[i].Load() != nil {
			held++
		}
	}
	return held
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

// permFor builds the permutation of (x, r) by value, on the caller's stack:
// what the sampler keeps per (x, r) is the published row, not its key
// schedule.
func (p *Poll) permFor(x int, r uint64) prng.Perm {
	return prng.MakePerm(p.n, prng.Hash3(p.seed, uint64(x), r%p.labels))
}
