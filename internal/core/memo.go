package core

import (
	"github.com/fastba/fastba/internal/bitstring"
	"github.com/fastba/fastba/internal/intern"
	"github.com/fastba/fastba/internal/sampler"
)

// Sampler rows. I, H and J are pure functions, yet every delivery is
// authenticated by a membership question about them — "is y ∈ H(s, x)?",
// "is w ∈ J(x, r)?" — and answering one from scratch walks d cycle-walking
// Feistel permutations. An agreement asks the same few rows over and over
// (an Fw1 storm is d³ (x, w) tuples per node over n requesters, in about
// d·min(n, d²) messages), so each row is derived once, as a bit vector over
// node ids, and every later question is an index.
//
// Where each row is kept (DESIGN.md §4.1 "Sampler rows"):
//
//   - per interned string s, in the node's strState: the rows only this node
//     asks about, I(s, this) and the inverse row {x : this ∈ H(s, x)};
//   - in the shared samplers, for every node of the process: H(s, x), also in
//     sampling order (the order an Fw1 fan-out sends in), in the row table
//     of s (sampler.PermQuorum.Rows), and J(x, r) in the poll sampler's
//     fixed table (sampler.Poll.Row). The node keeps a pointer to the row
//     table of the string it last asked about, so churn in the sampler's
//     string cache never costs it its belief's rows.
//
// The per-string rows belong to one agreement instance: Reset empties them
// and drops the table pointer, so a pooled node carries nothing into the
// next instance. A string earns per-string rows, and its shared H rows, only
// once the handlers have interned it, which they do after authenticating
// its sender; the rows of a string the node holds no state for are derived
// into scratch and never published. A row costs d Perm.Apply (or Invert) to
// derive — what the one direct membership test it replaces would have cost —
// and rows are derived one at a time, on the first question that needs them,
// so neither construction nor a flood of junk strings or labels can make a
// node sample more than it would have without them.
//
// Membership is total: ids outside [0, n) — a byzantine frame can carry any
// integer — belong to no row, and never reach a permutation.
type samplerMemo struct {
	// pull is the shared row table of H(s, ·) for the string interned as
	// pullFor; nil when the node has asked about no string yet.
	pull    *sampler.QuorumRows
	pullFor intern.ID
	// sampled is the reused buffer rows are sampled into before they are
	// folded into bit vectors. scratch receives rows that must not be kept,
	// and none is the row of an id outside the domain: always empty, never
	// written.
	sampled []int
	scratch bitstring.Bitset
	none    bitstring.Bitset
}

// fillRow overwrites row with the given member ids of the node domain.
func (n *Node) fillRow(row *bitstring.Bitset, members []int) *bitstring.Bitset {
	row.Reset()
	row.Grow(n.params.N)
	for _, id := range members {
		row.Set(id)
	}
	return row
}

// pushQuorum returns the members of the Push Quorum I(s, this); its Count is
// the quorum's distinct size. sid is s's interned id, or intern.None.
func (n *Node) pushQuorum(sid intern.ID, s bitstring.String) *bitstring.Bitset {
	row := &n.memo.scratch
	if sid != intern.None {
		row = &n.state(sid).pushQuorum
		if row.Count() > 0 {
			return row
		}
	}
	n.memo.sampled = n.smp.I.QuorumAppend(n.memo.sampled[:0], s, n.id)
	return n.fillRow(row, n.memo.sampled)
}

// proxied returns {x : this ∈ H(s, x)}, the requesters whose Pull Quorum for
// s contains this node, from one inverse query. sid is s's interned id, or
// intern.None.
func (n *Node) proxied(sid intern.ID, s bitstring.String) *bitstring.Bitset {
	row := &n.memo.scratch
	if sid != intern.None {
		row = &n.state(sid).proxied
		if row.Count() > 0 {
			return row
		}
	}
	n.memo.sampled = n.smp.H.InverseAppend(n.memo.sampled[:0], s, n.id)
	return n.fillRow(row, n.memo.sampled)
}

// pullQuorum returns the members of the Pull Quorum H(s, x); its Count is the
// quorum's distinct size (the threshold denominator of Algorithms 2/3). sid
// is s's interned id, or intern.None.
func (n *Node) pullQuorum(sid intern.ID, s bitstring.String, x int) *bitstring.Bitset {
	if uint(x) >= uint(n.params.N) {
		return &n.memo.none
	}
	if sid == intern.None {
		n.memo.sampled = n.smp.H.QuorumAppend(n.memo.sampled[:0], s, x)
		return n.fillRow(&n.memo.scratch, n.memo.sampled)
	}
	return &n.pullRow(sid, s, x).Bits
}

// pullRow returns the shared row H(s, x). s must be interned as sid and x a
// node id.
func (n *Node) pullRow(sid intern.ID, s bitstring.String, x int) *sampler.Row {
	if n.memo.pull == nil || n.memo.pullFor != sid {
		n.memo.pull = n.smp.H.Rows(s)
		n.memo.pullFor = sid
	}
	return n.memo.pull.Row(x)
}

// pollList returns the members of the Poll List J(x, r).
func (n *Node) pollList(x int, r uint64) *bitstring.Bitset {
	if uint(x) >= uint(n.params.N) {
		return &n.memo.none
	}
	return &n.smp.J.Row(x, r).Bits
}
