package core

import (
	"github.com/fastba/fastba/internal/bitstring"
	"github.com/fastba/fastba/internal/intern"
)

// The sampler memo. I, H and J are pure functions, yet every delivery is
// authenticated by a membership question about them — "is y ∈ H(s, x)?",
// "is w ∈ J(x, r)?" — and answering one from the shared samplers walks d
// cycle-walking Feistel permutations. An agreement asks the same few rows
// over and over (an Fw1 storm is d³ (x, w) tuples per node over n
// requesters, in about d·min(n, d²) messages), so the node derives each row
// once, as a bit vector over node ids, and answers every later question
// with an index.
//
// What is kept, and for how long (DESIGN.md §4 "Sampler memo"):
//
//   - per interned string s (in strState): I(s, this) and the inverse row
//     {x : this ∈ H(s, x)};
//   - per node id x (requesterRows): one row of H(·, x) — also in sampling
//     order, which is the order an Fw1 fan-out sends in — and one poll list
//     J(x, ·), each tagged with the string or label it was derived for and
//     re-derived in place when asked about another.
//
// All of it belongs to one agreement instance: Reset empties every row, so a
// pooled node carries nothing into the next instance and memory is bounded by
// live instances. Within an instance the per-id table is 2n rows whatever the
// traffic, and a string earns per-string rows only once the handlers have
// interned it, which they do after authenticating its sender; rows of a
// string the node holds no state for are derived into scratch and forgotten.
// A row costs d Perm.Apply (or Invert) to derive — what the one direct
// membership test it replaces would have cost — and rows are derived one at
// a time, on the first question that needs them, so neither construction nor
// a flood of junk strings or labels can make a node sample more than it
// would have without the memo.
//
// Membership is total: ids outside [0, n) — a byzantine frame can carry any
// integer — belong to no row, and never reach a permutation.
type samplerMemo struct {
	// requesters is indexed by node id; allocated on first use.
	requesters []requesterRows
	// sampled is the reused buffer rows are sampled into before they are
	// folded into bit vectors. scratch receives rows that must not be kept,
	// and none is the row of an id outside the domain: always empty, never
	// written.
	sampled []int
	scratch bitstring.Bitset
	none    bitstring.Bitset
}

// requesterRows is what the memo holds about one node id x: the rows the
// Fw1/Fw2/Poll/Answer handlers consult about a requester. An empty row has
// not been derived.
type requesterRows struct {
	pullQuorum bitstring.Bitset // H(s, x) for the string interned as pullFor
	pullOrder  []int32          // its distinct members, in sampling order
	pullFor    intern.ID
	pollList   bitstring.Bitset // J(x, label)
	label      uint64
}

// reset forgets every derived row, keeping the storage.
func (m *samplerMemo) reset() {
	for i := range m.requesters {
		m.requesters[i].pullQuorum.Reset()
		m.requesters[i].pollList.Reset()
	}
}

// requester returns the rows kept about node id x, or nil for an id outside
// the domain.
func (n *Node) requester(x int) *requesterRows {
	if uint(x) >= uint(n.params.N) {
		return nil
	}
	if n.memo.requesters == nil {
		n.memo.requesters = make([]requesterRows, n.params.N)
	}
	return &n.memo.requesters[x]
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
	rq := n.requester(x)
	if rq == nil {
		return &n.memo.none
	}
	if sid == intern.None {
		n.memo.sampled = n.smp.H.QuorumAppend(n.memo.sampled[:0], s, x)
		return n.fillRow(&n.memo.scratch, n.memo.sampled)
	}
	row := &rq.pullQuorum
	if rq.pullFor == sid && row.Count() > 0 {
		return row
	}
	rq.pullFor = sid
	n.memo.sampled = n.smp.H.QuorumAppend(n.memo.sampled[:0], s, x)
	n.fillRow(row, n.memo.sampled)
	rq.pullOrder = rq.pullOrder[:0]
	for _, y := range distinct(n.memo.sampled) {
		rq.pullOrder = append(rq.pullOrder, int32(y))
	}
	return row
}

// pullMembers returns the distinct members of the Pull Quorum H(s, x) in
// sampling order — the order a fan-out to the quorum sends in. s must be
// interned as sid and x a node id.
func (n *Node) pullMembers(sid intern.ID, s bitstring.String, x int) []int32 {
	n.pullQuorum(sid, s, x)
	return n.memo.requesters[x].pullOrder
}

// pollList returns the members of the Poll List J(x, r).
func (n *Node) pollList(x int, r uint64) *bitstring.Bitset {
	rq := n.requester(x)
	if rq == nil {
		return &n.memo.none
	}
	row := &rq.pollList
	if rq.label == r && row.Count() > 0 {
		return row
	}
	rq.label = r
	n.memo.sampled = n.smp.J.ListAppend(n.memo.sampled[:0], x, r)
	return n.fillRow(row, n.memo.sampled)
}
