package ae

import (
	"sort"

	"github.com/fastba/fastba/internal/bitstring"
	"github.com/fastba/fastba/internal/prng"
	"github.com/fastba/fastba/internal/simnet"
)

// MsgElect is a root-committee member's election broadcast: its bin choice
// for Feige's lightest-bin election plus its private random segment.
type MsgElect struct {
	Bin uint32
	Seg bitstring.String
}

// WireSize returns the payload size in bytes.
func (m MsgElect) WireSize() int { return 4 + m.Seg.WireSize() }

// Kind returns the metric kind tag.
func (m MsgElect) Kind() string { return "elect" }

// MsgValue carries the string down the tree. Level/Index identify the
// *receiving* committee (or the leaf range when Level == depth+1).
type MsgValue struct {
	Level int32
	Index int32
	S     bitstring.String
}

// WireSize returns the payload size in bytes.
func (m MsgValue) WireSize() int { return 8 + m.S.WireSize() }

// Kind returns the metric kind tag.
func (m MsgValue) Kind() string { return "value" }

// Node is a correct participant of the almost-everywhere protocol. It is
// synchronous: per-round tallies happen in OnRoundEnd.
//
// Round schedule (tree depth D):
//
//	round 0 (Init): root members broadcast MsgElect within the committee.
//	tick 1:         root members run the election, obtain gstring, send
//	                MsgValue to both child committees (level 1).
//	tick k+1:       level-k committees adopt the majority of the values
//	                received from their parent and forward down; leaf
//	                committees (level D) fan out to their whole range.
//	tick D+2:       every node adopts the majority of the leaf values.
type Node struct {
	id   int
	p    Params
	tree *Tree
	rng  *prng.Source

	memberships map[CommitteeID]bool

	elects map[int]MsgElect               // root election: sender -> announcement
	values map[CommitteeID]map[int][]byte // committee -> sender -> candidate value key
	strs   map[string]bitstring.String    // value key -> string
	final  map[int][]byte                 // leaf fan-out: sender -> value key

	belief bitstring.String
	done   bool
	// rootValue is the election outcome computed locally by a root member
	// (zero elsewhere); the run harness uses the majority across correct
	// root members as the ground-truth gstring.
	rootValue bitstring.String
}

var _ simnet.Ticker = (*Node)(nil)

// NewNode builds a correct AE participant with its private randomness.
func NewNode(id int, p Params, tree *Tree, rng *prng.Source) *Node {
	n := &Node{
		id:          id,
		p:           p,
		tree:        tree,
		rng:         rng,
		memberships: make(map[CommitteeID]bool),
		elects:      make(map[int]MsgElect),
		values:      make(map[CommitteeID]map[int][]byte),
		strs:        make(map[string]bitstring.String),
		final:       make(map[int][]byte),
	}
	for _, cid := range tree.Memberships(id) {
		n.memberships[cid] = true
	}
	return n
}

// Belief returns the node's final belief about gstring (zero String if the
// protocol did not reach it).
func (n *Node) Belief() bitstring.String { return n.belief }

// Init implements simnet.Node: root members broadcast their election
// announcement.
func (n *Node) Init(ctx simnet.Context) {
	root := CommitteeID{Level: 0, Index: 0}
	if !n.memberships[root] {
		return
	}
	announce := MsgElect{
		Bin: uint32(n.rng.Intn(n.p.Bins)),
		Seg: bitstring.Random(n.rng, n.p.StringBits),
	}
	for _, peer := range n.tree.Committee(0, 0) {
		ctx.Send(peer, announce)
	}
}

// Deliver implements simnet.Node.
func (n *Node) Deliver(ctx simnet.Context, from simnet.NodeID, m simnet.Message) {
	switch msg := m.(type) {
	case MsgElect:
		// Only root members tally the election, and only announcements
		// from fellow root members count.
		if !n.memberships[CommitteeID{Level: 0, Index: 0}] {
			return
		}
		if !n.isMember(0, 0, from) {
			return
		}
		if _, dup := n.elects[from]; dup {
			return // equivocation within a round: first value wins
		}
		if msg.Seg.Len() != n.p.StringBits {
			return
		}
		n.elects[from] = msg
	case MsgValue:
		n.onValue(from, msg)
	}
}

func (n *Node) onValue(from int, m MsgValue) {
	if m.S.Len() != n.p.StringBits {
		return
	}
	key := []byte(m.S.Key())
	n.strs[string(key)] = m.S
	if int(m.Level) == n.tree.Depth()+1 {
		// Leaf fan-out to the whole range: sender must be a member of
		// this node's leaf committee.
		leafIdx := n.id * (1 << n.tree.Depth()) / n.p.N
		if !n.isMember(n.tree.Depth(), leafIdx, from) {
			return
		}
		if _, dup := n.final[from]; !dup {
			n.final[from] = key
		}
		return
	}
	cid := CommitteeID{Level: int(m.Level), Index: int(m.Index)}
	if !n.memberships[cid] {
		return
	}
	// The sender must belong to the parent committee.
	if cid.Level == 0 || !n.isMember(cid.Level-1, cid.Index/2, from) {
		return
	}
	bySender := n.values[cid]
	if bySender == nil {
		bySender = make(map[int][]byte)
		n.values[cid] = bySender
	}
	if _, dup := bySender[from]; !dup {
		bySender[from] = key
	}
}

// OnRoundEnd implements simnet.Ticker: the committee schedule.
func (n *Node) OnRoundEnd(ctx simnet.Context, round int) {
	depth := n.tree.Depth()
	switch {
	case round == 1:
		if n.memberships[CommitteeID{Level: 0, Index: 0}] {
			g := n.runElection()
			n.rootValue = g
			n.sendDown(ctx, 0, 0, g)
		}
	case round >= 2 && round <= depth+1:
		level := round - 1
		for cid := range n.memberships {
			if cid.Level != level {
				continue
			}
			if v, ok := n.majorityValue(n.values[cid]); ok {
				n.sendDown(ctx, level, cid.Index, v)
			}
		}
	case round == depth+2 && !n.done:
		n.done = true
		if v, ok := n.majorityValue(n.final); ok {
			n.belief = v
		}
	}
}

// runElection performs Feige's lightest-bin election over the announcements
// received (including this node's own, which Init broadcast to itself) and
// assembles gstring from the elected members' segments.
func (n *Node) runElection() bitstring.String {
	if len(n.elects) == 0 {
		return bitstring.String{}
	}
	// Tally bins over distinct announcers.
	counts := make(map[uint32]int)
	for _, e := range n.elects {
		counts[e.Bin%uint32(n.p.Bins)]++
	}
	// Lightest non-empty bin, lowest index on ties (deterministic).
	best := uint32(0)
	bestCount := -1
	for bin := uint32(0); bin < uint32(n.p.Bins); bin++ {
		c := counts[bin]
		if c == 0 {
			continue
		}
		if bestCount < 0 || c < bestCount {
			best, bestCount = bin, c
		}
	}
	// Elected members in ID order contribute contiguous chunks.
	var elected []int
	for id, e := range n.elects {
		if e.Bin%uint32(n.p.Bins) == best {
			elected = append(elected, id)
		}
	}
	sort.Ints(elected)
	bits := make([]byte, n.p.StringBits)
	chunk := (n.p.StringBits + len(elected) - 1) / len(elected)
	for i := range bits {
		member := elected[min(i/chunk, len(elected)-1)]
		seg := n.elects[member].Seg
		bits[i] = seg.Bit(i)
	}
	return bitstring.New(bits)
}

// sendDown forwards v from committee (level, idx) to both child committees,
// or to the entire supervised range when (level, idx) is a leaf.
func (n *Node) sendDown(ctx simnet.Context, level, idx int, v bitstring.String) {
	if v.IsZero() {
		return
	}
	depth := n.tree.Depth()
	if level == depth {
		lo, hi := n.tree.Range(level, idx)
		fan := MsgValue{Level: int32(depth + 1), Index: int32(idx), S: v}
		for node := lo; node < hi; node++ {
			ctx.Send(node, fan)
		}
		return
	}
	for childIdx := 2 * idx; childIdx <= 2*idx+1; childIdx++ {
		child := MsgValue{Level: int32(level + 1), Index: int32(childIdx), S: v}
		for _, member := range n.tree.Committee(level+1, childIdx) {
			ctx.Send(member, child)
		}
	}
}

// majorityValue returns the strict-majority value among the senders'
// reports, if one exists.
func (n *Node) majorityValue(bySender map[int][]byte) (bitstring.String, bool) {
	if len(bySender) == 0 {
		return bitstring.String{}, false
	}
	counts := make(map[string]int)
	for _, key := range bySender {
		counts[string(key)]++
	}
	for key, c := range counts {
		if 2*c > len(bySender) {
			return n.strs[key], true
		}
	}
	return bitstring.String{}, false
}

func (n *Node) isMember(level, idx, id int) bool {
	for _, member := range n.tree.Committee(level, idx) {
		if member == id {
			return true
		}
	}
	return false
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
