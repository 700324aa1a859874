package core

import (
	"math/rand"

	"github.com/fastba/fastba/internal/intern"
	"github.com/fastba/fastba/internal/prng"
)

// fw1Table is the state of Algorithm 2's second handler: for the string the
// node believes, who has vouched for requester x's request under label r,
// and which labels of x have reached their majority. A node receives about
// d·min(n, d²) Fw1 messages per agreement, one per (voucher, request), so the
// table is built for the honest case — one label per requester — to cost one
// integer-keyed probe per message and no pointer chase (DESIGN.md §4.3).
//
// Every requester x has a slot, found under x alone. The slot records the
// first label x was vouched under and that label's vouchers. Only a
// Byzantine x issues a second label; its vouchers are counted in an entry of
// their own, found under (x, label) in the same table — still constant time
// per Fw1 however many labels x issues. Vouches are thereby counted per
// (x, s, r), and a node holds one entry per authenticated (x, s, r).
//
// The forward-once flag of (x, s, w) needs no storage of its own: a request
// that reaches its majority forwards to every w of its poll list the node
// serves, so the flag is set exactly when some label r′ of x has completed
// and w ∈ J(x, r′). The completed entries of x are chained from its slot;
// an honest requester's chain is empty when its one label completes.
//
// The table holds state for one string: sid. A node's belief changes at
// most once, at decide, and never back, so entries of the previous belief
// can never be asked for again; onFw1 empties the table when it finds it
// was opened for another string.
type fw1Table struct {
	sid intern.ID
	// index is the open-addressed hash index, a power of two in size and at
	// most half full: an entry's number plus one, or zero.
	index   []int32
	entries []fw1Entry
	// vouchers holds entry e's vouchers at [e·stride, e·stride + n): a set
	// never grows past the majority that completes it, so stride is ⌊d/2⌋ + 1
	// for quorum size d (set by NewNode).
	vouchers []int32
	stride   int
	// seed keys the hash per table, as the runtime does per map: the labels
	// of a Byzantine requester are attacker-chosen keys.
	seed uint64
}

type fw1Entry struct {
	label uint64
	x     int32
	n     int32 // vouchers recorded
	// last (slot only) and prev chain x's completed entries, latest first:
	// an entry's number plus one, or zero at the end of the chain.
	last, prev int32
	slot       bool // x's slot, rather than an extra label's entry
	done       bool // the majority was reached and the Fw2s sent
}

// reset empties the table, keeping its storage.
func (t *fw1Table) reset() {
	clear(t.index)
	t.entries = t.entries[:0]
}

// open returns the number of x's slot (slot = true) or of x's entry for the
// given label (slot = false), creating it if absent. A new slot is opened
// for that label. The returned number stays valid until reset; pointers into
// entries do not survive another open.
func (t *fw1Table) open(x int32, label uint64, slot bool) int {
	if 2*(len(t.entries)+1) > len(t.index) {
		t.grow()
	}
	mask := uint64(len(t.index) - 1)
	i := t.hash(x, label, slot) & mask
	for ; t.index[i] != 0; i = (i + 1) & mask {
		e := &t.entries[t.index[i]-1]
		if e.x == x && e.slot == slot && (slot || e.label == label) {
			return int(t.index[i] - 1)
		}
	}
	t.entries = append(t.entries, fw1Entry{x: x, label: label, slot: slot})
	if need := len(t.entries) * t.stride; need > len(t.vouchers) {
		t.vouchers = append(t.vouchers, make([]int32, need-len(t.vouchers))...)
	}
	t.index[i] = int32(len(t.entries))
	return len(t.entries) - 1
}

func (t *fw1Table) hash(x int32, label uint64, slot bool) uint64 {
	h := prng.Mix64(uint64(uint32(x)) ^ t.seed)
	if !slot {
		h = prng.Mix64(h ^ label)
	}
	return h
}

// grow doubles the index and re-files every entry; the first call draws the
// table's hash seed.
func (t *fw1Table) grow() {
	size := 2 * len(t.index)
	if size == 0 {
		size = 64
		t.seed = rand.Uint64()
	}
	t.index = make([]int32, size)
	mask := uint64(size - 1)
	for k := range t.entries {
		e := &t.entries[k]
		i := t.hash(e.x, e.label, e.slot) & mask
		for t.index[i] != 0 {
			i = (i + 1) & mask
		}
		t.index[i] = int32(k + 1)
	}
}

// vouch records voucher y on entry e and reports whether it was new.
func (t *fw1Table) vouch(e int, y int) bool {
	ent := &t.entries[e]
	set := t.vouchers[e*t.stride:][:ent.n]
	for _, have := range set {
		if have == int32(y) {
			return false
		}
	}
	t.vouchers[e*t.stride+int(ent.n)] = int32(y)
	ent.n++
	return true
}

// complete marks entry e, of the requester whose slot is slot, as having
// reached its majority and chains it to the requester's completed entries.
func (t *fw1Table) complete(slot, e int) {
	t.entries[e].done = true
	t.entries[e].prev = t.entries[slot].last
	t.entries[slot].last = int32(e + 1)
}
