package core

import (
	"math/rand"

	"github.com/fastba/fastba/internal/intern"
	"github.com/fastba/fastba/internal/prng"
)

// fw1Table is the state of Algorithm 2's second handler: for the string the
// node believes, who has vouched for requester x's poll of w under label r,
// and whether the Fw2 for (x, w) has been sent. An agreement delivers d³
// Fw1 tuples (x, w) to a node, so the table is built for the honest case —
// one label per requester — to cost one integer-keyed probe per tuple and no
// pointer chase (DESIGN.md §4.3).
//
// Every pair (x, w) has a slot, found under the packed pair alone. The slot
// records the first label the pair was vouched under, that label's vouchers,
// and the forward-once flag of (x, s, w), which holds across labels. Only a
// Byzantine x issues a second label for the same w; its vouchers are counted
// in an entry of their own, found under (pair, label) in the same table —
// still constant time per Fw1 however many labels x issues. Vouches are
// thereby counted per (x, s, r, w) and forwarding is once per (x, s, w),
// exactly as with one map per key, and a node holds one entry per
// authenticated (x, s, r, w) that passed all three membership tests.
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
	pair  uint64 // x<<32 | w
	label uint64
	n     int32 // vouchers recorded
	slot  bool  // the pair's slot, rather than an extra label's entry
	done  bool  // slot only: the Fw2 for (x, s, w) has been sent
}

// reset empties the table, keeping its storage.
func (t *fw1Table) reset() {
	clear(t.index)
	t.entries = t.entries[:0]
}

// open returns the number of the pair's slot (slot = true) or of the pair's
// entry for the given label (slot = false), creating it if absent. A new
// slot is opened for that label. The returned number stays valid until
// reset; pointers into entries do not survive another open.
func (t *fw1Table) open(pair, label uint64, slot bool) int {
	if 2*(len(t.entries)+1) > len(t.index) {
		t.grow()
	}
	mask := uint64(len(t.index) - 1)
	i := t.hash(pair, label, slot) & mask
	for ; t.index[i] != 0; i = (i + 1) & mask {
		e := &t.entries[t.index[i]-1]
		if e.pair == pair && e.slot == slot && (slot || e.label == label) {
			return int(t.index[i] - 1)
		}
	}
	t.entries = append(t.entries, fw1Entry{pair: pair, label: label, slot: slot})
	if need := len(t.entries) * t.stride; need > len(t.vouchers) {
		t.vouchers = append(t.vouchers, make([]int32, need-len(t.vouchers))...)
	}
	t.index[i] = int32(len(t.entries))
	return len(t.entries) - 1
}

func (t *fw1Table) hash(pair, label uint64, slot bool) uint64 {
	h := prng.Mix64(pair ^ t.seed)
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
		i := t.hash(e.pair, e.label, e.slot) & mask
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
