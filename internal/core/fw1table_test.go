package core

import (
	"testing"

	"github.com/fastba/fastba/internal/bitstring"
	"github.com/fastba/fastba/internal/prng"
	"github.com/fastba/fastba/internal/simnet"
)

// fw1Maps is the reference the Fw1 table is held to: Algorithm 2's second
// handler exactly as it stood before the table, with one map per key — vouch
// sets per (x, s, r, w), forward-once flags per (x, s, w) — strings keyed by
// value instead of by interned id, and membership asked of the shared
// samplers directly instead of the node's rows.
type fw1Maps struct {
	id      int
	p       Params
	smp     *Samplers
	sthis   bitstring.String
	decided bool
	vouches map[fw1MapsKey]map[int]bool
	done    map[fw1MapsKey]bool // keyed with r = 0
}

type fw1MapsKey struct {
	x int
	s string
	r uint64
	w int
}

func newFw1Maps(id int, initial bitstring.String, p Params, smp *Samplers) *fw1Maps {
	return &fw1Maps{id: id, p: p, smp: smp, sthis: initial,
		vouches: map[fw1MapsKey]map[int]bool{}, done: map[fw1MapsKey]bool{}}
}

func (f *fw1Maps) inRange(ids ...int) bool {
	for _, id := range ids {
		if id < 0 || id >= f.p.N {
			return false
		}
	}
	return true
}

// onFw1 is the handler for one tuple (x, s, r, w) from `from`: it returns
// the Fw2 the handler sends and its destination, if any.
func (f *fw1Maps) onFw1(from, x int, s bitstring.String, r uint64, w int) (to int, out MsgFw2, sent bool) {
	if !s.Equal(f.sthis) || !f.inRange(from, x, w) {
		return 0, MsgFw2{}, false
	}
	if !f.smp.H.Contains(s, w, f.id) || !f.smp.H.Contains(s, x, from) || !f.smp.J.Contains(x, r, w) {
		return 0, MsgFw2{}, false
	}
	doneKey := fw1MapsKey{x: x, s: s.Key(), w: w}
	if f.done[doneKey] {
		return 0, MsgFw2{}, false
	}
	vk := fw1MapsKey{x: x, s: s.Key(), r: r, w: w}
	if f.vouches[vk] == nil {
		f.vouches[vk] = map[int]bool{}
	}
	f.vouches[vk][from] = true
	if 2*len(f.vouches[vk]) > len(distinct(f.smp.H.Quorum(s, x))) {
		f.done[doneKey] = true
		delete(f.vouches, vk)
		return w, MsgFw2{X: x, S: s, R: r}, true
	}
	return 0, MsgFw2{}, false
}

// fw1World is the fixed setting of the equivalence test: n = 24, where the
// quorums and poll lists are 15 of 24 and a quarter of all random Fw1 pass
// the three membership tests, so random sequences reach majorities.
type fw1World struct {
	p    Params
	smp  *Samplers
	strs []bitstring.String
}

const fw1Me = 7

func newFw1World() fw1World {
	p := DefaultParams(24)
	src := prng.New(515)
	w := fw1World{p: p, smp: NewSamplers(p)}
	for i := 0; i < 3; i++ {
		w.strs = append(w.strs, bitstring.Random(src, p.StringBits))
	}
	return w
}

// fw1OddIDs are the ids a byzantine frame can carry beside those in [0, n).
var fw1OddIDs = []int{24, 29, -1, -24, 1 << 31, 64}

func fw1ID(b byte, n int) int {
	if b < 0x80 {
		return int(b) % n
	}
	return fw1OddIDs[int(b)%len(fw1OddIDs)]
}

func fw1Label(b byte) uint64 { return uint64(b&3)*977 + 5 }

// checkFw1TableAgainstMaps interprets ops as a sequence of five-byte steps
// [kind, x, from, w, sel], delivers them to a core.Node as Fw1 messages and
// to the two-map reference one tuple at a time, and requires the same Fw2
// emission — destinations, requesters, strings and labels, in order —
// message by message. Kinds 0–5 are tuples (x, s, r, w) from `from`: sel's
// low two bits pick one of four labels, so one (x, w) sees several; the next
// two pick the node's current belief or another string. Kinds 0–2 open a new
// message; kinds 3–5 append their w to the open one (whose x, from and sel
// they keep), or open one if none is. Kind 6 decides (once per instance) on
// one of the strings, which may change the belief; kind 7 resets both sides
// for a new instance.
func checkFw1TableAgainstMaps(t *testing.T, ops []byte) {
	t.Helper()
	w := newFw1World()
	n := w.p.N
	node := NewNode(fw1Me, w.strs[0], w.p, w.smp, prng.New(1))
	ref := newFw1Maps(fw1Me, w.strs[0], w.p, w.smp)
	var open *MsgFw1
	from, step := 0, 0
	deliver := func() {
		if open == nil {
			return
		}
		m := open
		open = nil
		ctx := &fakeCtx{}
		node.Deliver(ctx, from, m)
		var want []simnet.Envelope
		for _, wID := range m.W {
			if to, fw2, sent := ref.onFw1(from, m.X, m.S, m.R, int(wID)); sent {
				want = append(want, simnet.Envelope{To: to, Msg: fw2})
			}
		}
		if !sameFw2s(ctx.sends, want) {
			t.Fatalf("step %d: %+v from %d: node sent %v, reference %v", step, *m, from, ctx.sends, want)
		}
	}
	for ; len(ops) >= 5; ops, step = ops[5:], step+1 {
		kind, sel := ops[0]%8, ops[4]
		if kind >= 3 && kind <= 5 && open != nil {
			open.W = append(open.W, int32(fw1ID(ops[3], n)))
			continue
		}
		deliver()
		switch {
		case kind <= 5:
			s := ref.sthis
			if pick := (sel >> 2) & 3; pick >= 2 {
				s = w.strs[pick-1]
			}
			from = fw1ID(ops[2], n)
			open = fw1Msg(fw1ID(ops[1], n), s, fw1Label(sel), fw1ID(ops[3], n))
		case kind == 6:
			if !ref.decided {
				s := w.strs[int(ops[1])%len(w.strs)]
				node.decide(&fakeCtx{}, node.strs.ID(s))
				ref.sthis, ref.decided = s, true
			}
		case ops[1] >= 0xf0:
			s := w.strs[int(ops[2])%len(w.strs)]
			node.Reset(s, w.smp, prng.New(2))
			ref = newFw1Maps(fw1Me, s, w.p, w.smp)
		}
	}
	deliver()
}

// sameFw2s reports whether got holds exactly the Fw2s of want, in order.
func sameFw2s(got, want []simnet.Envelope) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		g, ok := got[i].Msg.(MsgFw2)
		w := want[i].Msg.(MsgFw2)
		if !ok || got[i].To != want[i].To || g.X != w.X || g.R != w.R || !g.S.Equal(w.S) {
			return false
		}
	}
	return true
}

// fw1Majority returns the steps that vouch Fw1(x, s, r, w) from a strict
// majority of H(s, x) — sel picks the label and the string as in
// checkFw1TableAgainstMaps — followed by one replayed voucher.
func fw1Majority(w fw1World, s bitstring.String, x, wID int, sel byte) []byte {
	var ops []byte
	hsx := distinct(w.smp.H.Quorum(s, x))
	for _, y := range hsx[:len(hsx)/2+1] {
		ops = append(ops, 0, byte(x), byte(y), byte(wID), sel)
	}
	return append(ops, 0, byte(x), byte(hsx[0]), byte(wID), sel)
}

// fw1SeedPair finds a requester x and a poll-list member w that the test
// node vouches for under two of the four labels, for both strings: the pair
// the seed corpus is built around.
func fw1SeedPair(t testing.TB, w fw1World) (x, wID int) {
	for x = 0; x < w.p.N; x++ {
		for wID = 0; wID < w.p.N; wID++ {
			if w.smp.H.Contains(w.strs[0], wID, fw1Me) && w.smp.H.Contains(w.strs[1], wID, fw1Me) &&
				w.smp.J.Contains(x, fw1Label(0), wID) && w.smp.J.Contains(x, fw1Label(1), wID) {
				return x, wID
			}
		}
	}
	t.Fatal("no (x, w) with two usable labels in this world")
	return 0, 0
}

func TestFw1TableMatchesMaps(t *testing.T) {
	src := prng.New(2025)
	for round := 0; round < 40; round++ {
		ops := make([]byte, 5*3000)
		for i := 0; i < len(ops); i += 5 {
			// A few requesters and poll-list members, so that pairs repeat and
			// vouch sets fill; a sprinkling of ids outside [0, n).
			ops[i] = byte(src.Intn(8))
			ops[i+1] = byte(src.Intn(3))
			ops[i+2] = byte(src.Intn(24))
			ops[i+3] = byte(src.Intn(4))
			ops[i+4] = byte(src.Intn(12))
			if src.Intn(50) == 0 {
				ops[i+1+src.Intn(3)] = 0x80 + byte(src.Intn(64))
			}
			if ops[i] >= 6 && src.Intn(100) != 0 {
				ops[i] = 0 // decide and Reset are rare events
			} else if ops[i] == 7 {
				ops[i+1] = 0xff
			}
		}
		checkFw1TableAgainstMaps(t, ops)
	}
}

func FuzzFw1TableMatchesMaps(f *testing.F) {
	w := newFw1World()
	x, wID := fw1SeedPair(f, w)
	// The honest case: one label, a majority, a replay.
	f.Add(fw1Majority(w, w.strs[0], x, wID, 0))
	// Two labels on one pair: one short of a majority under the first, a
	// majority under the second, then the first label's missing voucher.
	first := fw1Majority(w, w.strs[0], x, wID, 0)
	two := append([]byte{}, first[:len(first)-10]...)
	two = append(two, fw1Majority(w, w.strs[0], x, wID, 1)...)
	f.Add(append(two, first[len(first)-10:]...))
	// Decide, then replay: a majority under the initial belief, a decision
	// that changes it, and the same vouchers again for the new string.
	replay := fw1Majority(w, w.strs[0], x, wID, 0)
	replay = append(replay, 6, 1, 0, 0, 0)
	f.Add(append(replay, fw1Majority(w, w.strs[1], x, wID, 0)...))
	// The same either side of a Reset, and an id of 1<<31.
	f.Add(append(append(fw1Majority(w, w.strs[0], x, wID, 0), 7, 0xff, 0, 0, 0), fw1Majority(w, w.strs[0], x, wID, 0)...))
	f.Add([]byte{0, 0x84, 3, byte(wID), 0, 0, byte(x), 0x84, byte(wID), 0, 0, byte(x), 3, 0x84, 0})
	// The honest majority with every voucher listing w twice, an id of 1<<31
	// and x itself besides.
	var listed []byte
	for ops := fw1Majority(w, w.strs[0], x, wID, 0); len(ops) >= 5; ops = ops[5:] {
		listed = append(listed, ops[:5]...)
		listed = append(listed, 3, 0, 0, byte(wID), 0, 3, 0, 0, 0x84, 0, 3, 0, 0, byte(x), 0)
	}
	f.Add(listed)
	f.Fuzz(checkFw1TableAgainstMaps)
}

// TestFw1ListMixedMembers: a byzantine y can list anything, and a list is
// only as strong as its valid entries. Each valid w is counted once however
// often it is listed, and the rest are skipped: a w ∉ J(x, r), a w whose
// H(s, w) does not hold this node, and ids outside [0, n). Delivering the
// list allocates nothing.
func TestFw1ListMixedMembers(t *testing.T) {
	w := newFw1World()
	s, r := w.strs[0], fw1Label(0)
	for x := 0; x < w.p.N; x++ {
		var valid, notPolled, notServed []int
		for wID := 0; wID < w.p.N; wID++ {
			polled, served := w.smp.J.Contains(x, r, wID), w.smp.H.Contains(s, wID, fw1Me)
			switch {
			case polled && served:
				valid = append(valid, wID)
			case served:
				notPolled = append(notPolled, wID)
			case polled:
				notServed = append(notServed, wID)
			}
		}
		if len(valid) < 2 || len(notPolled) == 0 || len(notServed) == 0 {
			continue
		}
		m := fw1Msg(x, s, r, valid[0], valid[0], notPolled[0], notServed[0], -1, w.p.N, 1<<31, valid[1])
		node := NewNode(fw1Me, s, w.p, w.smp, prng.New(1))
		hsx := distinct(w.smp.H.Quorum(s, x))
		ctx := &fakeCtx{}
		node.Deliver(ctx, hsx[0], m)
		entries := node.fw1.entries
		if len(entries) != 2 || entries[0].pair != uint64(x)<<32|uint64(valid[0]) || entries[1].pair != uint64(x)<<32|uint64(valid[1]) ||
			entries[0].n != 1 || entries[1].n != 1 {
			t.Fatalf("list %v: Fw1 entries %+v, want one vouch each for w = %d and %d", m.W, entries, valid[0], valid[1])
		}
		if allocs := testing.AllocsPerRun(100, func() { node.onFw1(ctx, hsx[0], m) }); allocs != 0 {
			t.Fatalf("onFw1 allocated %.1f times per delivery", allocs)
		}
		for _, y := range hsx[1 : len(hsx)/2+1] {
			node.Deliver(ctx, y, m)
		}
		fw2s := ctx.byKind("fw2")
		if len(fw2s) != 2 || fw2s[0].To != valid[0] || fw2s[1].To != valid[1] {
			t.Fatalf("a majority of list %v sent Fw2s %v, want one to %d, then one to %d", m.W, fw2s, valid[0], valid[1])
		}
		return
	}
	t.Fatal("no requester with every kind of list member in this world")
}

// TestFw1SeedsExerciseTheTable: the seed corpus does what its comments say —
// the honest case forwards once, and a second label on a pair opens a second
// entry under the same slot.
func TestFw1SeedsExerciseTheTable(t *testing.T) {
	w := newFw1World()
	x, wID := fw1SeedPair(t, w)
	node := NewNode(fw1Me, w.strs[0], w.p, w.smp, prng.New(1))
	ctx := &fakeCtx{}
	deliver := func(ops []byte) {
		for ; len(ops) >= 5; ops = ops[5:] {
			node.Deliver(ctx, int(ops[2]), fw1Msg(int(ops[1]), w.strs[0], fw1Label(ops[4]), int(ops[3])))
		}
	}
	first := fw1Majority(w, w.strs[0], x, wID, 0)
	deliver(first[:len(first)-10]) // one short of the majority
	if len(ctx.sends) != 0 || len(node.fw1.entries) != 1 {
		t.Fatalf("before the majority: %d sends, %d entries", len(ctx.sends), len(node.fw1.entries))
	}
	deliver(fw1Majority(w, w.strs[0], x, wID, 1))
	if len(ctx.sends) != 1 || len(node.fw1.entries) != 2 {
		t.Fatalf("a majority under the second label: %d sends, %d entries", len(ctx.sends), len(node.fw1.entries))
	}
	deliver(first) // forward-once holds across labels
	if len(ctx.sends) != 1 {
		t.Fatalf("the first label forwarded again: %d sends", len(ctx.sends))
	}
}

// TestResetCarriesNoFw1State: a pooled node (a MuxNode child between log
// instances) starts the next instance with an empty Fw1 table — the same
// vouchers must earn the same Fw2 again, neither blocked by the last
// instance's forward-once flag nor helped by its vouch counts — and keeps
// the table's storage.
func TestResetCarriesNoFw1State(t *testing.T) {
	w := newFw1World()
	x, wID := fw1SeedPair(t, w)
	node := NewNode(fw1Me, w.strs[0], w.p, w.smp, prng.New(1))
	run := func(s bitstring.String) int {
		ctx := &fakeCtx{}
		ops := fw1Majority(w, s, x, wID, 0)
		for ; len(ops) >= 5; ops = ops[5:] {
			if len(ctx.sends) != 0 && len(ops) > 5 {
				t.Fatalf("Fw2 sent with %d vouchers of the majority still to come", len(ops)/5-1)
			}
			node.Deliver(ctx, int(ops[2]), fw1Msg(int(ops[1]), s, fw1Label(ops[4]), int(ops[3])))
		}
		return len(ctx.sends)
	}
	if sent := run(w.strs[0]); sent != 1 {
		t.Fatalf("first instance sent %d Fw2, want 1", sent)
	}
	// One short of a majority under another label stays behind as well.
	hsx := distinct(w.smp.H.Quorum(w.strs[0], x))
	node.Deliver(&fakeCtx{}, hsx[0], fw1Msg(x, w.strs[0], fw1Label(1), wID))

	storage := cap(node.fw1.entries)
	for _, next := range []bitstring.String{w.strs[0], w.strs[1]} { // the same interned id, then another string under it
		node.Reset(next, w.smp, prng.New(3))
		if len(node.fw1.entries) != 0 {
			t.Fatalf("Reset left %d Fw1 entries", len(node.fw1.entries))
		}
		for _, i := range node.fw1.index {
			if i != 0 {
				t.Fatal("Reset left an index entry behind")
			}
		}
		if sent := run(next); sent != 1 {
			t.Fatalf("after Reset the same vouchers sent %d Fw2, want 1", sent)
		}
	}
	if cap(node.fw1.entries) != storage {
		t.Fatalf("Reset did not keep the table's storage: cap %d, was %d", cap(node.fw1.entries), storage)
	}
}
