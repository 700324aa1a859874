package core

import (
	"testing"

	"github.com/fastba/fastba/internal/bitstring"
	"github.com/fastba/fastba/internal/prng"
)

// fw1Maps is the reference the Fw1 table is held to: Algorithm 2's second
// handler exactly as it stood before the table, with one map per key — vouch
// sets per (x, s, r, w), forward-once flags per (x, s, w) — strings keyed by
// value instead of by interned id, and membership asked of the shared
// samplers directly instead of the node's memo.
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

// onFw1 returns the Fw2 the handler sends and its destination, if any.
func (f *fw1Maps) onFw1(from int, m MsgFw1) (to int, out MsgFw2, sent bool) {
	if !m.S.Equal(f.sthis) || !f.inRange(from, m.X, m.W) {
		return 0, MsgFw2{}, false
	}
	if !f.smp.H.Contains(m.S, m.W, f.id) || !f.smp.H.Contains(m.S, m.X, from) || !f.smp.J.Contains(m.X, m.R, m.W) {
		return 0, MsgFw2{}, false
	}
	doneKey := fw1MapsKey{x: m.X, s: m.S.Key(), w: m.W}
	if f.done[doneKey] {
		return 0, MsgFw2{}, false
	}
	vk := fw1MapsKey{x: m.X, s: m.S.Key(), r: m.R, w: m.W}
	if f.vouches[vk] == nil {
		f.vouches[vk] = map[int]bool{}
	}
	f.vouches[vk][from] = true
	if 2*len(f.vouches[vk]) > len(distinct(f.smp.H.Quorum(m.S, m.X))) {
		f.done[doneKey] = true
		delete(f.vouches, vk)
		return m.W, MsgFw2{X: m.X, S: m.S, R: m.R}, true
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
// [kind, x, from, w, sel] and puts each to a core.Node and to the two-map
// reference, requiring the same Fw2 emission — destination, requester,
// string and label — step by step. Kinds 0–5 deliver Fw1(x, s, r, w) from
// `from`: sel's low two bits pick one of four labels, so one (x, w) sees
// several; the next two pick the node's current belief or another string.
// Kind 6 decides (once per instance) on one of the strings, which may change
// the belief; kind 7 resets both sides for a new instance.
func checkFw1TableAgainstMaps(t *testing.T, ops []byte) {
	t.Helper()
	w := newFw1World()
	n := w.p.N
	node := NewNode(fw1Me, w.strs[0], w.p, w.smp, prng.New(1))
	ref := newFw1Maps(fw1Me, w.strs[0], w.p, w.smp)
	ctx := &fakeCtx{}
	for step := 0; len(ops) >= 5; ops, step = ops[5:], step+1 {
		kind, sel := ops[0]%8, ops[4]
		switch {
		case kind <= 5:
			s := ref.sthis
			if pick := (sel >> 2) & 3; pick >= 2 {
				s = w.strs[pick-1]
			}
			from := fw1ID(ops[2], n)
			m := MsgFw1{X: fw1ID(ops[1], n), S: s, R: fw1Label(sel), W: fw1ID(ops[3], n)}
			before := len(ctx.sends)
			node.Deliver(ctx, from, m)
			to, want, sent := ref.onFw1(from, m)
			got := ctx.sends[before:]
			if !sent {
				if len(got) != 0 {
					t.Fatalf("step %d: %+v from %d: node sent %v, reference nothing", step, m, from, got)
				}
				continue
			}
			if len(got) != 1 {
				t.Fatalf("step %d: %+v from %d: node sent %v, reference Fw2 %+v to %d", step, m, from, got, want, to)
			}
			fw2, ok := got[0].Msg.(MsgFw2)
			if !ok || got[0].To != to || fw2.X != want.X || fw2.R != want.R || !fw2.S.Equal(want.S) {
				t.Fatalf("step %d: %+v from %d: node sent %v, reference Fw2 %+v to %d", step, m, from, got, want, to)
			}
		case kind == 6:
			if !ref.decided {
				s := w.strs[int(ops[1])%len(w.strs)]
				node.decide(ctx, node.strs.ID(s), s)
				ref.sthis, ref.decided = s, true
			}
		case ops[1] >= 0xf0:
			s := w.strs[int(ops[2])%len(w.strs)]
			node.Reset(s, w.smp, prng.New(2))
			ref = newFw1Maps(fw1Me, s, w.p, w.smp)
		}
	}
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
	f.Fuzz(checkFw1TableAgainstMaps)
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
			node.Deliver(ctx, int(ops[2]), MsgFw1{X: int(ops[1]), S: w.strs[0], R: fw1Label(ops[4]), W: int(ops[3])})
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
			node.Deliver(ctx, int(ops[2]), MsgFw1{X: int(ops[1]), S: s, R: fw1Label(ops[4]), W: int(ops[3])})
		}
		return len(ctx.sends)
	}
	if sent := run(w.strs[0]); sent != 1 {
		t.Fatalf("first instance sent %d Fw2, want 1", sent)
	}
	// One short of a majority under another label stays behind as well.
	hsx := distinct(w.smp.H.Quorum(w.strs[0], x))
	node.Deliver(&fakeCtx{}, hsx[0], MsgFw1{X: x, S: w.strs[0], R: fw1Label(1), W: wID})

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
