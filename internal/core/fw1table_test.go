package core

import (
	"fmt"
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

// deliver hands the reference one list-free Fw1 from `from` as the tuples
// the recipient derives from it — the w ∈ J(x, r), in J order, whose pull
// quorum H(s, w) holds the recipient — and returns the Fw2s it sends.
func (f *fw1Maps) deliver(from int, m MsgFw1) []simnet.Envelope {
	if !f.inRange(m.X) {
		return nil
	}
	var out []simnet.Envelope
	for _, w := range f.smp.J.List(m.X, m.R) {
		if !f.smp.H.Contains(m.S, w, f.id) {
			continue
		}
		if to, fw2, sent := f.onFw1(from, m.X, m.S, m.R, w); sent {
			out = append(out, simnet.Envelope{To: to, Msg: fw2})
		}
	}
	return out
}

// fw1World is the fixed setting of the equivalence test: n = 24, where the
// quorums and poll lists are 15 of 24 and a quarter of all random Fw1 pass
// the membership tests, so random sequences reach majorities.
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

// Step bytes that fw1ID maps to ids outside [0, n).
const (
	fw1IDn     = 0x84 // 24 = n
	fw1IDBig   = 0x82 // 1 << 31
	fw1IDMinus = 0x80 // -1
)

func fw1ID(b byte, n int) int {
	if b < 0x80 {
		return int(b) % n
	}
	return fw1OddIDs[int(b)%len(fw1OddIDs)]
}

func fw1Label(b byte) uint64 { return uint64(b&3)*977 + 5 }

// checkFw1TableAgainstMaps interprets ops as a sequence of four-byte steps
// [kind, x, from, sel], delivers them to a core.Node as Fw1 messages and to
// the two-map reference as the tuples the node derives from each, and
// requires the same Fw2 emission — destinations, requesters, strings and
// labels, in order — message by message. Kinds 0–5 are Fw1(x, s, r) from
// `from`: sel's low two bits pick one of four labels, so one x issues
// several; the next two pick the node's current belief or another string.
// Kind 6 decides (once per instance) on one of the strings, which may change
// the belief; kind 7 with x ≥ 0xf0 resets both sides for a new instance.
func checkFw1TableAgainstMaps(t *testing.T, ops []byte) {
	t.Helper()
	w := newFw1World()
	n := w.p.N
	node := NewNode(fw1Me, w.strs[0], w.p, w.smp, prng.New(1))
	ref := newFw1Maps(fw1Me, w.strs[0], w.p, w.smp)
	for step := 0; len(ops) >= 4; ops, step = ops[4:], step+1 {
		kind, sel := ops[0]%8, ops[3]
		switch {
		case kind <= 5:
			s := ref.sthis
			if pick := (sel >> 2) & 3; pick >= 2 {
				s = w.strs[pick-1]
			}
			from := fw1ID(ops[2], n)
			m := MsgFw1{X: fw1ID(ops[1], n), S: s, R: fw1Label(sel)}
			ctx := &fakeCtx{}
			node.Deliver(ctx, from, m)
			if want := ref.deliver(from, m); !sameFw2s(ctx.sends, want) {
				t.Fatalf("step %d: %+v from %d: node sent %v, reference %v", step, m, from, ctx.sends, want)
			}
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

// fw1Majority returns the steps that vouch Fw1(x, s, r) from a strict
// majority of H(s, x) — sel picks the label and the string as in
// checkFw1TableAgainstMaps — followed by one replayed voucher.
func fw1Majority(w fw1World, s bitstring.String, x int, sel byte) []byte {
	var ops []byte
	hsx := distinct(w.smp.H.Quorum(s, x))
	for _, y := range hsx[:len(hsx)/2+1] {
		ops = append(ops, 0, byte(x), byte(y), sel)
	}
	return append(ops, 0, byte(x), byte(hsx[0]), sel)
}

// fw1Served returns the w's, in J(x, r) order, that the test node serves
// for s: the Fw2 destinations of a majority for Fw1(x, s, r).
func fw1Served(w fw1World, s bitstring.String, x int, r uint64) []int {
	var out []int
	for _, wID := range w.smp.J.List(x, r) {
		if w.smp.H.Contains(s, wID, fw1Me) {
			out = append(out, wID)
		}
	}
	return out
}

// fw1SeedPair finds a requester x and a poll-list member w that the test
// node serves under two of the four labels, for both strings, while each
// label's poll list also holds a served w the other's lacks: the pair the
// seed corpus is built around.
func fw1SeedPair(t testing.TB, w fw1World) (x, wID int) {
	only := func(s bitstring.String, x int, a, b uint64) bool {
		for _, v := range fw1Served(w, s, x, a) {
			if !w.smp.J.Contains(x, b, v) {
				return true
			}
		}
		return false
	}
	for x = 0; x < w.p.N; x++ {
		if !only(w.strs[0], x, fw1Label(0), fw1Label(1)) || !only(w.strs[0], x, fw1Label(1), fw1Label(0)) {
			continue
		}
		for wID = 0; wID < w.p.N; wID++ {
			if w.smp.H.Contains(w.strs[0], wID, fw1Me) && w.smp.H.Contains(w.strs[1], wID, fw1Me) &&
				w.smp.J.Contains(x, fw1Label(0), wID) && w.smp.J.Contains(x, fw1Label(1), wID) {
				return x, wID
			}
		}
	}
	t.Fatal("no requester with two usable labels in this world")
	return 0, 0
}

func TestFw1TableMatchesMaps(t *testing.T) {
	src := prng.New(2025)
	for round := 0; round < 40; round++ {
		ops := make([]byte, 4*3000)
		for i := 0; i < len(ops); i += 4 {
			// A few requesters, so that vouch sets fill; a sprinkling of ids
			// outside [0, n).
			ops[i] = byte(src.Intn(8))
			ops[i+1] = byte(src.Intn(3))
			ops[i+2] = byte(src.Intn(24))
			ops[i+3] = byte(src.Intn(12))
			if src.Intn(50) == 0 {
				ops[i+1+src.Intn(2)] = 0x80 + byte(src.Intn(64))
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
	x, _ := fw1SeedPair(f, w)
	s0, s1 := w.strs[0], w.strs[1]
	// The honest case: one label, a majority, a replay.
	f.Add(fw1Majority(w, s0, x, 0))
	// Two labels of one x sharing a w: one short of a majority under the
	// first, a majority under the second, then the first label's missing
	// voucher, which must not forward to the shared w again.
	first := fw1Majority(w, s0, x, 0)
	two := append([]byte{}, first[:len(first)-8]...)
	two = append(two, fw1Majority(w, s0, x, 1)...)
	f.Add(append(two, first[len(first)-8:]...))
	// Decide, then replay: a majority under the initial belief, a decision
	// that changes it, and the same vouchers again for the new string.
	replay := append(fw1Majority(w, s0, x, 0), 6, 1, 0, 0)
	f.Add(append(replay, fw1Majority(w, s1, x, 0)...))
	// The same either side of a Reset.
	f.Add(append(append(fw1Majority(w, s0, x, 0), 7, 0xff, 0, 0), fw1Majority(w, s0, x, 0)...))
	// Ids outside [0, n) as requester and as voucher.
	f.Add([]byte{0, fw1IDBig, 3, 0, 0, byte(x), fw1IDBig, 0, 0, byte(x), fw1IDMinus, 0})
	// A duplicate voucher: every voucher of the majority twice in a row.
	var dup []byte
	for ops := fw1Majority(w, s0, x, 0); len(ops) >= 4; ops = ops[4:] {
		dup = append(dup, ops[:4]...)
		dup = append(dup, ops[:4]...)
	}
	f.Add(dup)
	// X ≥ n: the vouchers of a real majority, naming x = n, 29 and 1 << 31.
	var wide []byte
	for _, bad := range []byte{fw1IDn, fw1IDn + 1, fw1IDBig} {
		for ops := fw1Majority(w, s0, x, 0); len(ops) >= 4; ops = ops[4:] {
			wide = append(wide, ops[0], bad, ops[2], ops[3])
		}
	}
	f.Add(wide)
	// A decide mid-stream: half a majority under the initial belief, a
	// decision for another string, the rest of those vouchers — now for the
	// new belief, so counted afresh — then a majority for the new belief.
	maj := fw1Majority(w, s0, x, 0)
	cut := len(maj) / 8 * 4
	mid := append(append([]byte{}, maj[:cut]...), 6, 1, 0, 0)
	mid = append(mid, maj[cut:]...)
	f.Add(append(mid, fw1Majority(w, s1, x, 0)...))
	f.Fuzz(checkFw1TableAgainstMaps)
}

// TestFw1UnauthenticatedChangesNothing: an Fw1 that is not an authenticated
// request for the node's belief leaves no state behind and sends nothing —
// one from a y ∉ H(s, x), one for a string the node does not believe, and
// one naming a requester outside [0, n) — and delivering it allocates
// nothing. The same message from a member of H(s, x) is counted.
func TestFw1UnauthenticatedChangesNothing(t *testing.T) {
	w := newFw1World()
	s, r := w.strs[0], fw1Label(0)
	x, _ := fw1SeedPair(t, w)
	hsx := distinct(w.smp.H.Quorum(s, x))
	cases := []struct {
		name string
		from int
		msg  MsgFw1
	}{
		{"y ∉ H(s, x)", pickNonMember(hsx, w.p.N), MsgFw1{X: x, S: s, R: r}},
		{"non-belief string", hsx[0], MsgFw1{X: x, S: w.strs[1], R: r}},
	}
	for _, bad := range []int{w.p.N, -1, 1 << 31} {
		cases = append(cases, struct {
			name string
			from int
			msg  MsgFw1
		}{fmt.Sprintf("X = %d", bad), hsx[0], MsgFw1{X: bad, S: s, R: r}})
	}
	for _, c := range cases {
		node := NewNode(fw1Me, s, w.p, w.smp, prng.New(1))
		ctx := &fakeCtx{}
		node.Deliver(ctx, c.from, c.msg)
		if len(ctx.sends) != 0 || len(node.fw1.entries) != 0 || node.strs.Len() != 1 {
			t.Errorf("%s: %d sends, %d Fw1 entries, %d strings", c.name, len(ctx.sends), len(node.fw1.entries), node.strs.Len())
		}
		if allocs := testing.AllocsPerRun(100, func() { node.Deliver(ctx, c.from, c.msg) }); allocs != 0 {
			t.Errorf("%s: delivery allocated %.1f times", c.name, allocs)
		}
	}
	node := NewNode(fw1Me, s, w.p, w.smp, prng.New(1))
	ctx := &fakeCtx{}
	m := MsgFw1{X: x, S: s, R: r}
	node.Deliver(ctx, hsx[0], m)
	if len(node.fw1.entries) != 1 || node.fw1.entries[0].n != 1 {
		t.Fatalf("an authenticated Fw1 left entries %+v, want one with one voucher", node.fw1.entries)
	}
	if allocs := testing.AllocsPerRun(100, func() { node.Deliver(ctx, hsx[0], m) }); allocs != 0 {
		t.Fatalf("a duplicate voucher allocated %.1f times", allocs)
	}
}

// TestFw1SeedsExerciseTheTable: the seed corpus does what its comments say —
// the honest case forwards once to every served w of the poll list, and a
// second label of one x opens a second entry under the same slot and
// forwards to no w the first label forwarded to.
func TestFw1SeedsExerciseTheTable(t *testing.T) {
	w := newFw1World()
	x, wID := fw1SeedPair(t, w)
	node := NewNode(fw1Me, w.strs[0], w.p, w.smp, prng.New(1))
	ctx := &fakeCtx{}
	deliver := func(ops []byte) {
		for ; len(ops) >= 4; ops = ops[4:] {
			node.Deliver(ctx, int(ops[2]), MsgFw1{X: int(ops[1]), S: w.strs[0], R: fw1Label(ops[3])})
		}
	}
	first := fw1Majority(w, w.strs[0], x, 0)
	deliver(first[:len(first)-8]) // one short of the majority
	if len(ctx.sends) != 0 || len(node.fw1.entries) != 1 {
		t.Fatalf("before the majority: %d sends, %d entries", len(ctx.sends), len(node.fw1.entries))
	}
	second := fw1Served(w, w.strs[0], x, fw1Label(1))
	deliver(fw1Majority(w, w.strs[0], x, 1))
	if len(ctx.sends) != len(second) || len(node.fw1.entries) != 2 {
		t.Fatalf("a majority under the second label: %d sends for %d served w's, %d entries",
			len(ctx.sends), len(second), len(node.fw1.entries))
	}
	deliver(first) // forward-once holds across labels
	var toShared, more int
	for _, e := range ctx.sends {
		if e.To == wID {
			toShared++
		}
	}
	for _, v := range fw1Served(w, w.strs[0], x, fw1Label(0)) {
		if !w.smp.J.Contains(x, fw1Label(1), v) {
			more++
		}
	}
	if toShared != 1 || len(ctx.sends) != len(second)+more || more == 0 {
		t.Fatalf("the first label's majority: %d Fw2 to the shared w, %d sends in all, want 1 and %d",
			toShared, len(ctx.sends), len(second)+more)
	}
}

// TestResetCarriesNoFw1State: a pooled node (a MuxNode child between log
// instances) starts the next instance with an empty Fw1 table — the same
// vouchers must earn the same Fw2s again, neither blocked by the last
// instance's forward-once flags nor helped by its vouch counts — and keeps
// the table's storage.
func TestResetCarriesNoFw1State(t *testing.T) {
	w := newFw1World()
	x, _ := fw1SeedPair(t, w)
	node := NewNode(fw1Me, w.strs[0], w.p, w.smp, prng.New(1))
	run := func(s bitstring.String) int {
		ctx := &fakeCtx{}
		ops := fw1Majority(w, s, x, 0)
		for ; len(ops) >= 4; ops = ops[4:] {
			if len(ctx.sends) != 0 && len(ops) > 4 {
				t.Fatalf("Fw2 sent with %d vouchers of the majority still to come", len(ops)/4-1)
			}
			node.Deliver(ctx, int(ops[2]), MsgFw1{X: int(ops[1]), S: s, R: fw1Label(ops[3])})
		}
		return len(ctx.sends)
	}
	if sent, want := run(w.strs[0]), len(fw1Served(w, w.strs[0], x, fw1Label(0))); sent != want {
		t.Fatalf("first instance sent %d Fw2, want %d", sent, want)
	}
	// One short of a majority under another label stays behind as well.
	hsx := distinct(w.smp.H.Quorum(w.strs[0], x))
	node.Deliver(&fakeCtx{}, hsx[0], MsgFw1{X: x, S: w.strs[0], R: fw1Label(1)})

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
		if sent, want := run(next), len(fw1Served(w, next, x, fw1Label(0))); sent != want {
			t.Fatalf("after Reset the same vouchers sent %d Fw2, want %d", sent, want)
		}
	}
	if cap(node.fw1.entries) != storage {
		t.Fatalf("Reset did not keep the table's storage: cap %d, was %d", cap(node.fw1.entries), storage)
	}
}
