package core

import (
	"fmt"
	"testing"

	"github.com/fastba/fastba/internal/bitstring"
	"github.com/fastba/fastba/internal/prng"
	"github.com/fastba/fastba/internal/simnet"
)

// pullMaps is the reference a node's pull and answer state is held to:
// Algorithms 1–3 as the node ran them before the requester table, with one
// Go map per key — forward-once flags per (x, s), Fw1 vouch sets per
// (x, s, r, w) and forward-once flags per (x, s, w), Fw2 vouch sets and
// majorities per (x, s, r), Polled and answered flags per (x, s) — strings
// keyed by value instead of by interned id, and membership asked of the
// shared samplers directly instead of the node's rows. init and deliver
// return what the node must send, in order, and flush what decide sent.
type pullMaps struct {
	id      int
	p       Params
	smp     *Samplers
	rng     *prng.Source
	initial bitstring.String
	sthis   bitstring.String
	decided bool

	candidates map[string]bool
	labels     map[string]uint64
	pushRecv   map[pullKey]map[int]bool // (s)
	answers    map[pullKey]map[int]bool // (s)

	forwarded   map[pullKey]bool         // (x, s)
	fw1Vouches  map[pullKey]map[int]bool // (x, s, r, w)
	fw1Done     map[pullKey]bool         // (x, s, w)
	fw2Sets     map[pullKey]map[int]bool // (x, s, r)
	fw2Done     map[pullKey]bool         // (x, s, r)
	polled      map[pullKey]bool         // (x, s)
	answered    map[pullKey]bool         // (x, s)
	answerCount int
	deferred    []pullReq // held back by the answer budget
	belief      []pullReq // authenticated for a string other than s_this
	relay       []pullReq // pulls for a string other than s_this

	out []simnet.Envelope
}

type pullKey struct {
	x int
	s string
	r uint64
	w int
}

type pullReq struct {
	x int
	s bitstring.String
	r uint64
}

func newPullMaps(id int, initial bitstring.String, p Params, smp *Samplers, rng *prng.Source) *pullMaps {
	return &pullMaps{id: id, p: p, smp: smp, rng: rng, initial: initial, sthis: initial,
		candidates: map[string]bool{}, labels: map[string]uint64{},
		pushRecv: map[pullKey]map[int]bool{}, answers: map[pullKey]map[int]bool{},
		forwarded: map[pullKey]bool{}, fw1Vouches: map[pullKey]map[int]bool{}, fw1Done: map[pullKey]bool{},
		fw2Sets: map[pullKey]map[int]bool{}, fw2Done: map[pullKey]bool{},
		polled: map[pullKey]bool{}, answered: map[pullKey]bool{}}
}

func (f *pullMaps) inRange(ids ...int) bool {
	for _, id := range ids {
		if id < 0 || id >= f.p.N {
			return false
		}
	}
	return true
}

func (f *pullMaps) send(to int, m simnet.Message) {
	f.out = append(f.out, simnet.Envelope{To: to, Msg: m})
}

// flush returns the sends since the last flush.
func (f *pullMaps) flush() []simnet.Envelope {
	out := f.out
	f.out = nil
	return out
}

// add records member in the set under k and reports whether it was new.
func add(sets map[pullKey]map[int]bool, k pullKey, member int) bool {
	if sets[k] == nil {
		sets[k] = map[int]bool{}
	}
	if sets[k][member] {
		return false
	}
	sets[k][member] = true
	return true
}

// init is the node's Init: push s_x, then pull it.
func (f *pullMaps) init() []simnet.Envelope {
	if f.initial.IsZero() {
		return nil
	}
	for _, to := range distinct(f.smp.I.Inverse(f.initial, f.id)) {
		f.send(to, MsgPush{S: f.initial})
	}
	f.candidates[f.initial.Key()] = true
	f.startPull(f.initial)
	return f.flush()
}

// deliver hands the reference one message from `from` and returns what it
// sends.
func (f *pullMaps) deliver(from int, m simnet.Message) []simnet.Envelope {
	switch m := m.(type) {
	case MsgPush:
		f.onPush(from, m.S)
	case MsgPull:
		f.onPull(from, m.S, m.R)
	case MsgFw1:
		f.onFw1(from, m)
	case MsgFw2:
		f.onFw2(from, m.X, m.S, m.R)
	case MsgPoll:
		f.onPoll(from, m.S, m.R)
	case MsgAnswer:
		f.onAnswer(from, m.S, m.R)
	}
	return f.flush()
}

func (f *pullMaps) onPush(from int, s bitstring.String) {
	if s.IsZero() || s.Len() != f.p.StringBits || !f.inRange(from) || !f.smp.I.Contains(s, f.id, from) {
		return
	}
	k := pullKey{s: s.Key()}
	if f.candidates[k.s] || !add(f.pushRecv, k, from) {
		return
	}
	if 2*len(f.pushRecv[k]) > len(distinct(f.smp.I.Quorum(s, f.id))) {
		f.candidates[k.s] = true
		f.startPull(s)
	}
}

func (f *pullMaps) startPull(s bitstring.String) {
	if f.decided {
		return
	}
	if _, ok := f.labels[s.Key()]; ok {
		return
	}
	r := f.rng.Uint64() % f.p.Labels
	f.labels[s.Key()] = r
	for _, w := range f.smp.J.List(f.id, r) {
		f.send(w, MsgPoll{S: s, R: r})
	}
	for _, y := range distinct(f.smp.H.Quorum(s, f.id)) {
		f.send(y, MsgPull{S: s, R: r})
	}
}

func (f *pullMaps) onPull(x int, s bitstring.String, r uint64) {
	if !f.inRange(x) || !f.smp.H.Contains(s, x, f.id) {
		return
	}
	if !s.Equal(f.sthis) {
		if f.p.DeferredRelay && !f.decided && s.Len() == f.p.StringBits {
			f.relay = append(f.relay, pullReq{x: x, s: s, r: r})
		}
		return
	}
	f.forwardPull(x, s, r)
}

// forwardPull sends Fw1(x, s, r) once to each distinct z of every H(s, w),
// w ∈ J(x, r), in first-seen order, once per (x, s).
func (f *pullMaps) forwardPull(x int, s bitstring.String, r uint64) {
	k := pullKey{x: x, s: s.Key()}
	if f.forwarded[k] {
		return
	}
	f.forwarded[k] = true
	seen := map[int]bool{}
	for _, w := range f.smp.J.List(x, r) {
		for _, z := range distinct(f.smp.H.Quorum(s, w)) {
			if !seen[z] {
				seen[z] = true
				f.send(z, MsgFw1{X: x, S: s, R: r})
			}
		}
	}
}

// onFw1Tuple is Algorithm 2's second handler for one tuple (x, s, r, w)
// from `from`.
func (f *pullMaps) onFw1Tuple(from, x int, s bitstring.String, r uint64, w int) {
	if !s.Equal(f.sthis) || !f.inRange(from, x, w) {
		return
	}
	if !f.smp.H.Contains(s, w, f.id) || !f.smp.H.Contains(s, x, from) || !f.smp.J.Contains(x, r, w) {
		return
	}
	doneKey := pullKey{x: x, s: s.Key(), w: w}
	if f.fw1Done[doneKey] {
		return
	}
	vk := pullKey{x: x, s: s.Key(), r: r, w: w}
	add(f.fw1Vouches, vk, from)
	if 2*len(f.fw1Vouches[vk]) > len(distinct(f.smp.H.Quorum(s, x))) {
		f.fw1Done[doneKey] = true
		delete(f.fw1Vouches, vk)
		f.send(w, MsgFw2{X: x, S: s, R: r})
	}
}

// onFw1 hands the reference one list-free Fw1 as the tuples the recipient
// derives from it: the w ∈ J(x, r), in J order, whose pull quorum H(s, w)
// holds the recipient.
func (f *pullMaps) onFw1(from int, m MsgFw1) {
	if !f.inRange(m.X) {
		return
	}
	for _, w := range f.smp.J.List(m.X, m.R) {
		if f.smp.H.Contains(m.S, w, f.id) {
			f.onFw1Tuple(from, m.X, m.S, m.R, w)
		}
	}
}

func (f *pullMaps) onFw2(from, x int, s bitstring.String, r uint64) {
	if s.Len() != f.p.StringBits || !f.inRange(x, from) {
		return
	}
	if !f.smp.J.Contains(x, r, f.id) || !f.smp.H.Contains(s, f.id, from) {
		return
	}
	k := pullKey{x: x, s: s.Key(), r: r}
	if f.fw2Done[k] || !add(f.fw2Sets, k, from) {
		return
	}
	if 2*len(f.fw2Sets[k]) <= len(distinct(f.smp.H.Quorum(s, f.id))) {
		return
	}
	f.fw2Done[k] = true
	delete(f.fw2Sets, k)
	if f.polled[pullKey{x: x, s: s.Key()}] {
		f.maybeAnswer(x, s, r)
	}
}

func (f *pullMaps) onPoll(x int, s bitstring.String, r uint64) {
	if !f.inRange(x) || !f.smp.J.Contains(x, r, f.id) {
		return
	}
	f.polled[pullKey{x: x, s: s.Key()}] = true
	if f.fw2Done[pullKey{x: x, s: s.Key(), r: r}] {
		f.maybeAnswer(x, s, r)
	}
}

func (f *pullMaps) maybeAnswer(x int, s bitstring.String, r uint64) {
	if s.Equal(f.sthis) {
		f.tryAnswer(x, s, r)
		return
	}
	f.belief = append(f.belief, pullReq{x: x, s: s, r: r})
}

func (f *pullMaps) tryAnswer(x int, s bitstring.String, r uint64) {
	k := pullKey{x: x, s: s.Key()}
	if f.answered[k] {
		return
	}
	if f.p.AnswerBudget > 0 && f.answerCount >= f.p.AnswerBudget && !f.decided {
		f.deferred = append(f.deferred, pullReq{x: x, s: s, r: r})
		return
	}
	f.answered[k] = true
	f.answerCount++
	f.send(x, MsgAnswer{S: s, R: r})
}

func (f *pullMaps) onAnswer(from int, s bitstring.String, r uint64) {
	label, ok := f.labels[s.Key()]
	if f.decided || !ok || label != r || !f.inRange(from) || !f.smp.J.Contains(f.id, label, from) {
		return
	}
	k := pullKey{s: s.Key()}
	if add(f.answers, k, from) && len(f.answers[k]) >= f.p.PollSize/2+1 {
		f.decide(s)
	}
}

// decide fixes the output, adopts s as the belief and flushes the answers
// held back by the budget, then those awaiting s, then the pulls for s.
func (f *pullMaps) decide(s bitstring.String) {
	f.decided, f.sthis = true, s
	budget, belief, relay := f.deferred, f.belief, f.relay
	f.deferred, f.belief, f.relay = nil, nil, nil
	for _, d := range budget {
		f.tryAnswer(d.x, d.s, d.r)
	}
	for _, d := range belief {
		if d.s.Equal(s) {
			f.tryAnswer(d.x, d.s, d.r)
		}
	}
	for _, d := range relay {
		if d.s.Equal(s) {
			f.forwardPull(d.x, s, d.r)
		}
	}
}

// fw1World is the fixed setting of the equivalence test: n = 24, where the
// quorums and poll lists are 15 of 24 and a quarter of all random Fw1 pass
// the membership tests, so random sequences reach majorities.
type fw1World struct {
	p    Params
	smp  *Samplers
	strs []bitstring.String
	// short is a string of the wrong length.
	short bitstring.String
}

const fw1Me = 7

func newFw1World() fw1World {
	p := DefaultParams(24)
	src := prng.New(515)
	w := fw1World{p: p, smp: NewSamplers(p)}
	for i := 0; i < 3; i++ {
		w.strs = append(w.strs, bitstring.Random(src, p.StringBits))
	}
	w.short = bitstring.Random(src, p.StringBits/2)
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
// [kind, x, from, sel] of Fw1s, decides and resets and runs them through
// checkPullStateAgainstMaps, which holds every Fw2 the node sends to the
// reference's, message by message. Kinds 0–5 are Fw1(x, s, r) from `from`:
// sel's low two bits pick one of four labels (the fourth is the node's own
// poll label where it has one), so one x issues several; the next two pick
// the node's current belief or another string. Kind 6 decides (once per
// instance) on the string x picks, which may change the belief; kind 7
// with x ≥ 0xf0 resets both sides for a new instance.
func checkFw1TableAgainstMaps(t *testing.T, ops []byte) {
	t.Helper()
	checkPullStateAgainstMaps(t, asPullSteps(ops))
}

// sameSends reports whether got holds exactly the sends of want, in order:
// the same destinations, kinds and fields.
func sameSends(got, want []simnet.Envelope) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i].To != want[i].To || !sameMsg(got[i].Msg, want[i].Msg) {
			return false
		}
	}
	return true
}

func sameMsg(a, b simnet.Message) bool {
	switch a := a.(type) {
	case MsgPush:
		b, ok := b.(MsgPush)
		return ok && a.S.Equal(b.S)
	case MsgPull:
		b, ok := b.(MsgPull)
		return ok && a.S.Equal(b.S) && a.R == b.R
	case MsgPoll:
		b, ok := b.(MsgPoll)
		return ok && a.S.Equal(b.S) && a.R == b.R
	case MsgFw1:
		b, ok := b.(MsgFw1)
		return ok && a.X == b.X && a.S.Equal(b.S) && a.R == b.R
	case MsgFw2:
		b, ok := b.(MsgFw2)
		return ok && a.X == b.X && a.S.Equal(b.S) && a.R == b.R
	case MsgAnswer:
		b, ok := b.(MsgAnswer)
		return ok && a.S.Equal(b.S) && a.R == b.R
	}
	return false
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
		if len(ctx.sends) != 0 || len(node.req.recs) != 0 || node.strs.Len() != 1 {
			t.Errorf("%s: %d sends, %d requester records, %d strings", c.name, len(ctx.sends), len(node.req.recs), node.strs.Len())
		}
		if allocs := testing.AllocsPerRun(100, func() { node.Deliver(ctx, c.from, c.msg) }); allocs != 0 {
			t.Errorf("%s: delivery allocated %.1f times", c.name, allocs)
		}
	}
	node := NewNode(fw1Me, s, w.p, w.smp, prng.New(1))
	ctx := &fakeCtx{}
	m := MsgFw1{X: x, S: s, R: r}
	node.Deliver(ctx, hsx[0], m)
	if len(node.req.recs) != 1 || node.req.recs[0].fw1.n != 1 {
		t.Fatalf("an authenticated Fw1 left records %+v, want one with one voucher", node.req.recs)
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
	if len(ctx.sends) != 0 || len(node.req.recs) != 1 || len(node.req.spill) != 0 {
		t.Fatalf("before the majority: %d sends, %d records, %d spilled", len(ctx.sends), len(node.req.recs), len(node.req.spill))
	}
	second := fw1Served(w, w.strs[0], x, fw1Label(1))
	deliver(fw1Majority(w, w.strs[0], x, 1))
	if len(ctx.sends) != len(second) || len(node.req.recs) != 1 || len(node.req.spill) != 1 {
		t.Fatalf("a majority under the second label: %d sends for %d served w's, %d records, %d spilled",
			len(ctx.sends), len(second), len(node.req.recs), len(node.req.spill))
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
// instances) starts the next instance with an empty requester table — the same
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

	storage := cap(node.req.recs)
	for _, next := range []bitstring.String{w.strs[0], w.strs[1]} { // the same interned id, then another string under it
		node.Reset(next, w.smp, prng.New(3))
		if len(node.req.recs)+len(node.req.spill)+len(node.req.over) != 0 {
			t.Fatalf("Reset left %d records, %d spilled", len(node.req.recs), len(node.req.spill))
		}
		for _, i := range node.req.index {
			if i != 0 {
				t.Fatal("Reset left an index entry behind")
			}
		}
		if sent, want := run(next), len(fw1Served(w, next, x, fw1Label(0))); sent != want {
			t.Fatalf("after Reset the same vouchers sent %d Fw2, want %d", sent, want)
		}
	}
	if cap(node.req.recs) != storage {
		t.Fatalf("Reset did not keep the table's storage: cap %d, was %d", cap(node.req.recs), storage)
	}
}

// newPullWorld is the setting of the pull-state equivalence test: the Fw1
// world with an answer budget of two, so that a few requests exhaust it, and
// deferred relaying on.
func newPullWorld() fw1World {
	w := newFw1World()
	w.p.AnswerBudget = 2
	w.p.DeferredRelay = true
	return w
}

// Step bits that pick a string (sel >> 2): the node's belief, one of the
// world's three strings, or the string of the wrong length; 5–7 are the
// belief as well.
const (
	pickBelief byte = iota
	pickStr0
	pickStr1
	pickStr2
	pickShort
)

// ownLabel is the label bits (sel & 3) that name the label of the node's own
// poll for the string, where it has one.
const ownLabel = 3

func pullSel(label, pick byte) byte { return label | pick<<2 }

func (w fw1World) pullString(ref *pullMaps, sel byte) bitstring.String {
	switch pick := (sel >> 2) & 7; {
	case pick >= pickStr0 && pick <= pickStr2:
		return w.strs[pick-pickStr0]
	case pick == pickShort:
		return w.short
	}
	return ref.sthis
}

func pullLabel(ref *pullMaps, s bitstring.String, sel byte) uint64 {
	if sel&3 == ownLabel {
		if r, ok := ref.labels[s.Key()]; ok {
			return r
		}
	}
	return fw1Label(sel)
}

// checkPullStateAgainstMaps interprets ops as four-byte steps [kind, x,
// from, sel] and runs them on a node and on the reference side by side,
// requiring the same sends — destinations, kinds and fields, in order — at
// every step. Both sides start with Init. Kinds 0–5 deliver one message from
// `from`: Push(s), Pull(s, r), Fw1(x, s, r), Fw2(x, s, r), Poll(s, r) and
// Answer(s, r), with s and r picked by sel (pullString, pullLabel). Kind 6
// decides, once per instance, on the string sel picks; kind 7 with x ≥ 0xf0
// resets both sides to the string `from` picks and runs Init again.
func checkPullStateAgainstMaps(t *testing.T, ops []byte) {
	t.Helper()
	w := newPullWorld()
	n := w.p.N
	var (
		node *Node
		ref  *pullMaps
	)
	start := func(s bitstring.String, seed uint64) {
		if node == nil {
			node = NewNode(fw1Me, s, w.p, w.smp, prng.New(seed))
		} else {
			node.Reset(s, w.smp, prng.New(seed))
		}
		ref = newPullMaps(fw1Me, s, w.p, w.smp, prng.New(seed))
		ctx := &fakeCtx{}
		node.Init(ctx)
		if want := ref.init(); !sameSends(ctx.sends, want) {
			t.Fatalf("Init: node sent %v, reference %v", ctx.sends, want)
		}
	}
	start(w.strs[0], 1)
	for step := 0; len(ops) >= 4; ops, step = ops[4:], step+1 {
		kind, sel := ops[0]%8, ops[3]
		s := w.pullString(ref, sel)
		r := pullLabel(ref, s, sel)
		x, from := fw1ID(ops[1], n), fw1ID(ops[2], n)
		var m simnet.Message
		switch kind {
		case 0:
			m = MsgPush{S: s}
		case 1:
			m = MsgPull{S: s, R: r}
		case 2:
			m = MsgFw1{X: x, S: s, R: r}
		case 3:
			m = MsgFw2{X: x, S: s, R: r}
		case 4:
			m = MsgPoll{S: s, R: r}
		case 5:
			m = MsgAnswer{S: s, R: r}
		}
		ctx := &fakeCtx{}
		var want []simnet.Envelope
		switch {
		case m != nil:
			node.Deliver(ctx, from, m)
			want = ref.deliver(from, m)
		case kind == 6 && !ref.decided:
			m = MsgAnswer{S: s} // for the report
			node.decide(ctx, node.strs.ID(s))
			ref.decide(s)
			want = ref.flush()
		case kind == 7 && ops[1] >= 0xf0:
			start(w.strs[int(ops[2])%len(w.strs)], 2)
			continue
		default:
			continue
		}
		if !sameSends(ctx.sends, want) {
			t.Fatalf("step %d: kind %d %+v from %d: node sent %v, reference %v", step, kind, m, from, ctx.sends, want)
		}
		if node.hasDecided != ref.decided {
			t.Fatalf("step %d: node decided %v, reference %v", step, node.hasDecided, ref.decided)
		}
	}
}

// cat concatenates step sequences into a new slice.
func cat(parts ...[]byte) []byte {
	var ops []byte
	for _, p := range parts {
		ops = append(ops, p...)
	}
	return ops
}

// pullStep encodes one step of checkPullStateAgainstMaps.
func pullStep(kind byte, x, from int, sel byte) []byte {
	return []byte{kind, byte(x), byte(from), sel}
}

// pullRequesters returns the x's whose poll list under the label bits holds
// the test node.
func pullRequesters(w fw1World, label byte) []int {
	var xs []int
	for x := 0; x < w.p.N; x++ {
		if w.smp.J.Contains(x, fw1Label(label), fw1Me) {
			xs = append(xs, x)
		}
	}
	return xs
}

// pullMajority returns the steps that bring a strict majority of
// H(s, this) to forward Fw2(x, s, r), then one replayed voucher.
func pullMajority(w fw1World, s bitstring.String, pick byte, x int, label byte) []byte {
	var ops []byte
	quorum := distinct(w.smp.H.Quorum(s, fw1Me))
	for _, z := range quorum[:len(quorum)/2+1] {
		ops = append(ops, pullStep(3, x, z, pullSel(label, pick))...)
	}
	return append(ops, pullStep(3, x, quorum[0], pullSel(label, pick))...)
}

// pullAnswered returns the steps of one answered request: x polls under the
// label bits, and a majority of H(s, this) forwards it (Poll first, as the
// synchronous runner delivers them, unless pollLast).
func pullAnswered(w fw1World, s bitstring.String, pick byte, x int, label byte, pollLast bool) []byte {
	poll := pullStep(4, 0, x, pullSel(label, pick))
	if pollLast {
		return cat(pullMajority(w, s, pick, x, label), poll)
	}
	return cat(poll, pullMajority(w, s, pick, x, label))
}

// asPullSteps turns checkFw1TableAgainstMaps steps into steps of
// checkPullStateAgainstMaps.
func asPullSteps(fw1 []byte) []byte {
	var ops []byte
	for ; len(fw1) >= 4; fw1 = fw1[4:] {
		switch kind := fw1[0] % 8; {
		case kind <= 5:
			pick := pickBelief
			if p := (fw1[3] >> 2) & 3; p >= 2 {
				pick = pickStr0 + p - 1
			}
			ops = append(ops, 2, fw1[1], fw1[2], pullSel(fw1[3]&3, pick))
		case kind == 6:
			ops = append(ops, 6, 0, 0, pullSel(0, pickStr0+fw1[1]%3))
		default:
			ops = append(ops, fw1[:4]...)
		}
	}
	return ops
}

// pullSeeds is the seed corpus of FuzzPullStateMatchesMaps.
func pullSeeds(t testing.TB) [][]byte {
	w := newPullWorld()
	s0, s1 := w.strs[0], w.strs[1]
	both := pullRequesters(w, 0)
	var two []int // requesters whose poll lists under labels 0 and 1 both hold the node
	for _, x := range both {
		if w.smp.J.Contains(x, fw1Label(1), fw1Me) {
			two = append(two, x)
		}
	}
	if len(both) < 3 || len(two) == 0 {
		t.Fatal("too few requesters poll the test node in this world")
	}
	x := both[0]
	var seeds [][]byte
	// A Poll before its Fw2 majority, and after it.
	seeds = append(seeds, pullAnswered(w, s0, pickBelief, x, 0, false))
	seeds = append(seeds, pullAnswered(w, s0, pickBelief, x, 0, true))
	// Two labels of one x: answered once, under the first; then two labels
	// of one x in the Fw1 part.
	seeds = append(seeds, cat(pullAnswered(w, s0, pickBelief, two[0], 0, false),
		pullAnswered(w, s0, pickBelief, two[0], 1, true)))
	fx, _ := fw1SeedPair(t, w)
	first := fw1Majority(w, s0, fx, 0)
	seeds = append(seeds, asPullSteps(cat(first[:len(first)-8], fw1Majority(w, s0, fx, 1), first[len(first)-8:])))
	// An Fw2 majority and a Poll for a string other than the belief: held
	// until a decision for that string, then answered.
	seeds = append(seeds, cat(pullAnswered(w, s1, pickStr1, x, 0, false), pullStep(6, 0, 0, pullSel(0, pickStr1))))
	// The budget of two exhausted by three requests, then a decision that
	// flushes the third.
	var budget []byte
	for _, bx := range both[:3] {
		budget = append(budget, pullAnswered(w, s0, pickBelief, bx, 0, false)...)
	}
	seeds = append(seeds, cat(budget, pullStep(6, 0, 0, pullSel(0, pickStr0))))
	// Ids of −1 and ≥ n, as requester and as sender, in every kind.
	var odd []byte
	for kind := byte(0); kind < 6; kind++ {
		for _, id := range []byte{fw1IDMinus, fw1IDn, fw1IDBig} {
			odd = append(odd, kind, id, 3, 0, kind, 3, id, 0, kind, id, id, pullSel(ownLabel, pickBelief))
		}
	}
	seeds = append(seeds, odd)
	// The same answered request either side of a Reset.
	seeds = append(seeds, cat(pullAnswered(w, s0, pickBelief, x, 0, false), []byte{7, 0xff, 0, 0},
		pullAnswered(w, s0, pickBelief, x, 0, false)))
	// A push majority for another string starts its pull; a Pull for the
	// belief is forwarded once; a Pull for the other string waits for a
	// decision for it.
	var pulls []byte
	push := distinct(w.smp.I.Quorum(s1, fw1Me))
	for _, y := range push[:len(push)/2+1] {
		pulls = append(pulls, pullStep(0, 0, y, pullSel(0, pickStr1))...)
	}
	for px := 0; px < w.p.N; px++ {
		if w.smp.H.Contains(s0, px, fw1Me) {
			pulls = append(pulls, pullStep(1, 0, px, pullSel(0, pickBelief))...)
			pulls = append(pulls, pullStep(1, 0, px, pullSel(0, pickBelief))...)
			break
		}
	}
	for px := 0; px < w.p.N; px++ {
		if w.smp.H.Contains(s1, px, fw1Me) {
			pulls = append(pulls, pullStep(1, 0, px, pullSel(1, pickStr1))...)
			break
		}
	}
	seeds = append(seeds, cat(pulls, pullStep(6, 0, 0, pullSel(0, pickStr1))))
	// A majority of the node's own poll list answers: it decides.
	probe := NewNode(fw1Me, s0, w.p, w.smp, prng.New(1))
	probe.Init(&fakeCtx{})
	r, _ := probe.pollLabel(s0)
	var answers []byte
	for _, a := range w.smp.J.List(fw1Me, r)[:w.p.PollSize/2+1] {
		answers = append(answers, pullStep(5, 0, a, pullSel(ownLabel, pickBelief))...)
	}
	seeds = append(seeds, cat(budget, answers))
	return seeds
}

func FuzzPullStateMatchesMaps(f *testing.F) {
	for _, seed := range pullSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(checkPullStateAgainstMaps)
}

// TestPullSeedsExerciseTheNode: the seed corpus reaches what its comments
// say — answers, a belief deferral answered at decide, budget deferral and
// its flush, a decision by answers, and forwarded pulls.
func TestPullSeedsExerciseTheNode(t *testing.T) {
	w := newPullWorld()
	seeds := pullSeeds(t)
	run := func(ops []byte) (*Node, map[string]int) {
		node := NewNode(fw1Me, w.strs[0], w.p, w.smp, prng.New(1))
		node.Init(&fakeCtx{})
		ctx := &fakeCtx{}
		ref := newPullMaps(fw1Me, w.strs[0], w.p, w.smp, prng.New(1))
		ref.init() // for the labels pullLabel names
		for ; len(ops) >= 4; ops = ops[4:] {
			s := w.pullString(ref, ops[3])
			r := pullLabel(ref, s, ops[3])
			x, from := fw1ID(ops[1], w.p.N), fw1ID(ops[2], w.p.N)
			switch ops[0] {
			case 0:
				node.Deliver(ctx, from, MsgPush{S: s})
			case 1:
				node.Deliver(ctx, from, MsgPull{S: s, R: r})
			case 3:
				node.Deliver(ctx, from, MsgFw2{X: x, S: s, R: r})
			case 4:
				node.Deliver(ctx, from, MsgPoll{S: s, R: r})
			case 5:
				node.Deliver(ctx, from, MsgAnswer{S: s, R: r})
			case 6:
				node.decide(ctx, node.strs.ID(s))
			}
		}
		kinds := map[string]int{}
		for _, e := range ctx.sends {
			kinds[e.Msg.Kind()]++
		}
		return node, kinds
	}
	if _, k := run(seeds[0]); k["answer"] != 1 {
		t.Fatalf("Poll, then a majority: %v, want one answer", k)
	}
	if _, k := run(seeds[4]); k["answer"] != 1 {
		t.Fatalf("a majority for another string, then a decision for it: %v, want one answer", k)
	}
	budget := seeds[5]
	if node, k := run(budget[:len(budget)-4]); k["answer"] != 2 || node.stats.AnswersDeferred != 1 {
		t.Fatalf("three requests on a budget of two: %v, %d deferred", k, node.stats.AnswersDeferred)
	}
	if _, k := run(budget); k["answer"] != 3 {
		t.Fatalf("the decision flushed %d answers of 3", k["answer"])
	}
	if _, k := run(seeds[8]); k["fw1"] == 0 || k["poll"] == 0 {
		t.Fatalf("push and pull seed: %v, want a started pull and forwarded ones", k)
	}
	if node, _ := run(seeds[9]); !node.hasDecided {
		t.Fatal("a majority of the poll list answered, and the node did not decide")
	}
}

func TestPullStateMatchesMaps(t *testing.T) {
	src := prng.New(2026)
	for round := 0; round < 30; round++ {
		ops := make([]byte, 4*2000)
		for i := 0; i < len(ops); i += 4 {
			// Four requesters, two labels and mostly the belief or one other
			// string, so that vouch sets and answer counts fill, the budget
			// runs out and answers wait for a belief change; senders
			// from the whole domain, and a sprinkling of ids outside [0, n).
			kind := byte(src.Intn(6))
			ops[i], ops[i+1], ops[i+2] = kind, byte(src.Intn(4)), byte(src.Intn(24))
			if kind == 1 || kind == 4 {
				ops[i+2] = byte(src.Intn(4)) // Pull and Poll come from the requester
			}
			pick := pickBelief
			switch src.Intn(10) {
			case 0:
				pick = byte(src.Intn(8))
			case 1, 2, 3:
				pick = pickStr1
			}
			ops[i+3] = pullSel(byte(src.Intn(2)), pick)
			if kind == 5 && src.Intn(10) == 0 {
				ops[i+3] = pullSel(ownLabel, pick) // rarely, so the budget runs out first
			}
			if src.Intn(50) == 0 {
				ops[i+1+src.Intn(2)] = 0x80 + byte(src.Intn(64))
			}
			if src.Intn(1500) == 0 {
				ops[i] = 6
			} else if src.Intn(1500) == 0 {
				ops[i], ops[i+1] = 7, 0xff
			}
		}
		checkPullStateAgainstMaps(t, ops)
	}
}

// BenchmarkOnFw2 times one valid Fw2 or Poll delivery on a node in steady
// state: for every requester x whose poll list J(x, r) holds the node, x's
// Poll and then an Fw2 from every member of H(s, this), the majority among
// them completing the request and answering it. One pass is one instance's
// Algorithm 3 traffic; the node is Reset between passes, as a pooled node is
// between log instances, so steady-state delivery must not allocate.
func BenchmarkOnFw2(b *testing.B) {
	for _, n := range []int{24, 256} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			p := DefaultParams(n)
			p.AnswerBudget = 0 // answer every request
			smp := NewSamplers(p)
			s := bitstring.Random(prng.New(42), p.StringBits)
			const wID = 5
			w := NewNode(wID, s, p, smp, prng.New(1))
			type delivery struct {
				from int
				msg  simnet.Message
			}
			var valid []delivery
			quorum := distinct(smp.H.Quorum(s, wID))
			for x := 0; x < n; x++ {
				r := uint64(x) * 31
				if !smp.J.Contains(x, r, wID) {
					continue
				}
				valid = append(valid, delivery{x, MsgPoll{S: s, R: r}})
				for _, z := range quorum {
					valid = append(valid, delivery{z, MsgFw2{X: x, S: s, R: r}})
				}
			}
			if len(valid) == 0 {
				b.Fatal("no requester polls this node")
			}
			ctx := &discardCtx{}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%len(valid) == 0 {
					w.Reset(s, smp, w.rng)
				}
				d := &valid[i%len(valid)]
				w.Deliver(ctx, d.from, d.msg)
			}
			b.StopTimer()
			if ctx.sent == 0 && b.N >= len(valid) {
				b.Fatal("a full pass of valid Fw2s answered nothing")
			}
		})
	}
}
