package core

import (
	"testing"

	"github.com/fastba/fastba/internal/bitstring"
	"github.com/fastba/fastba/internal/prng"
	"github.com/fastba/fastba/internal/simnet"
)

// fakeCtx captures sends for white-box protocol tests.
type fakeCtx struct {
	now   int
	sends []simnet.Envelope
}

func (c *fakeCtx) Now() int { return c.now }
func (c *fakeCtx) Send(to simnet.NodeID, m simnet.Message) {
	c.sends = append(c.sends, simnet.Envelope{To: to, Msg: m})
}

func (c *fakeCtx) byKind(kind string) []simnet.Envelope {
	var out []simnet.Envelope
	for _, e := range c.sends {
		if e.Msg.Kind() == kind {
			out = append(out, e)
		}
	}
	return out
}

// testSetup builds a small deterministic world for white-box tests.
func testSetup(t *testing.T, n int) (Params, *Samplers, bitstring.String) {
	t.Helper()
	p := DefaultParams(n)
	smp := NewSamplers(p)
	s := bitstring.Random(prng.New(42), p.StringBits)
	return p, smp, s
}

func newTestNode(id int, initial bitstring.String, p Params, smp *Samplers) *Node {
	return NewNode(id, initial, p, smp, prng.New(uint64(id)+1000))
}

func TestInitPushesToInverseQuorum(t *testing.T) {
	p, smp, s := testSetup(t, 64)
	n := newTestNode(7, s, p, smp)
	ctx := &fakeCtx{}
	n.Init(ctx)

	pushes := ctx.byKind("push")
	wantTargets := distinct(smp.I.Inverse(s, 7))
	if len(pushes) != len(wantTargets) {
		t.Fatalf("sent %d pushes, want %d", len(pushes), len(wantTargets))
	}
	for _, e := range pushes {
		if !smp.I.Contains(s, e.To, 7) {
			t.Fatalf("pushed to %d which does not hold 7 in I(s, %d)", e.To, e.To)
		}
	}
	// Own candidate registered and pulled immediately.
	if got := n.Stats().CandidateListSize; got != 1 {
		t.Fatalf("candidate list size %d, want 1", got)
	}
	if len(ctx.byKind("poll")) != p.PollSize {
		t.Fatalf("sent %d polls, want %d", len(ctx.byKind("poll")), p.PollSize)
	}
	if got := len(ctx.byKind("pull")); got != len(distinct(smp.H.Quorum(s, 7))) {
		t.Fatalf("sent %d pulls, want %d", got, len(distinct(smp.H.Quorum(s, 7))))
	}
}

func TestInitWithZeroStringIsSilent(t *testing.T) {
	p, smp, _ := testSetup(t, 64)
	n := newTestNode(3, bitstring.String{}, p, smp)
	ctx := &fakeCtx{}
	n.Init(ctx)
	if len(ctx.sends) != 0 {
		t.Fatalf("zero-candidate node sent %d messages", len(ctx.sends))
	}
}

func TestPushMajorityFilter(t *testing.T) {
	p, smp, s := testSetup(t, 64)
	const me = 11
	n := newTestNode(me, bitstring.Random(prng.New(1), p.StringBits), p, smp)
	n.Init(&fakeCtx{})

	quorum := distinct(smp.I.Quorum(s, me))
	need := len(quorum)/2 + 1

	// Pushes from non-members are ignored entirely.
	outsider := pickNonMember(quorum, 64)
	ctx := &fakeCtx{}
	for i := 0; i < need+3; i++ {
		n.Deliver(ctx, outsider, MsgPush{S: s})
	}
	if n.HasCandidate(s) {
		t.Fatal("candidate accepted from non-quorum pushes")
	}

	// A minority of quorum members is not enough.
	for _, y := range quorum[:need-1] {
		n.Deliver(ctx, y, MsgPush{S: s})
	}
	if n.HasCandidate(s) {
		t.Fatal("candidate accepted below majority")
	}
	// Duplicate pushes from the same member must not inflate the count.
	for i := 0; i < 5; i++ {
		n.Deliver(ctx, quorum[0], MsgPush{S: s})
	}
	if n.HasCandidate(s) {
		t.Fatal("duplicate pushes crossed the majority filter")
	}

	// The majority-crossing push triggers the pull for the new candidate.
	before := len(ctx.byKind("poll"))
	n.Deliver(ctx, quorum[need-1], MsgPush{S: s})
	if !n.HasCandidate(s) {
		t.Fatal("candidate not accepted at majority")
	}
	if got := len(ctx.byKind("poll")) - before; got != p.PollSize {
		t.Fatalf("pull not started on acceptance: %d new polls", got)
	}
}

func TestPushRejectsMalformedStrings(t *testing.T) {
	p, smp, _ := testSetup(t, 64)
	n := newTestNode(5, bitstring.String{}, p, smp)
	ctx := &fakeCtx{}
	short := bitstring.Random(prng.New(3), p.StringBits/2)
	for from := 0; from < 64; from++ {
		n.Deliver(ctx, from, MsgPush{S: short})
		n.Deliver(ctx, from, MsgPush{S: bitstring.String{}})
	}
	if n.Stats().CandidateListSize != 0 {
		t.Fatal("malformed strings entered the candidate list")
	}
}

func TestPullForwardOnlyForOwnString(t *testing.T) {
	p, smp, s := testSetup(t, 64)
	other := bitstring.Random(prng.New(9), p.StringBits)

	// y holds s; a pull for `other` must not be proxied.
	yID := distinct(smp.H.Quorum(other, 20))[0]
	y := newTestNode(yID, s, p, smp)
	y.Init(&fakeCtx{})
	ctx := &fakeCtx{}
	y.Deliver(ctx, 20, MsgPull{S: other, R: 5})
	if len(ctx.byKind("fw1")) != 0 {
		t.Fatal("node proxied a pull for a string it does not hold")
	}
}

func TestPullForwardedOncePerRequester(t *testing.T) {
	p, smp, s := testSetup(t, 64)
	const x = 20
	yID := distinct(smp.H.Quorum(s, x))[0]
	y := newTestNode(yID, s, p, smp)
	y.Init(&fakeCtx{})

	ctx := &fakeCtx{}
	y.Deliver(ctx, x, MsgPull{S: s, R: 5})
	first := len(ctx.byKind("fw1"))
	if first == 0 {
		t.Fatal("no Fw1 sent for a valid pull")
	}
	// Label churn from the same requester must not amplify traffic.
	y.Deliver(ctx, x, MsgPull{S: s, R: 6})
	y.Deliver(ctx, x, MsgPull{S: s, R: 7})
	if got := len(ctx.byKind("fw1")); got != first {
		t.Fatalf("pull re-forwarded under label churn: %d -> %d", first, got)
	}
}

func TestPullIgnoredFromForeignQuorum(t *testing.T) {
	p, smp, s := testSetup(t, 64)
	const x = 20
	quorum := distinct(smp.H.Quorum(s, x))
	outsider := pickNonMember(quorum, 64)
	y := newTestNode(outsider, s, p, smp)
	y.Init(&fakeCtx{})
	ctx := &fakeCtx{}
	y.Deliver(ctx, x, MsgPull{S: s, R: 5})
	if len(ctx.byKind("fw1")) != 0 {
		t.Fatal("node outside H(s, x) proxied the pull")
	}
}

// buildFw2Majority drives node w through a valid Fw2 majority for requester
// x with label r, returning the capture context.
func buildFw2Majority(t *testing.T, w *Node, smp *Samplers, x int, s bitstring.String, r uint64, polledFirst bool) *fakeCtx {
	t.Helper()
	ctx := &fakeCtx{}
	if polledFirst {
		w.Deliver(ctx, x, MsgPoll{S: s, R: r})
	}
	quorum := distinct(smp.H.Quorum(s, w.id))
	need := len(quorum)/2 + 1
	for _, z := range quorum[:need] {
		w.Deliver(ctx, z, MsgFw2{X: x, S: s, R: r})
	}
	return ctx
}

// findLabelWith returns a label r such that member ∈ J(x, r).
func findLabelWith(t *testing.T, smp *Samplers, labels uint64, x, member int) uint64 {
	t.Helper()
	for r := uint64(0); r < labels; r++ {
		if smp.J.Contains(x, r, member) {
			return r
		}
	}
	t.Fatal("no label found placing member on x's poll list")
	return 0
}

func TestAnswerRequiresPollAndMajority(t *testing.T) {
	p, smp, s := testSetup(t, 64)
	const wID, x = 9, 30
	r := findLabelWith(t, smp, p.Labels, x, wID)

	// Without the Poll, even an Fw2 majority must not trigger an answer.
	w := newTestNode(wID, s, p, smp)
	w.Init(&fakeCtx{})
	ctx := buildFw2Majority(t, w, smp, x, s, r, false)
	if len(ctx.byKind("answer")) != 0 {
		t.Fatal("answered without being polled")
	}
	// The late Poll (asynchronous case) releases the answer.
	w.Deliver(ctx, x, MsgPoll{S: s, R: r})
	if len(ctx.byKind("answer")) != 1 {
		t.Fatalf("late poll answers = %d, want 1", len(ctx.byKind("answer")))
	}

	// Poll-first order also answers exactly once.
	w2 := newTestNode(wID, s, p, smp)
	w2.Init(&fakeCtx{})
	ctx2 := buildFw2Majority(t, w2, smp, x, s, r, true)
	if len(ctx2.byKind("answer")) != 1 {
		t.Fatalf("poll-first answers = %d, want 1", len(ctx2.byKind("answer")))
	}
	// Replayed Fw2s must not produce duplicate answers.
	quorum := distinct(smp.H.Quorum(s, wID))
	for _, z := range quorum {
		w2.Deliver(ctx2, z, MsgFw2{X: x, S: s, R: r})
	}
	if len(ctx2.byKind("answer")) != 1 {
		t.Fatal("duplicate answers after Fw2 replay")
	}
}

func TestAnswerRejectsWrongString(t *testing.T) {
	p, smp, s := testSetup(t, 64)
	other := bitstring.Random(prng.New(17), p.StringBits)
	const wID, x = 9, 30
	r := findLabelWith(t, smp, p.Labels, x, wID)
	w := newTestNode(wID, s, p, smp)
	w.Init(&fakeCtx{})
	// Fw2s for a string w does not believe are pended, not answered.
	ctx := buildFw2Majority(t, w, smp, x, other, r, true)
	if len(ctx.byKind("answer")) != 0 {
		t.Fatal("answered for a string the node does not hold")
	}
}

func TestBeliefDeferredAnsweredAfterDecision(t *testing.T) {
	// §3.1.2 reply condition 2: a node holding junk receives an
	// authenticated request for gstring; it answers only after deciding
	// gstring itself ("s_w was changed accordingly").
	p, smp, _ := testSetup(t, 64)
	junk := bitstring.Random(prng.New(31), p.StringBits)
	gstring := bitstring.Random(prng.New(32), p.StringBits)
	const wID, x = 9, 30
	r := findLabelWith(t, smp, p.Labels, x, wID)

	w := newTestNode(wID, junk, p, smp)
	w.Init(&fakeCtx{})
	ctx := buildFw2Majority(t, w, smp, x, gstring, r, true)
	if len(ctx.byKind("answer")) != 0 {
		t.Fatal("junk holder answered a gstring request before deciding")
	}

	// w now learns gstring through the push phase and decides it.
	quorum := distinct(smp.I.Quorum(gstring, wID))
	for _, y := range quorum[:len(quorum)/2+1] {
		w.Deliver(ctx, y, MsgPush{S: gstring})
	}
	rOwn, _ := w.pollLabel(gstring)
	list := smp.J.List(wID, rOwn)
	for _, member := range list[:p.PollSize/2+1] {
		w.Deliver(ctx, member, MsgAnswer{S: gstring, R: rOwn})
	}
	if d, ok := w.Decided(); !ok || !d.Equal(gstring) {
		t.Fatal("setup: node should have decided gstring")
	}
	// The pending request for gstring must now be answered; the old junk
	// belief must not resurrect anything.
	answers := ctx.byKind("answer")
	if len(answers) != 1 {
		t.Fatalf("answers after decision = %d, want 1", len(answers))
	}
	if answers[0].To != x {
		t.Fatalf("answer went to %d, want %d", answers[0].To, x)
	}
}

func TestAnswerBudgetDefersAndFlushesOnDecision(t *testing.T) {
	p, smp, s := testSetup(t, 64)
	p.AnswerBudget = 1
	const wID = 9
	w := newTestNode(wID, s, p, smp)
	w.Init(&fakeCtx{})

	// Two requesters whose poll lists contain w.
	x1, x2 := 30, 31
	r1 := findLabelWith(t, smp, p.Labels, x1, wID)
	r2 := findLabelWith(t, smp, p.Labels, x2, wID)

	ctx1 := buildFw2Majority(t, w, smp, x1, s, r1, true)
	if len(ctx1.byKind("answer")) != 1 {
		t.Fatal("first request not answered within budget")
	}
	ctx2 := buildFw2Majority(t, w, smp, x2, s, r2, true)
	if len(ctx2.byKind("answer")) != 0 {
		t.Fatal("budget exceeded but request answered")
	}
	if w.Stats().AnswersDeferred != 1 {
		t.Fatalf("AnswersDeferred = %d, want 1", w.Stats().AnswersDeferred)
	}

	// Drive w to decide its own candidate: majority answers on its poll.
	rOwn, _ := w.pollLabel(s)
	ctx3 := &fakeCtx{now: 7}
	list := smp.J.List(wID, rOwn)
	for _, member := range list[:len(list)/2+1] {
		w.Deliver(ctx3, member, MsgAnswer{S: s, R: rOwn})
	}
	if _, ok := w.Decided(); !ok {
		t.Fatal("node did not decide on answer majority")
	}
	if w.DecidedAt() != 7 {
		t.Fatalf("DecidedAt = %d, want 7", w.DecidedAt())
	}
	// The deferred answer to x2 must have flushed on decision.
	if len(ctx3.byKind("answer")) != 1 {
		t.Fatalf("deferred answer not flushed: %d answers", len(ctx3.byKind("answer")))
	}
	if ctx3.byKind("answer")[0].To != x2 {
		t.Fatalf("flushed answer went to %d, want %d", ctx3.byKind("answer")[0].To, x2)
	}
}

func TestDecisionRequiresPollListMajority(t *testing.T) {
	p, smp, s := testSetup(t, 64)
	const me = 9
	n := newTestNode(me, s, p, smp)
	n.Init(&fakeCtx{})
	r, _ := n.pollLabel(s)
	list := smp.J.List(me, r)
	ctx := &fakeCtx{}

	// Answers from non-members are ignored.
	outsider := pickNonMember(list, 64)
	for i := 0; i < p.PollSize; i++ {
		n.Deliver(ctx, outsider, MsgAnswer{S: s, R: r})
	}
	if _, ok := n.Decided(); ok {
		t.Fatal("decided on answers from outside the poll list")
	}

	// Wrong label answers are ignored.
	for _, member := range list {
		n.Deliver(ctx, member, MsgAnswer{S: s, R: r + 1})
	}
	if _, ok := n.Decided(); ok {
		t.Fatal("decided on answers with a stale label")
	}

	// Duplicate answers from one member are counted once.
	for i := 0; i < p.PollSize; i++ {
		n.Deliver(ctx, list[0], MsgAnswer{S: s, R: r})
	}
	if _, ok := n.Decided(); ok {
		t.Fatal("decided on duplicate answers")
	}

	half := list[:p.PollSize/2]
	for _, member := range half {
		n.Deliver(ctx, member, MsgAnswer{S: s, R: r})
	}
	if _, ok := n.Decided(); ok {
		t.Fatal("decided on exactly half (needs strict majority)")
	}
	n.Deliver(ctx, list[p.PollSize/2], MsgAnswer{S: s, R: r})
	if d, ok := n.Decided(); !ok || !d.Equal(s) {
		t.Fatal("did not decide at strict majority")
	}
}

func TestFw1RequiresAllMembershipChecks(t *testing.T) {
	p, smp, s := testSetup(t, 64)
	const x = 12
	// Choose w on x's poll list for some label and z ∈ H(s, w).
	r := uint64(3)
	w := smp.J.List(x, r)[0]
	zID := distinct(smp.H.Quorum(s, w))[0]
	z := newTestNode(zID, s, p, smp)
	z.Init(&fakeCtx{})
	served := func(r uint64) []int {
		var out []int
		for _, v := range smp.J.List(x, r) {
			if smp.H.Contains(s, v, zID) {
				out = append(out, v)
			}
		}
		return out
	}

	hsx := distinct(smp.H.Quorum(s, x))
	need := len(hsx)/2 + 1

	// Vouches from outside H(s, x) are ignored.
	ctx := &fakeCtx{}
	outsider := pickNonMember(hsx, 64)
	for i := 0; i < need+2; i++ {
		z.Deliver(ctx, outsider, MsgFw1{X: x, S: s, R: r})
	}
	if len(ctx.byKind("fw2")) != 0 {
		t.Fatal("Fw2 sent from vouches outside H(s, x)")
	}

	// A label whose poll list holds no w that z serves forwards nothing,
	// even with valid vouchers: z ∈ H(s, w) and w ∈ J(x, r) are tested
	// together when the recipient derives its w's.
	rNone := r + 1
	for len(served(rNone)) != 0 {
		rNone++
	}
	for _, y := range hsx[:need] {
		z.Deliver(ctx, y, MsgFw1{X: x, S: s, R: rNone})
	}
	if len(ctx.byKind("fw2")) != 0 {
		t.Fatal("Fw2 sent for a poll list z serves no member of")
	}

	// The valid majority triggers exactly one Fw2 to each served w, in
	// J(x, r) order, w among them.
	for _, y := range hsx[:need] {
		z.Deliver(ctx, y, MsgFw1{X: x, S: s, R: r})
	}
	fw2s, want := ctx.byKind("fw2"), served(r)
	if len(fw2s) != len(want) || len(want) == 0 || want[0] != w {
		t.Fatalf("fw2s = %v, want one to each of %v", fw2s, want)
	}
	for i, e := range fw2s {
		if e.To != want[i] {
			t.Fatalf("fw2s = %v, want one to each of %v", fw2s, want)
		}
	}
	// Replays do not re-forward ("forward only once").
	for _, y := range hsx {
		z.Deliver(ctx, y, MsgFw1{X: x, S: s, R: r})
	}
	if len(ctx.byKind("fw2")) != len(want) {
		t.Fatal("Fw2 re-forwarded on replay")
	}
}

func TestDecidedNodeStopsNewPulls(t *testing.T) {
	p, smp, s := testSetup(t, 64)
	const me = 9
	n := newTestNode(me, s, p, smp)
	n.Init(&fakeCtx{})
	r, _ := n.pollLabel(s)
	list := smp.J.List(me, r)
	ctx := &fakeCtx{}
	for _, member := range list[:p.PollSize/2+1] {
		n.Deliver(ctx, member, MsgAnswer{S: s, R: r})
	}
	if _, ok := n.Decided(); !ok {
		t.Fatal("setup: node should have decided")
	}

	// A new candidate reaching push majority must not start a pull.
	other := bitstring.Random(prng.New(23), p.StringBits)
	before := len(ctx.byKind("poll"))
	for _, y := range distinct(smp.I.Quorum(other, me)) {
		n.Deliver(ctx, y, MsgPush{S: other})
	}
	if got := len(ctx.byKind("poll")); got != before {
		t.Fatal("decided node started a new pull")
	}
	// But it now believes gstring and serves as a relay for it.
	if !n.Believes().Equal(s) {
		t.Fatal("belief not updated on decision")
	}
}

func pickNonMember(members []int, n int) int {
	in := make(map[int]bool, len(members))
	for _, m := range members {
		in[m] = true
	}
	for i := 0; i < n; i++ {
		if !in[i] {
			return i
		}
	}
	panic("no non-member available")
}

func TestFw2MalformedStringIgnored(t *testing.T) {
	p, smp, s := testSetup(t, 64)
	const wID, x = 9, 30
	r := findLabelWith(t, smp, p.Labels, x, wID)
	w := newTestNode(wID, s, p, smp)
	w.Init(&fakeCtx{})
	short := bitstring.Random(prng.New(41), p.StringBits/2)
	ctx := buildFw2Majority(t, w, smp, x, short, r, true)
	if len(ctx.byKind("answer")) != 0 {
		t.Fatal("answered a malformed-length string")
	}
	if len(w.req.vouchers) != 0 || len(w.req.spill) != 0 {
		t.Fatal("malformed string accumulated vouch state")
	}
}

func TestAnswersIgnoredAfterDecision(t *testing.T) {
	p, smp, s := testSetup(t, 64)
	const me = 9
	n := newTestNode(me, s, p, smp)
	n.Init(&fakeCtx{})
	r, _ := n.pollLabel(s)
	list := smp.J.List(me, r)
	ctx := &fakeCtx{now: 3}
	for _, member := range list[:p.PollSize/2+1] {
		n.Deliver(ctx, member, MsgAnswer{S: s, R: r})
	}
	if _, ok := n.Decided(); !ok {
		t.Fatal("setup: not decided")
	}
	at := n.DecidedAt()
	// A late flood of answers for a different candidate must not flip or
	// re-time the decision.
	other := bitstring.Random(prng.New(43), p.StringBits)
	late := &fakeCtx{now: 9}
	for _, member := range list {
		n.Deliver(late, member, MsgAnswer{S: other, R: r})
		n.Deliver(late, member, MsgAnswer{S: s, R: r})
	}
	if d, _ := n.Decided(); !d.Equal(s) || n.DecidedAt() != at {
		t.Fatal("decision changed after the fact")
	}
}

func TestStatsCounters(t *testing.T) {
	p, smp, s := testSetup(t, 64)
	n := newTestNode(5, s, p, smp)
	ctx := &fakeCtx{}
	n.Init(ctx)
	st := n.Stats()
	if st.PushesSent != len(ctx.byKind("push")) {
		t.Fatalf("PushesSent = %d, sent %d", st.PushesSent, len(ctx.byKind("push")))
	}
	if st.PullsStarted != 1 || st.CandidateListSize != 1 {
		t.Fatalf("unexpected stats %+v", st)
	}
	if !n.HasCandidate(s) {
		t.Fatal("own candidate not reported by HasCandidate")
	}
}
