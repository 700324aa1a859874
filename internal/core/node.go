package core

import (
	"sync/atomic"

	"github.com/fastba/fastba/internal/bitstring"
	"github.com/fastba/fastba/internal/intern"
	"github.com/fastba/fastba/internal/prng"
	"github.com/fastba/fastba/internal/simnet"
)

// Node is a correct AER participant. It implements simnet.Node and is
// runtime-agnostic: the same code executes under the synchronous,
// asynchronous and goroutine runners (each runner activates a node
// sequentially, so Node needs no internal locking).
//
// The implementation follows Algorithms 1–3 with documented clarifications
// (see DESIGN.md "Faithfulness notes"), among them: the log² n answer
// budget is enforced uniformly in tryAnswer for both the Fw2 and the
// late-Poll answer paths, and an Fw1 names x's request, not its poll-list
// members: the recipient derives the w's it serves.
//
// All per-string state is keyed by dense interned IDs rather than string
// map keys: each node owns an intern.Table mapping every candidate string
// it has seen to a small integer, and per-string counters live in an
// ID-indexed slice. Everything Algorithms 2 and 3 keep per request
// (x, s[, r]) lives in the requester table, indexed by x. This keeps the
// delivery hot path free of hashing and maps (DESIGN.md §4).
//
// Every "is y ∈ I(s, x) / H(s, x) / J(x, r)?" a handler asks is answered
// from a derived row (memo.go) — the node's own for I(s, this) and the
// inverse of H, the shared samplers' for H(s, x) and J(x, r) — never by
// walking the samplers' permutations per delivery.
type Node struct {
	id     int
	params Params
	smp    *Samplers
	rng    *prng.Source

	// sthis is the string this node currently believes to be gstring
	// (Algorithms 2/3 "the current node believes gstring to be sthis").
	// It starts as the initial candidate and is overwritten on decision.
	// sthisID is its interned ID (interned in NewNode, updated on decide).
	sthis   bitstring.String
	sthisID intern.ID
	initial bitstring.String
	// other is the last string other than s_this that lookup found
	// interned, as otherID (intern.None when there is none): a node that
	// does not believe gstring gets it in every Fw2 and Poll.
	other   bitstring.String
	otherID intern.ID

	hasDecided bool
	decided    bitstring.String
	decidedAt  int // ctx.Now() at decision time (round or causal depth)
	// pub atomically publishes the decision for cross-goroutine readers:
	// the concurrent runtimes (TCP, goroutines) poll Decided() from other
	// goroutines while this node's delivery loop is still mutating state.
	pub atomic.Pointer[decision]

	// strs interns every string this node tracks state for; states is the
	// parallel ID-indexed per-string state and candidates flags the IDs on
	// the candidate list L_x (§3.1.1).
	strs       intern.Table
	states     []strState
	candidates bitstring.Bitset

	// Algorithms 2 and 3 state per request: forwarded Pulls, Fw1 and Fw2
	// vouchers and majorities, the Polled set and sent answers
	// (reqtable.go).
	req reqTable

	// The answer budget and the deferred answers flushed on decision
	// ("Wait for has_decided"). beliefDeferred holds requests whose Fw2
	// majority and Poll arrived while s differed from s_this; they are
	// answered if this node later decides s (§3.1.2 reply condition 2: "one
	// of its pull requests was answered ... and s_w was changed
	// accordingly").
	answerCount    int
	deferred       []deferredAnswer
	beliefDeferred []deferredAnswer
	// relayDeferred holds pulls declined by the s = s_y filter, replayed on
	// decision when Params.DeferredRelay is enabled.
	relayDeferred []deferredPull

	// memo is the node's access to the sampler rows (memo.go).
	memo samplerMemo

	// fanSeen is forwardPull's scratch, empty between fan-outs: the z's a
	// fan-out has reached.
	fanSeen bitstring.Bitset

	// Statistics surfaced to the experiment harness.
	stats Stats
}

// strState is the per-interned-string protocol state, indexed by intern ID.
type strState struct {
	// Push state (§3.1.1): the quorum members that pushed this string.
	pushRecv bitstring.Set
	// The node's own sampler rows of this string (memo.go; an empty row is
	// one not derived yet): the Push Quorum I(s, this), and the requesters
	// this node proxies for, {x : this ∈ H(s, x)}.
	pushQuorum bitstring.Bitset
	proxied    bitstring.Bitset
	// Algorithm 1 state: the label r_{x,s} of the poll this node issued for
	// the string and the distinct answerers.
	hasLabel bool
	label    uint64
	answers  bitstring.Set
}

type deferredAnswer struct {
	x int
	s intern.ID
	r uint64
}

type deferredPull struct {
	x int
	s bitstring.String
	r uint64
}

// Stats exposes per-node protocol counters for the experiment harness.
type Stats struct {
	// CandidateListSize is |L_x| at the end of the run (Lemma 4).
	CandidateListSize int
	// PullsStarted counts Algorithm 1 invocations.
	PullsStarted int
	// PushesSent counts push-phase messages sent (Lemma 3).
	PushesSent int
	// AnswersSent counts Answer messages sent (budget consumption).
	AnswersSent int
	// AnswersDeferred counts answers deferred past the budget (Lemma 6
	// overload events).
	AnswersDeferred int
	// Fw1Tuples counts the paper's Fw1(x, s, r, w) messages that this node's
	// Fw1 fan-outs stand for: each recipient z derives the tuples (x, w) with
	// w ∈ J(x, r) and z ∈ H(s, w), and this is their sum over recipients.
	Fw1Tuples int
}

// HasCandidate reports whether s ∈ L_x — the Lemma 5 push-phase coverage
// probe.
func (n *Node) HasCandidate(s bitstring.String) bool {
	sid := n.strs.Lookup(s)
	return sid != intern.None && n.candidates.Get(int(sid))
}

// NewNode constructs a correct AER node. initial is the node's candidate
// s_x (possibly the zero String for a node with no candidate); rng is the
// node's private random source (§2.1).
func NewNode(id int, initial bitstring.String, params Params, smp *Samplers, rng *prng.Source) *Node {
	n := &Node{
		id:      id,
		params:  params,
		smp:     smp,
		rng:     rng,
		sthis:   initial,
		initial: initial,
		req:     reqTable{index: make([]int32, params.N), stride: params.QuorumSize/2 + 1},
	}
	// s_this always has a valid interned ID, even for the zero string, so
	// the Algorithm 2 fast path can key state by it unconditionally.
	n.sthisID = n.strs.ID(initial)
	n.otherID = intern.None
	return n
}

// Reset rewinds the node to a freshly constructed state for a new agreement
// instance, keeping every allocation it can: the requester table, the
// intern table and per-string state slice keep their storage, and the
// quorum-member sets inside recycled strState entries keep their capacity.
// The node's identity and protocol geometry are unchanged; initial, smp
// and rng take the role of NewNode's arguments — a reopened instance
// passes attempt-salted samplers so a retry re-rolls the quorum geometry,
// not just the poll labels. The decision-log pipeline calls this between
// instances so a long log reuses one set of nodes instead of reallocating
// per-instance protocol state (see BenchmarkLogInstanceReuse).
func (n *Node) Reset(initial bitstring.String, smp *Samplers, rng *prng.Source) {
	n.smp = smp
	n.rng = rng
	n.sthis = initial
	n.initial = initial
	n.hasDecided = false
	n.decided = bitstring.String{}
	n.decidedAt = 0
	n.pub.Store(nil)

	n.strs.Reset()
	// Keep the state slice's length: intern IDs restart from 0, so recycled
	// entries are re-addressed by the new instance's strings; each entry is
	// scrubbed in place to keep its sets' capacity.
	for i := range n.states {
		st := &n.states[i]
		st.pushRecv.Reset()
		st.pushQuorum.Reset()
		st.proxied.Reset()
		st.hasLabel = false
		st.label = 0
		st.answers.Reset()
	}
	n.candidates.Reset()
	n.memo.pull = nil

	n.req.reset()
	n.answerCount = 0
	n.deferred = n.deferred[:0]
	n.beliefDeferred = n.beliefDeferred[:0]
	n.relayDeferred = n.relayDeferred[:0]
	n.stats = Stats{}

	n.sthisID = n.strs.ID(initial)
	n.other, n.otherID = bitstring.String{}, intern.None
}

// state returns the per-string state for an interned ID, growing the
// ID-indexed slice on demand. Growth may reallocate the slice, so callers
// must not hold the returned pointer across any later state() call.
func (n *Node) state(sid intern.ID) *strState {
	for int(sid) >= len(n.states) {
		n.states = append(n.states, strState{})
	}
	return &n.states[sid]
}

// pollLabel returns the label of the poll this node issued for s, if any
// (white-box test hook).
func (n *Node) pollLabel(s bitstring.String) (uint64, bool) {
	sid := n.strs.Lookup(s)
	if sid == intern.None || int(sid) >= len(n.states) || !n.states[sid].hasLabel {
		return 0, false
	}
	return n.states[sid].label, true
}

// ID returns the node identifier.
func (n *Node) ID() int { return n.id }

// Decided returns the decision, if any.
func (n *Node) Decided() (bitstring.String, bool) {
	if d := n.pub.Load(); d != nil {
		return d.s, true
	}
	return bitstring.String{}, false
}

// decision is the immutable published outcome behind Decided/DecidedAt.
type decision struct {
	s  bitstring.String
	at int
}

// DecidedAt returns the time (sync round or async causal depth) at which
// the node decided, or -1.
func (n *Node) DecidedAt() int {
	if d := n.pub.Load(); d != nil {
		return d.at
	}
	return -1
}

// Believes returns the node's current belief s_this.
func (n *Node) Believes() bitstring.String { return n.sthis }

// DecisionCert re-derives the quorum certificate behind this node's
// decision for the protocol-invariant oracles: support is the number of
// recorded answerers for the decided string that the authoritative poll
// list J(this, r) actually contains (re-validated against the shared
// sampler, independently of the delivery-path checks), and need is the
// strict-majority threshold the decision required. ok reports whether the
// node decided at all. A decided node with support < need holds a decision
// no valid certificate backs — a protocol-state inconsistency no
// fault schedule can excuse. Call after the run completes.
func (n *Node) DecisionCert() (support, need int, ok bool) {
	if !n.hasDecided {
		return 0, 0, false
	}
	need = n.params.PollSize/2 + 1
	sid := n.strs.Lookup(n.decided)
	if sid == intern.None || int(sid) >= len(n.states) {
		return 0, need, true
	}
	st := &n.states[sid]
	if !st.hasLabel {
		return 0, need, true
	}
	st.answers.ForEach(func(from int) {
		if n.smp.J.Contains(n.id, st.label, from) {
			support++
		}
	})
	return support, need, true
}

// Stats returns the protocol counters (valid after the run completes).
func (n *Node) Stats() Stats {
	s := n.stats
	s.CandidateListSize = n.candidates.Count()
	return s
}

// Init implements simnet.Node: the push phase plus the pull for the node's
// own initial candidate.
func (n *Node) Init(ctx simnet.Context) {
	if n.initial.IsZero() {
		return
	}
	// Push s_x to the nodes x with this ∈ I(s_x, x) — exactly the
	// O(log n) inverse-quorum members (Lemma 3). The message is boxed once
	// for the whole fan-out.
	var push simnet.Message = MsgPush{S: n.initial}
	for _, target := range distinct(n.smp.I.Inverse(n.initial, n.id)) {
		ctx.Send(target, push)
		n.stats.PushesSent++
	}
	// The candidate list originally contains only s_x (§3.1.1, Figure 2a).
	n.candidates.Set(int(n.sthisID))
	n.startPull(ctx, n.sthisID, n.initial)
}

// Deliver implements simnet.Node.
func (n *Node) Deliver(ctx simnet.Context, from simnet.NodeID, m simnet.Message) {
	switch msg := m.(type) {
	case MsgPush:
		n.onPush(ctx, from, msg)
	case MsgPull:
		n.onPull(ctx, from, msg)
	case MsgFw1:
		n.onFw1(ctx, from, msg)
	case MsgFw2:
		n.onFw2(ctx, from, msg)
	case MsgPoll:
		n.onPoll(ctx, from, msg)
	case MsgAnswer:
		n.onAnswer(ctx, from, msg)
	}
}

// onPush adds s to the candidate list once a strict majority of the Push
// Quorum I(s, this) has pushed it (§3.1.1). Pushes from nodes outside the
// quorum are ignored — the filter that makes the phase impervious to
// flooding.
func (n *Node) onPush(ctx simnet.Context, from int, m MsgPush) {
	if m.S.IsZero() || m.S.Len() != n.params.StringBits {
		return // malformed candidate; only the adversary sends these
	}
	sid := n.lookup(m.S)
	quorum := n.pushQuorum(sid, m.S)
	if !quorum.Get(from) {
		return
	}
	quorumSize := quorum.Count()
	if sid == intern.None {
		sid = n.strs.ID(m.S) // the first authentic push earns the string its state
	}
	if n.candidates.Get(int(sid)) {
		return
	}
	st := n.state(sid)
	if !st.pushRecv.Add(from) {
		return // duplicate pusher: the count did not change
	}
	if 2*st.pushRecv.Len() > quorumSize {
		n.candidates.Set(int(sid))
		st.pushRecv = bitstring.Set{} // accepted: release the pusher set
		n.startPull(ctx, sid, m.S)
	}
}

// startPull is Algorithm 1 for a single candidate: draw r_{x,s}, poll
// J(x, r) and route the request through H(s, x).
func (n *Node) startPull(ctx simnet.Context, sid intern.ID, s bitstring.String) {
	if n.hasDecided {
		return
	}
	st := n.state(sid)
	if st.hasLabel {
		return
	}
	r := n.rng.Uint64() % n.params.Labels
	st.hasLabel = true
	st.label = r
	n.stats.PullsStarted++
	var poll simnet.Message = MsgPoll{S: s, R: r}
	for _, w := range n.smp.J.Row(n.id, r).Order {
		ctx.Send(int(w), poll)
	}
	var pull simnet.Message = MsgPull{S: s, R: r}
	for _, y := range n.pullRow(sid, s, n.id).Order {
		ctx.Send(int(y), pull)
	}
}

// onPull is the first handler of Algorithm 2: y ∈ H(s, x) forwards x's
// request towards the Pull Quorums of the poll list J(x, r) iff s is y's
// own believed string. Each (x, s) is forwarded at most once ("keep track
// of senders to prevent flooding"), which caps what a Byzantine x can
// trigger (Lemma 6: "the adversary can send pull requests at most once for
// each node it controls").
func (n *Node) onPull(ctx simnet.Context, from int, m MsgPull) {
	if !n.proxied(n.lookup(m.S), m.S).Get(from) {
		return // this ∉ H(s, x): not our request to proxy
	}
	if !m.S.Equal(n.sthis) {
		if n.params.DeferredRelay && !n.hasDecided && m.S.Len() == n.params.StringBits {
			n.relayDeferred = append(n.relayDeferred, deferredPull{x: from, s: m.S, r: m.R})
		}
		return
	}
	n.forwardPull(ctx, from, n.sthisID, m.S, m.R)
}

// forwardPull fans x's authenticated request out to the pull quorums of its
// poll list, once per (x, s). Algorithm 2 sends Fw1(x, s, r, w) to every
// z ∈ H(s, w) for every w ∈ J(x, r): d² tuples over at most min(n, d²)
// distinct z. A recipient can derive its w's from (x, s, r) alone, so each
// z gets one message naming the request, in first-seen order, and every z
// shares the one boxed message. sid is the belief's: the forwarded flags
// belong to it.
func (n *Node) forwardPull(ctx simnet.Context, x int, sid intern.ID, s bitstring.String, r uint64) {
	rec := n.req.get(x)
	if rec.forwarded {
		return
	}
	rec.forwarded = true
	var fw1 simnet.Message = MsgFw1{X: x, S: s, R: r}
	for _, w := range n.smp.J.Row(x, r).Order {
		zs := n.pullRow(sid, s, int(w)).Order
		for _, z := range zs {
			if n.fanSeen.Set(int(z)) {
				ctx.Send(int(z), fw1)
			}
		}
		n.stats.Fw1Tuples += len(zs)
	}
	n.fanSeen.Reset()
}

// onFw1 is the second handler of Algorithm 2: z ∈ H(s, w) sends Fw2 to w
// once a strict majority of H(s, x) has vouched for x's request. Every w
// the node serves in J(x, r) has the same vouchers, so they are counted once
// per (x, s, r), and the message that completes the majority forwards to
// each of those w's, in J(x, r) order, that no earlier label of x has
// forwarded to.
func (n *Node) onFw1(ctx simnet.Context, from int, m MsgFw1) {
	if !m.S.Equal(n.sthis) {
		return
	}
	sid := n.sthisID
	vouchers := n.pullQuorum(sid, m.S, m.X)
	if !vouchers.Get(from) { // y ∈ H(s, x)
		return
	}
	t := &n.req
	rec := t.get(m.X)
	req, done, e := t.fw1(rec, sid, m.R)
	if *done || !t.vouch(req, from) {
		return // forwarded already, or a duplicate voucher
	}
	if 2*int(req.n) <= vouchers.Count() {
		return
	}
	served := n.proxied(sid, m.S) // {w : this ∈ H(s, w)}
	var fw2 simnet.Message = MsgFw2{X: m.X, S: m.S, R: m.R}
	for _, w := range n.smp.J.Row(m.X, m.R).Order {
		if served.Get(int(w)) && !n.forwarded(rec, int(w)) {
			ctx.Send(int(w), fw2)
		}
	}
	t.complete(rec, done, e)
}

// forwarded reports whether the Fw2 for (x, s, w) has been sent, x being
// rec's requester and s the belief: whether a label of x reached its
// majority with w on its poll list.
func (n *Node) forwarded(rec *requester, w int) bool {
	x := int(rec.x)
	if rec.fw1Done && n.pollList(x, rec.fw1.r).Get(w) {
		return true
	}
	for c := rec.last; c != 0; c = n.req.spill[c-1].prev {
		if n.pollList(x, n.req.spill[c-1].req.r).Get(w) {
			return true
		}
	}
	return false
}

// onFw2 is the first handler of Algorithm 3: once a strict majority of
// H(s, this) has forwarded x's request and x has polled us, answer —
// subject to the overload budget and the reply conditions of §3.1.2.
//
// Vouches are counted for any string of valid length: the quorum majority
// in H(s, this) is what authenticates the request. Whether this node may
// *reply* is decided in maybeAnswer (reply conditions 2/3 of §3.1.2).
func (n *Node) onFw2(ctx simnet.Context, from int, m MsgFw2) {
	if m.S.Len() != n.params.StringBits {
		return
	}
	if !n.pollList(m.X, m.R).Get(n.id) { // this ∈ J(x, r)
		return
	}
	sid := n.lookup(m.S)
	vouchers := n.pullQuorum(sid, m.S, n.id)
	if !vouchers.Get(from) { // z ∈ H(s, this)
		return
	}
	quorumSize := vouchers.Count()
	if sid == intern.None {
		sid = n.strs.ID(m.S) // the first authentic Fw2 earns the string its state
	}
	rec := n.req.get(m.X)
	req, done := n.req.fw2(rec, sid, m.R)
	if *done || !n.req.vouch(req, from) {
		return // answered already, or a duplicate voucher
	}
	if 2*int(req.n) <= quorumSize {
		return
	}
	*done = true
	if n.req.polled(rec, sid) {
		n.maybeAnswer(ctx, m.X, sid, m.R)
	}
}

// lookup returns the interned id of s, or intern.None. The belief and the
// last other string found are compared, not hashed: an honest message names
// its sender's belief or candidate, which is gstring nearly everywhere.
func (n *Node) lookup(s bitstring.String) intern.ID {
	switch {
	case s.Equal(n.sthis):
		return n.sthisID
	case n.otherID != intern.None && s.Equal(n.other):
		return n.otherID
	}
	sid := n.strs.Lookup(s)
	if sid != intern.None {
		n.other, n.otherID = s, sid
	}
	return sid
}

// onPoll is the second handler of Algorithm 3: record (x, s) in the Polled
// set; if the Fw2 majority was already reached (the asynchronous case where
// the Poll overtakes the routed request) answer immediately.
func (n *Node) onPoll(ctx simnet.Context, from int, m MsgPoll) {
	if !n.pollList(from, m.R).Get(n.id) {
		return
	}
	sid := n.lookup(m.S)
	if sid == intern.None {
		sid = n.strs.ID(m.S)
	}
	rec := n.req.get(from)
	polled, _ := n.req.flags(rec, sid, m.R)
	*polled = true
	if n.req.majority(rec, sid, m.R) {
		n.maybeAnswer(ctx, from, sid, m.R)
	}
}

// maybeAnswer applies the reply conditions of §3.1.2: a node holding s
// (knowledgeable, or decided — condition 2) answers subject to the budget
// (condition 3); a node that does not hold s keeps the authenticated
// request pending and answers it if a future decision changes s_this to s.
func (n *Node) maybeAnswer(ctx simnet.Context, x int, sid intern.ID, r uint64) {
	if sid == n.sthisID {
		n.tryAnswer(ctx, x, sid, r)
		return
	}
	n.beliefDeferred = append(n.beliefDeferred, deferredAnswer{x: x, s: sid, r: r})
}

// tryAnswer sends Answer(s) to x unless the answer budget is exhausted, in
// which case the answer is deferred until this node decides (Algorithm 3:
// "Wait for has_decided"). Each (x, s) is answered at most once.
func (n *Node) tryAnswer(ctx simnet.Context, x int, sid intern.ID, r uint64) {
	_, answered := n.req.flags(n.req.get(x), sid, r)
	if *answered {
		return
	}
	if n.params.AnswerBudget > 0 && n.answerCount >= n.params.AnswerBudget && !n.hasDecided {
		n.stats.AnswersDeferred++
		n.deferred = append(n.deferred, deferredAnswer{x: x, s: sid, r: r})
		return
	}
	*answered = true
	n.answerCount++
	n.stats.AnswersSent++
	ctx.Send(x, MsgAnswer{S: n.strs.String(sid), R: r})
}

// onAnswer counts answers from distinct poll-list members and decides on s
// upon a strict majority (end of Algorithm 1).
func (n *Node) onAnswer(ctx simnet.Context, from int, m MsgAnswer) {
	if n.hasDecided {
		return
	}
	sid := n.lookup(m.S)
	if sid == intern.None {
		return // not a poll we issued
	}
	st := n.state(sid)
	if !st.hasLabel || st.label != m.R {
		return // not a poll we issued
	}
	if !n.pollList(n.id, st.label).Get(from) {
		return // answerer is not on the authoritative poll list
	}
	if !st.answers.Add(from) {
		return // "w hasn't sent another Answer(s) message yet"
	}
	need := n.params.PollSize/2 + 1
	if n.params.DecideThreshold > 0 {
		need = n.params.DecideThreshold // oracle-validation mutation
	}
	if st.answers.Len() >= need {
		n.decide(ctx, sid)
	}
}

// decide fixes the output, updates s_this (Algorithm 3 condition 2: "sw
// was changed accordingly") and flushes both kinds of deferred answers:
// those held back by the budget and those awaiting this belief change.
func (n *Node) decide(ctx simnet.Context, sid intern.ID) {
	s := n.strs.String(sid)
	n.hasDecided = true
	n.decided = s
	n.decidedAt = ctx.Now()
	n.pub.Store(&decision{s: s, at: n.decidedAt})
	if sid != n.sthisID {
		n.req.newBelief()
	}
	n.sthis = s
	n.sthisID = sid
	flushBudget := n.deferred
	n.deferred = nil
	for _, d := range flushBudget {
		n.tryAnswer(ctx, d.x, d.s, d.r)
	}
	flushBelief := n.beliefDeferred
	n.beliefDeferred = nil
	for _, d := range flushBelief {
		if d.s == sid {
			n.tryAnswer(ctx, d.x, d.s, d.r)
		}
	}
	flushRelay := n.relayDeferred
	n.relayDeferred = nil
	for _, d := range flushRelay {
		if d.s.Equal(s) {
			n.forwardPull(ctx, d.x, sid, s, d.r)
		}
	}
}

// distinct returns the distinct elements of ids, preserving first-seen
// order. Quorums built from unions of permutations may contain the same
// node under two indices; thresholds and sends use the distinct view.
// The input slice is reused (deduplicated in place): callers pass freshly
// sampled quorums. Quorum sizes are O(log n), so the quadratic scan beats
// a map both on allocation and on time.
func distinct(ids []int) []int {
	out := ids[:0]
	for _, id := range ids {
		dup := false
		for _, seen := range out {
			if seen == id {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, id)
		}
	}
	return out
}
