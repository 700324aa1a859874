package simnet

// SyncRunner executes nodes in lock-step rounds. Messages sent during round
// r are delivered during round r+1 (§2.1 "Network", synchronous case).
//
// Within a round the runner first delivers the previous round's messages to
// every node (correct nodes first, then Byzantine — delivery order inside a
// round is unobservable in the model), collecting each node's sends. If any
// registered node implements Rusher, the runner then reveals the round's
// correct-node sends to the Rushers, which may inject additional messages
// into the same round: this is exactly the rushing adversary of §2.1. With
// no Rusher present the execution is non-rushing.
type SyncRunner struct {
	nodes    []Node
	corrupt  []bool // corrupt[i] reports whether node i is Byzantine
	metrics  *Metrics
	observer Observer
	stop     func() bool
	inj      *Injector
	// rushing reports whether any node is a Rusher: only then are a round's
	// correct-node sends materialised as envelopes.
	rushing bool

	// next collects the sends in flight (due next round or, under a fault
	// plan, later); cur is the log the current round delivers from. The two
	// swap at every round boundary (roundlog.go).
	next, cur roundLog
	round     int
	ctx       *syncCtx // reused across deliveries (contexts are call-scoped)
}

// NewSync returns a runner over the given nodes. corrupt marks the
// Byzantine nodes (used to order intra-round processing for the rushing
// semantics); it may be nil when no node is Byzantine.
func NewSync(nodes []Node, corrupt []bool) *SyncRunner {
	if corrupt == nil {
		corrupt = make([]bool, len(nodes))
	}
	if len(corrupt) != len(nodes) {
		panic("simnet: corrupt mask length mismatch")
	}
	r := &SyncRunner{
		nodes:   nodes,
		corrupt: corrupt,
		metrics: newMetrics(len(nodes)),
	}
	for id, n := range nodes {
		if _, ok := n.(Rusher); ok && corrupt[id] {
			r.rushing = true
		}
	}
	return r
}

// Observe registers an observer invoked on every delivery. It must be
// called before Run.
func (r *SyncRunner) Observe(o Observer) { r.observer = o }

// StopWhen registers a cancellation probe polled at every round boundary;
// when it returns true the run abandons the remaining rounds and returns
// the metrics collected so far. It must be called before Run.
func (r *SyncRunner) StopWhen(f func() bool) { r.stop = f }

// InjectFaults installs a fault plan, judged at send time: dropped
// messages are metered as sent but never delivered, duplicated messages
// are delivered twice, and a delay of d defers delivery by d whole rounds.
// It must be called before Run.
func (r *SyncRunner) InjectFaults(plan FaultPlan) {
	r.inj = NewInjector(plan, len(r.nodes))
}

// Ticker is implemented by nodes that act on synchronous round boundaries
// (e.g. committee protocols that tally everything received in a round).
// The SyncRunner calls OnRoundEnd after all of a round's deliveries, in
// node-ID order; messages sent there are delivered next round. The
// asynchronous runners never call it — protocols relying on Ticker are
// synchronous by construction (like the KSSV06-style substrate).
type Ticker interface {
	Node
	OnRoundEnd(ctx Context, round int)
}

// syncCtx implements Context for one activation of one node.
type syncCtx struct {
	r    *SyncRunner
	from NodeID
	now  int
}

func (c *syncCtx) Now() int { return c.now }

func (c *syncCtx) Send(to NodeID, m Message) {
	r := c.r
	validateSend(len(r.nodes), to, m)
	rec := sendRec{from: int32(c.from), to: int32(to), due: int32(c.now + 1), size: int32(m.WireSize() + envelopeOverhead), msg: m}
	r.metrics.recordSend(c.from, int64(rec.size), m.Kind())
	if r.inj == nil {
		r.next.append(rec)
		return
	}
	v := r.inj.Judge(Envelope{From: c.from, To: to}, c.now)
	rec.due += int32(v.Delay)
	for i := 0; i < v.Copies; i++ {
		r.next.append(rec)
	}
}

// Run initializes every node and then executes rounds until either no
// messages remain in flight or maxRounds rounds have elapsed. It returns
// the collected metrics. Run must be called at most once.
func (r *SyncRunner) Run(maxRounds int) *Metrics {
	// Whichever way the run ends — quiescence, the round cap, StopWhen — the
	// blocks still held go back to the pool, cleared (step has already
	// released cur).
	defer r.next.release()
	r.initNodes()
	for r.round = 1; r.round <= maxRounds && r.next.n > 0; r.round++ {
		if r.stop != nil && r.stop() {
			break
		}
		r.step()
	}
	if rounds := r.round - 1; rounds > r.metrics.Rounds {
		r.metrics.Rounds = rounds
	}
	r.metrics.foldKinds()
	return r.metrics
}

// Rounds returns the number of rounds executed so far.
func (r *SyncRunner) Rounds() int { return r.round - 1 }

func (r *SyncRunner) initNodes() {
	// Correct nodes first so that rushing Byzantine nodes could in
	// principle observe initial sends too; Init for Byzantine nodes runs
	// after, giving them the standard full-information advantage.
	for id, n := range r.nodes {
		if !r.corrupt[id] {
			n.Init(&syncCtx{r: r, from: id, now: 0})
		}
	}
	correctSends := r.correctSends(0)
	for id, n := range r.nodes {
		if r.corrupt[id] {
			n.Init(&syncCtx{r: r, from: id, now: 0})
			if rusher, ok := n.(Rusher); ok {
				rusher.Rush(&syncCtx{r: r, from: id, now: 0}, 0, correctSends)
			}
		}
	}
}

// correctSends materialises what the correct nodes have sent so far this
// round — the records of next from index start on — as the envelopes a
// Rusher is shown. Populations without a Rusher never pay for it.
func (r *SyncRunner) correctSends(start int) []Envelope {
	if !r.rushing {
		return nil
	}
	sends := make([]Envelope, 0, r.next.n-start)
	for i := start; i < r.next.n; i++ {
		rec := r.next.at(i)
		sends = append(sends, Envelope{From: int(rec.from), To: int(rec.to), Msg: rec.msg, Depth: int(rec.due)})
	}
	return sends
}

// step delivers the records due this round and collects the sends of the
// current one. With a fault plan installed, delayed records (due beyond the
// current round) are carried into the new log ahead of this round's sends,
// in their original order, and stay in flight until their round comes.
func (r *SyncRunner) step() {
	r.cur, r.next = r.next, r.cur
	if r.inj != nil {
		for b := range r.cur.blocks {
			for _, rec := range r.cur.span(b) {
				if int(rec.due) > r.round {
					r.next.append(rec)
				}
			}
		}
	}
	carried := r.next.n // in-flight delayed messages are not this round's sends

	// Deliver to correct nodes first and track what they send this round.
	r.deliverTo(false)
	correctSends := r.correctSends(carried)

	// Then Byzantine nodes receive their messages and, if rushing, observe
	// the correct nodes' round traffic before sending.
	r.deliverTo(true)
	for id, n := range r.nodes {
		if !r.corrupt[id] {
			continue
		}
		if rusher, ok := n.(Rusher); ok {
			rusher.Rush(&syncCtx{r: r, from: id, now: r.round}, r.round, correctSends)
		}
	}

	// Round boundary: tick the nodes that act on round ends.
	for id, n := range r.nodes {
		if ticker, ok := n.(Ticker); ok {
			ticker.OnRoundEnd(&syncCtx{r: r, from: id, now: r.round}, r.round)
		}
	}
	// Every record of the round has been delivered or carried over: its
	// blocks are free for the sends of the round after.
	r.cur.release()
}

// deliverTo delivers, in send order, the records of cur that are due and
// addressed to the correct (byzantine = false) or the Byzantine nodes.
func (r *SyncRunner) deliverTo(byzantine bool) {
	for b := range r.cur.blocks {
		recs := r.cur.span(b)
		for i := range recs {
			rec := &recs[i]
			if r.corrupt[rec.to] == byzantine && int(rec.due) <= r.round {
				r.deliver(rec)
			}
		}
	}
}

func (r *SyncRunner) deliver(rec *sendRec) {
	to := int(rec.to)
	// Fail-silence covers receipt, not only transmission: a message
	// arriving while its destination is inside a crash window vanishes at
	// the door (in-flight sends do not survive into a crash, and delayed
	// messages cannot land on a crashed node).
	if r.inj != nil && r.inj.CrashedAt(to, r.round) {
		return
	}
	// The delivery is stamped with the actual round, not the record's due
	// round: messages injected by a Rusher were created with the same round
	// number as regular sends but all arrive in the next round.
	r.metrics.recordDeliver(to, int64(rec.size), r.round)
	if r.ctx == nil {
		r.ctx = &syncCtx{r: r}
	}
	r.ctx.from, r.ctx.now = to, r.round
	r.nodes[to].Deliver(r.ctx, int(rec.from), rec.msg)
	if r.observer != nil {
		r.observer(Envelope{From: int(rec.from), To: to, Msg: rec.msg, Depth: r.round})
	}
}
