package simnet

import (
	"math"
	"runtime"
	"sync"
)

// SyncRunner executes nodes in lock-step rounds. Messages sent during round
// r are delivered during round r+1 (§2.1 "Network", synchronous case).
//
// Within a round the runner first delivers the previous round's messages to
// every correct node, then to the Byzantine nodes, collecting each node's
// sends. If any registered node implements Rusher, the runner then reveals
// the round's correct-node sends to the Rushers, which may inject
// additional messages into the same round: this is exactly the rushing
// adversary of §2.1. With no Rusher present the execution is non-rushing.
//
// The correct nodes' deliveries of a round run on up to GOMAXPROCS
// workers, each owning a fixed block of receivers, and every receiver gets
// its messages in the same order as with one worker: the order in which
// they were sent, one delivery after the other (DESIGN.md §4.2). Byzantine
// deliveries, Rush, round ticks and StopWhen run on the calling goroutine
// between rounds. Correct nodes may share state only if it is safe for
// concurrent use and its outcome does not depend on the order in which
// different nodes' deliveries reach it.
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

	// owner[id] is the slot that delivers to node id. slots[:len-1] are the
	// workers, one per block of correct nodes; the last is the serial slot,
	// which delivers to the Byzantine nodes and sends for Init, Byzantine
	// deliveries, Rush and ticks.
	owner []int32
	slots []*slot
	// Under a fault plan, carry holds the records of the round's log that
	// are due later than it: a record's index is its position here, ahead
	// of every send of the round before. held collects the sends the fault
	// plan delays past the next round, in index order; they join carry when
	// that round ends.
	carry, held []heldRec
	inFlight    int
	round       int
}

// heldRec is a record whose delivery round the fault plan has moved.
type heldRec struct {
	rec sendRec
	due int32
}

// maxWorkers bounds the workers of one runner: each pair of slots owns a
// log with a partly filled block, so the held memory grows with the square
// of the slot count.
const maxWorkers = 16

// forcedWorkers, when positive, replaces GOMAXPROCS as the worker count of
// runners without an observer. Tests set it to run the same population on
// one and on several workers.
var forcedWorkers int

// slot is a worker, or the serial slot, with everything it writes during a
// round. Slots are allocated one by one and padded, so two workers never
// write to one cache line.
type slot struct {
	r  *SyncRunner
	id int32
	// ctx is the context of the slot's activations; ctx.from is the
	// activated node.
	ctx syncCtx
	// out[d] collects the round's sends to the receivers of slot d; prev is
	// out of the round before, which slot d is delivering from. causes and
	// prevCauses number them (roundlog.go).
	out, prev          [maxWorkers + 1]roundLog
	causes, prevCauses []cause
	seq                int32     // sends appended this round
	delayed            []heldRec // sends the fault plan delays past the next round
	delivered          int64
	kinds              kindRun
	byKind             map[string]int64
	// spare holds the blocks the slot released until the round ends: a
	// block freed in a round is not reused in it, so how many blocks a run
	// draws from the pool does not depend on how the workers interleave.
	spare    []*recBlock
	panicked any
	_        [64]byte
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
// called before Run. An observed run delivers on one worker, so the
// observer sees every delivery right after it is handled.
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
	s    *slot
	from NodeID
	now  int
}

func (c *syncCtx) Now() int { return c.now }

func (c *syncCtx) Send(to NodeID, m Message) {
	s, r := c.s, c.s.r
	validateSend(len(r.nodes), to, m)
	rec := sendRec{from: int32(c.from), to: int32(to), seq: s.seq, size: int32(m.WireSize() + envelopeOverhead), msg: m}
	pm := &r.metrics.PerNode[c.from]
	pm.SentMsgs++
	pm.SentBytes += int64(rec.size)
	s.kinds.add(s.byKind, m.Kind())
	out := &s.out[r.owner[to]]
	if r.inj == nil {
		out.append(rec)
		s.seq++
		return
	}
	v := r.inj.Judge(Envelope{From: c.from, To: to}, c.now)
	for i := 0; i < v.Copies; i++ {
		rec.seq = s.seq
		s.seq++
		if v.Delay == 0 {
			out.append(rec)
		} else {
			s.delayed = append(s.delayed, heldRec{rec: rec, due: int32(c.now + 1 + v.Delay)})
		}
	}
}

// Run initializes every node and then executes rounds until either no
// messages remain in flight or maxRounds rounds have elapsed. It returns
// the collected metrics. Run must be called at most once.
func (r *SyncRunner) Run(maxRounds int) *Metrics {
	r.assign()
	// Whichever way the run ends — quiescence, the round cap, StopWhen — the
	// blocks still held go back to the pool, cleared.
	defer r.release()
	r.initNodes()
	for r.round = 1; r.round <= maxRounds && r.inFlight > 0; r.round++ {
		if r.stop != nil && r.stop() {
			break
		}
		r.step()
	}
	r.metrics.Rounds = r.round - 1
	for _, s := range r.slots {
		r.metrics.Delivered += s.delivered
		s.kinds.fold(s.byKind)
		for kind, c := range s.byKind {
			r.metrics.ByKind[kind] += c
		}
	}
	return r.metrics
}

// Rounds returns the number of rounds executed so far.
func (r *SyncRunner) Rounds() int { return r.round - 1 }

// assign splits the correct nodes into contiguous blocks of equal size, one
// per worker, and gives the Byzantine nodes to the serial slot.
func (r *SyncRunner) assign() {
	correct := 0
	for _, c := range r.corrupt {
		if !c {
			correct++
		}
	}
	w := 1
	if r.observer == nil {
		w = runtime.GOMAXPROCS(0)
		if forcedWorkers > 0 {
			w = forcedWorkers
		}
		w = max(1, min(w, correct, maxWorkers))
	}
	r.slots = make([]*slot, w+1)
	for i := range r.slots {
		s := &slot{r: r, id: int32(i), byKind: make(map[string]int64)}
		s.ctx.s = s
		r.slots[i] = s
	}
	r.owner = make([]int32, len(r.nodes))
	k := 0
	for id, c := range r.corrupt {
		if c {
			r.owner[id] = int32(w)
			continue
		}
		r.owner[id] = int32(k * w / correct)
		k++
	}
}

func (r *SyncRunner) serial() *slot { return r.slots[len(r.slots)-1] }

func (r *SyncRunner) initNodes() {
	// Correct nodes first so that rushing Byzantine nodes could in
	// principle observe initial sends too; Init for Byzantine nodes runs
	// after, giving them the standard full-information advantage.
	s := r.serial()
	for id, n := range r.nodes {
		if !r.corrupt[id] {
			s.ctx.from = id
			n.Init(&s.ctx)
		}
	}
	var correctSends []Envelope
	if r.rushing {
		r.numberSerial(0)
		correctSends = r.envelopes(r.slots[len(r.slots)-1:], 0, int(s.seq))
	}
	for id, n := range r.nodes {
		if r.corrupt[id] {
			s.ctx.from = id
			n.Init(&s.ctx)
			if rusher, ok := n.(Rusher); ok {
				rusher.Rush(&s.ctx, 0, correctSends)
			}
		}
	}
	r.numberSerial(0)
	r.seal(nil)
}

// step runs one round: the workers deliver to the correct nodes, the serial
// slot delivers to the Byzantine ones, the Rushers see the correct nodes'
// sends, and the Tickers tick.
func (r *SyncRunner) step() {
	r.deliverCorrect()

	// The round's log after it: the carried records still not due, then
	// this round's sends, numbered in the order the serial runner sent them.
	var carry []heldRec
	if r.inj != nil {
		for _, h := range r.carry {
			if int(h.due) > r.round {
				carry = append(carry, h)
			}
		}
		carry = append(carry, r.held...)
		clear(r.held)
		r.held = r.held[:0]
	}
	correct := r.number(int32(len(carry)))
	var correctSends []Envelope
	if r.rushing {
		correctSends = r.envelopes(r.slots[:len(r.slots)-1], len(carry), int(correct))
	}

	s := r.serial()
	s.ctx.now = r.round
	s.deliverRound()
	for id, n := range r.nodes {
		if !r.corrupt[id] {
			continue
		}
		if rusher, ok := n.(Rusher); ok {
			s.ctx.from = id
			rusher.Rush(&s.ctx, r.round, correctSends)
		}
	}

	// Round boundary: tick the nodes that act on round ends.
	for id, n := range r.nodes {
		if ticker, ok := n.(Ticker); ok {
			s.ctx.from = id
			ticker.OnRoundEnd(&s.ctx, r.round)
		}
	}
	r.numberSerial(int32(len(carry)) + correct)
	r.seal(carry)
}

// deliverCorrect runs every worker's deliveries of the round, each on a
// goroutine of its own unless there is only one, and waits for all of them.
// A worker's panic is raised again here.
func (r *SyncRunner) deliverCorrect() {
	workers := r.slots[:len(r.slots)-1]
	for _, s := range workers {
		s.ctx.now = r.round
	}
	if len(workers) == 1 {
		workers[0].deliverRound()
		return
	}
	var wg sync.WaitGroup
	for _, s := range workers {
		wg.Add(1)
		go func(s *slot) {
			defer wg.Done()
			defer func() { s.panicked = recover() }()
			s.deliverRound()
		}(s)
	}
	wg.Wait()
	for _, s := range workers {
		if p := s.panicked; p != nil {
			panic(p)
		}
	}
}

// deliverRound delivers what is due this round to the slot's receivers, in
// the order the serial runner would: the carried records first, in carry
// order, then the round's records, merged from the logs of every sending
// slot by their index. The logs it read are released.
func (s *slot) deliverRound() {
	r := s.r
	for i := range r.carry {
		if h := &r.carry[i]; int(h.due) <= r.round && r.owner[h.rec.to] == s.id {
			s.deliver(&h.rec, int32(i))
		}
	}
	var srcs [maxWorkers + 1]source
	k := 0
	for _, from := range r.slots {
		if l := &from.prev[s.id]; l.n > 0 {
			srcs[k].start(l, from.prevCauses)
			k++
		}
	}
	for k > 0 {
		// Deliver from the source whose next record comes first, up to
		// where another source's next record comes.
		b := 0
		for i := 1; i < k; i++ {
			if srcs[i].idx < srcs[b].idx {
				b = i
			}
		}
		limit := int32(math.MaxInt32)
		for i := 0; i < k; i++ {
			if i != b && srcs[i].idx < limit {
				limit = srcs[i].idx
			}
		}
		if !srcs[b].deliverUntil(s, limit) {
			k--
			srcs[b] = srcs[k]
		}
	}
	for _, from := range r.slots {
		from.prev[s.id].release(&s.spare)
	}
}

// deliver hands one record to its receiver. idx, the record's index in the
// round, becomes the key of the delivery's cause if it sends anything.
func (s *slot) deliver(rec *sendRec, idx int32) {
	r := s.r
	to := int(rec.to)
	// Fail-silence covers receipt, not only transmission: a message
	// arriving while its destination is inside a crash window vanishes at
	// the door (in-flight sends do not survive into a crash, and delayed
	// messages cannot land on a crashed node).
	if r.inj != nil && r.inj.CrashedAt(to, r.round) {
		return
	}
	pm := &r.metrics.PerNode[to]
	pm.RecvMsgs++
	pm.RecvBytes += int64(rec.size)
	s.delivered++
	s.ctx.from = to
	first := s.seq
	r.nodes[to].Deliver(&s.ctx, int(rec.from), rec.msg)
	if s.seq != first {
		s.causes = append(s.causes, cause{first: first, key: idx})
	}
	if r.observer != nil {
		r.observer(Envelope{From: int(rec.from), To: to, Msg: rec.msg, Depth: r.round})
	}
}

// number orders the causes of the workers' deliveries by their index — the
// order the serial runner made those deliveries in — and gives each the
// offset that turns its records' seq into their index in the next round,
// counting from base. The workers' delayed sends join held in that order.
// It returns the number of records the workers sent.
func (r *SyncRunner) number(base int32) int32 {
	workers := r.slots[:len(r.slots)-1]
	var next, nextHeld [maxWorkers]int
	start := base
	for {
		var s *slot
		w := 0
		for i, t := range workers {
			if next[i] < len(t.causes) && (s == nil || t.causes[next[i]].key < s.causes[next[w]].key) {
				s, w = t, i
			}
		}
		if s == nil {
			return base - start
		}
		c := &s.causes[next[w]]
		next[w]++
		end := s.seq
		if next[w] < len(s.causes) {
			end = s.causes[next[w]].first
		}
		c.key = base - c.first
		base += end - c.first
		for ; nextHeld[w] < len(s.delayed) && s.delayed[nextHeld[w]].rec.seq < end; nextHeld[w]++ {
			r.held = append(r.held, s.delayed[nextHeld[w]])
		}
	}
}

// numberSerial numbers the serial slot's sends, which come after every
// other record of the next round's log, in the order it made them: the
// first has index base.
func (r *SyncRunner) numberSerial(base int32) {
	s := r.serial()
	s.causes = append(s.causes[:0], cause{first: 0, key: base})
}

// envelopes returns the round's sends of the given slots as the envelopes a
// Rusher is shown, in send order: count records whose indices start at
// base. The slots must have been numbered.
func (r *SyncRunner) envelopes(slots []*slot, base, count int) []Envelope {
	sends := make([]Envelope, count)
	put := func(rec *sendRec, idx int32, due int) {
		sends[int(idx)-base] = Envelope{From: int(rec.from), To: int(rec.to), Msg: rec.msg, Depth: due}
	}
	for _, s := range slots {
		for d := range s.out {
			l := &s.out[d]
			num := numbering{causes: s.causes}
			for b := range l.blocks {
				recs := l.span(b)
				for i := range recs {
					put(&recs[i], num.index(recs[i].seq), r.round+1)
				}
			}
		}
		num := numbering{causes: s.causes}
		for i := range s.delayed {
			h := &s.delayed[i]
			put(&h.rec, num.index(h.rec.seq), int(h.due))
		}
	}
	return sends
}

// seal ends a round: carry becomes the carried part of the next round's
// log, every slot's sends become what the next round delivers from, and the
// released blocks go back to the pool.
func (r *SyncRunner) seal(carry []heldRec) {
	r.held = append(r.held, r.serial().delayed...)
	r.carry = carry
	r.inFlight = len(carry)
	for _, s := range r.slots {
		r.inFlight += int(s.seq)
		s.out, s.prev = s.prev, s.out
		s.causes, s.prevCauses = s.prevCauses[:0], s.causes
		s.seq = 0
		clear(s.delayed)
		s.delayed = s.delayed[:0]
		for i, blk := range s.spare {
			blockPool.Put(blk)
			s.spare[i] = nil
		}
		s.spare = s.spare[:0]
	}
}

// release hands every block the run still holds back to the pool.
func (r *SyncRunner) release() {
	for _, s := range r.slots {
		for d := range s.out {
			s.out[d].release(&s.spare)
			s.prev[d].release(&s.spare)
		}
		for _, blk := range s.spare {
			blockPool.Put(blk)
		}
		s.spare = nil
	}
}
