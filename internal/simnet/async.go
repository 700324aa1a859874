package simnet

import (
	"container/heap"

	"github.com/fastba/fastba/internal/prng"
)

// Scheduler decides the delivery order of in-flight messages in an
// asynchronous execution. The runner guarantees eventual delivery by
// construction: every queued envelope is eventually popped because
// executions are finite; adversarial schedulers additionally enforce an age
// bound so no message is starved behind an unbounded stream.
type Scheduler interface {
	// Push enqueues an envelope.
	Push(e Envelope)
	// Pop removes and returns the next envelope to deliver. It must only
	// be called when Len() > 0.
	Pop() Envelope
	// Len returns the number of queued envelopes.
	Len() int
}

// AsyncRunner executes nodes under asynchrony: the scheduler picks any
// in-flight message to deliver next. Time is the causal depth described in
// the package comment; Metrics.Rounds reports the maximum depth, i.e. the
// longest chain of dependent messages in the execution.
type AsyncRunner struct {
	nodes    []Node
	sched    Scheduler
	metrics  *Metrics
	observer Observer
	stop     func() bool
	inj      *Injector
	delayed  *delayedScheduler
	seq      uint64
	// MaxDeliveries guards against runaway executions (0 = no limit).
	MaxDeliveries int64
}

// stopCheckInterval is how many deliveries pass between cancellation
// probes: frequent enough to abandon large runs promptly, rare enough to
// keep the probe off the per-delivery hot path.
const stopCheckInterval = 256

// NewAsync returns an asynchronous runner using the given scheduler.
func NewAsync(nodes []Node, sched Scheduler) *AsyncRunner {
	return &AsyncRunner{nodes: nodes, sched: sched, metrics: newMetrics(len(nodes))}
}

// Observe registers an observer invoked on every delivery. It must be
// called before Run.
func (r *AsyncRunner) Observe(o Observer) { r.observer = o }

// StopWhen registers a cancellation probe polled every stopCheckInterval
// deliveries; when it returns true the run abandons the remaining queue
// and returns the metrics collected so far. It must be called before Run.
func (r *AsyncRunner) StopWhen(f func() bool) { r.stop = f }

// InjectFaults installs a fault plan, judged at send time: dropped
// messages are metered as sent but never enqueued, duplicates are enqueued
// twice, and a delay of d both inflates the message's causal depth by d
// and holds it back past the next d deliveries — so later sends can
// overtake it under any Scheduler. It must be called before Run.
func (r *AsyncRunner) InjectFaults(plan FaultPlan) {
	r.inj = NewInjector(plan, len(r.nodes))
	if plan.DelayProb > 0 || plan.linkDelays() {
		r.delayed = &delayedScheduler{inner: r.sched}
		r.sched = r.delayed
	}
}

type asyncCtx struct {
	r    *AsyncRunner
	self NodeID
	now  int
}

func (c *asyncCtx) Now() int { return c.now }

func (c *asyncCtx) Send(to NodeID, m Message) {
	e := Envelope{From: c.self, To: to, Msg: m, Depth: c.now + 1, seq: c.r.seq}
	c.r.seq++
	validateSend(len(c.r.nodes), to, m)
	c.r.metrics.recordSend(c.self, int64(m.WireSize()+envelopeOverhead), m.Kind())
	if c.r.inj == nil {
		c.r.sched.Push(e)
		return
	}
	v := c.r.inj.Judge(e, c.now)
	e.Depth += v.Delay
	for i := 0; i < v.Copies; i++ {
		if i > 0 { // duplicates carry their own sequence number
			e.seq = c.r.seq
			c.r.seq++
		}
		if v.Delay > 0 && c.r.delayed != nil {
			c.r.delayed.PushDelayed(e, v.Delay)
		} else {
			c.r.sched.Push(e)
		}
	}
}

// Run initializes all nodes and processes messages to quiescence (or until
// MaxDeliveries). It returns the collected metrics.
func (r *AsyncRunner) Run() *Metrics {
	// One context is reused across activations (contexts are only valid for
	// the duration of the call), keeping the loop free of per-delivery
	// allocations.
	ctx := &asyncCtx{r: r}
	for id, n := range r.nodes {
		ctx.self, ctx.now = id, 0
		n.Init(ctx)
	}
	for r.sched.Len() > 0 {
		if r.MaxDeliveries > 0 && r.metrics.Delivered >= r.MaxDeliveries {
			break
		}
		if r.stop != nil && r.metrics.Delivered%stopCheckInterval == 0 && r.stop() {
			break
		}
		e := r.sched.Pop()
		// Receive-side crash check: fail-silence also drops messages that
		// arrive (possibly delayed) inside the destination's crash window.
		if r.inj != nil && r.inj.CrashedAt(e.To, e.Depth) {
			continue
		}
		r.metrics.recordDeliver(e.To, int64(e.Msg.WireSize()+envelopeOverhead), e.Depth)
		ctx.self, ctx.now = e.To, e.Depth
		r.nodes[e.To].Deliver(ctx, e.From, e.Msg)
		if r.observer != nil {
			r.observer(e)
		}
	}
	r.metrics.foldKinds()
	return r.metrics
}

// fifoScheduler delivers messages in send order.
type fifoScheduler struct {
	q    []Envelope
	head int
}

// NewFIFO returns a first-in-first-out scheduler: the most benign
// asynchronous network, equivalent to a synchronous execution with unit
// delays.
func NewFIFO() Scheduler { return &fifoScheduler{} }

func (s *fifoScheduler) Push(e Envelope) { s.q = append(s.q, e) }

func (s *fifoScheduler) Len() int { return len(s.q) - s.head }

func (s *fifoScheduler) Pop() Envelope {
	e := s.q[s.head]
	s.q[s.head] = Envelope{}
	s.head++
	if s.head > 1024 && s.head*2 > len(s.q) {
		s.q = append([]Envelope(nil), s.q[s.head:]...)
		s.head = 0
	}
	return e
}

// randomScheduler delivers a uniformly random queued message, modelling a
// network with unpredictable but non-malicious delays.
type randomScheduler struct {
	q   []Envelope
	src *prng.Source
}

// NewRandom returns a seeded random-order scheduler.
func NewRandom(seed uint64) Scheduler {
	return &randomScheduler{src: prng.New(seed)}
}

func (s *randomScheduler) Push(e Envelope) { s.q = append(s.q, e) }

func (s *randomScheduler) Len() int { return len(s.q) }

func (s *randomScheduler) Pop() Envelope {
	i := s.src.Intn(len(s.q))
	e := s.q[i]
	last := len(s.q) - 1
	s.q[i] = s.q[last]
	s.q[last] = Envelope{}
	s.q = s.q[:last]
	return e
}

// Priority classifies an envelope for the adversarial scheduler: lower
// classes are delivered first.
type Priority func(e Envelope) int

// advItem is a queued envelope with its heap bookkeeping.
type advItem struct {
	env   Envelope
	class int
}

type advHeap []advItem

func (h advHeap) Len() int { return len(h) }
func (h advHeap) Less(i, j int) bool {
	if h[i].class != h[j].class {
		return h[i].class < h[j].class
	}
	return h[i].env.seq < h[j].env.seq
}
func (h advHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *advHeap) Push(x any)   { *h = append(*h, x.(advItem)) }
func (h *advHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// adversarialScheduler delivers low-priority-class messages first but
// enforces eventual delivery: whenever the oldest queued message has waited
// for more than maxAge subsequent deliveries, it is delivered regardless of
// class. This models an asynchronous adversary that reorders freely inside
// a reliability envelope (§2.1: "a message sent will eventually be
// delivered"). Both internal heaps use lazy deletion keyed on the pending
// set.
type adversarialScheduler struct {
	byClass   advHeap // ordered by (class, seq)
	byAge     advHeap // ordered by (0, seq) == send order
	pri       Priority
	maxAge    uint64
	delivered uint64
	pending   map[uint64]bool
}

// NewAdversarial returns a scheduler that orders deliveries by the given
// priority function, subject to an age bound of maxAge deliveries.
func NewAdversarial(pri Priority, maxAge uint64) Scheduler {
	if maxAge == 0 {
		panic("simnet: adversarial scheduler needs a positive age bound")
	}
	return &adversarialScheduler{pri: pri, maxAge: maxAge, pending: make(map[uint64]bool)}
}

func (s *adversarialScheduler) Push(e Envelope) {
	s.pending[e.seq] = true
	heap.Push(&s.byClass, advItem{env: e, class: s.pri(e)})
	heap.Push(&s.byAge, advItem{env: e})
}

func (s *adversarialScheduler) Len() int { return len(s.pending) }

func (s *adversarialScheduler) Pop() Envelope {
	s.delivered++
	s.clean(&s.byAge)
	s.clean(&s.byClass)
	// Age rule first: the oldest pending message must go out if starved.
	if s.byAge.Len() > 0 && s.delivered > s.byAge[0].env.seq+s.maxAge {
		return s.take(&s.byAge)
	}
	return s.take(&s.byClass)
}

// clean pops entries whose envelopes were already delivered via the other
// heap.
func (s *adversarialScheduler) clean(h *advHeap) {
	for h.Len() > 0 && !s.pending[(*h)[0].env.seq] {
		heap.Pop(h)
	}
}

func (s *adversarialScheduler) take(h *advHeap) Envelope {
	e := heap.Pop(h).(advItem).env
	delete(s.pending, e.seq)
	return e
}

// heldItem is a delayed envelope waiting to re-enter the inner scheduler.
type heldItem struct {
	env     Envelope
	release uint64 // the pop count at which the envelope becomes eligible
}

type heldHeap []heldItem

func (h heldHeap) Len() int { return len(h) }
func (h heldHeap) Less(i, j int) bool {
	if h[i].release != h[j].release {
		return h[i].release < h[j].release
	}
	return h[i].env.seq < h[j].env.seq
}
func (h heldHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *heldHeap) Push(x any)   { *h = append(*h, x.(heldItem)) }
func (h *heldHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// delayedScheduler realizes fault-plan delays under asynchrony: a message
// delayed by d is held outside the inner scheduler until d further
// deliveries have happened, so any later send can overtake it regardless
// of the inner delivery order. If the inner queue ever empties while
// messages are still held, the earliest held message is released
// immediately — a delay reorders, it never deadlocks the execution.
type delayedScheduler struct {
	inner Scheduler
	pops  uint64
	held  heldHeap
}

// PushDelayed enqueues an envelope that becomes eligible after d more
// deliveries.
func (s *delayedScheduler) PushDelayed(e Envelope, d int) {
	heap.Push(&s.held, heldItem{env: e, release: s.pops + uint64(d)})
}

func (s *delayedScheduler) Push(e Envelope) { s.inner.Push(e) }

func (s *delayedScheduler) Len() int { return s.inner.Len() + len(s.held) }

func (s *delayedScheduler) Pop() Envelope {
	s.pops++
	for len(s.held) > 0 && s.held[0].release <= s.pops {
		s.inner.Push(heap.Pop(&s.held).(heldItem).env)
	}
	if s.inner.Len() == 0 { // only held messages remain: release the earliest
		s.inner.Push(heap.Pop(&s.held).(heldItem).env)
	}
	return s.inner.Pop()
}
