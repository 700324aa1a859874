package simnet

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the shared runtime core of the concurrent runners: the
// goroutine runner (Fabric.Run over loopback, the Goroutines model) and the
// TCP cluster (internal/netrun, the TCP model) both execute nodes on a Fabric
// and differ only in their Transport. Metering, observer fan-in, mailbox plumbing and
// quiescence detection therefore live here, in one place.

// Transport moves envelopes from a sending node towards the destination
// node's mailbox. Implementations report whether the envelope was accepted;
// rejected envelopes (no wire codec for the message type, unreachable peer)
// are dropped and excluded from quiescence tracking. Send is called
// concurrently from every node's goroutine and must be safe for concurrent
// use.
type Transport interface {
	Send(e Envelope) bool
}

// loopback is the in-process Transport: envelopes go straight into the
// destination worker's mailbox. A send into a closed mailbox (fabric
// stopping) reports rejection so the sender's in-flight count stays exact.
type loopback struct{ f *Fabric }

func (l loopback) Send(e Envelope) bool {
	return l.f.box(e.To).Put(e)
}

// Clock selects how a Fabric stamps delivery time (Context.Now).
type Clock int

const (
	// CausalClock stamps each delivery with the envelope's causal depth:
	// 1 + the depth of the delivery during which it was sent. This is the
	// asynchronous time measure of the paper (the goroutine runner).
	CausalClock Clock = iota
	// CounterClock stamps each delivery with the receiving node's delivery
	// count — a per-node logical clock for transports that do not carry
	// depth on the wire (TCP). A node's decision time is then the number of
	// messages it had handled when it decided.
	CounterClock
)

// batchPool recycles mailbox batch buffers across Drain/Recycle cycles so
// steady-state delivery does not grow fresh queues.
var batchPool = sync.Pool{New: func() any { return new([]Envelope) }}

// Mailbox is an unbounded MPSC envelope queue with batched draining.
// Unboundedness matters: with bounded channels two nodes sending to each
// other can deadlock, which would be an artifact of the runtime rather
// than of the protocol. Batching matters too: the consumer takes the whole
// pending queue under one lock acquisition instead of one per message.
type Mailbox struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queue  []Envelope
	closed bool
}

// NewMailbox returns an empty open mailbox.
func NewMailbox() *Mailbox {
	m := &Mailbox{}
	m.cond = sync.NewCond(&m.mu)
	return m
}

// Put enqueues an envelope, reporting acceptance: envelopes put after
// Close are dropped and report false so in-flight accounting can uncount
// them.
func (m *Mailbox) Put(e Envelope) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return false
	}
	if m.queue == nil {
		m.queue = (*batchPool.Get().(*[]Envelope))[:0]
	}
	m.queue = append(m.queue, e)
	m.cond.Signal()
	return true
}

// PutBatch enqueues a batch of envelopes under one lock acquisition — the
// fabric-path coalescing primitive: a worker flushes everything its nodes
// staged for one destination worker in a single call instead of paying one
// lock handoff per message. The batch is copied; the caller keeps ownership
// of es. Like Put, it reports acceptance: after Close the whole batch is
// dropped and the caller must uncount all of it.
func (m *Mailbox) PutBatch(es []Envelope) bool {
	if len(es) == 0 {
		return true
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return false
	}
	if m.queue == nil {
		m.queue = (*batchPool.Get().(*[]Envelope))[:0]
	}
	m.queue = append(m.queue, es...)
	m.cond.Signal()
	return true
}

// Drain blocks until at least one envelope is pending (or the mailbox is
// closed), then returns the entire pending queue. It returns ok = false
// only when the mailbox is closed and empty. The caller owns the returned
// batch and should pass it to RecycleBatch when done.
func (m *Mailbox) Drain() (batch []Envelope, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for len(m.queue) == 0 && !m.closed {
		m.cond.Wait()
	}
	if len(m.queue) == 0 {
		return nil, false
	}
	batch = m.queue
	m.queue = nil
	return batch, true
}

// Close wakes blocked Drain calls; pending envelopes remain drainable.
func (m *Mailbox) Close() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
	m.cond.Broadcast()
}

// RecycleBatch returns a drained batch buffer to the pool.
func RecycleBatch(batch []Envelope) {
	if cap(batch) == 0 {
		return
	}
	batch = batch[:0]
	batchPool.Put(&batch)
}

// obsEvent is a buffered observation: delivered envelopes are recorded in
// per-shard buffers with a global sequence stamp and fanned into the
// observer in one merged, seq-ordered pass at quiescence.
type obsEvent struct {
	seq uint64
	env Envelope
}

// shard is the per-node slice of the Fabric's state. Each node is owned by
// exactly one worker (node id mod worker count), and each shard is written
// only by its node's owning worker (sends by the sender's shard — the
// sender is itself being delivered on its owning worker — and deliveries
// by the receiver's), so the delivery path takes no locks beyond the
// mailbox.
type shard struct {
	nm        NodeMetrics
	byKind    map[string]int64
	kinds     kindRun // the run of sends not yet folded into byKind
	maxDepth  int
	delivered int64
	obs       []obsEvent
	_         [64]byte // keep shards off each other's cache lines
}

// Fabric executes protocol nodes over a Transport on min(GOMAXPROCS, n)
// workers: node id determines its owning worker, each worker drains one
// mailbox in batches and dispatches to the nodes it owns, with sharded
// per-node metrics merged at the end and an optional global in-flight
// counter for quiescence detection. It is the runtime core shared by
// the goroutine runner (Run) and the TCP cluster (DESIGN.md §10).
type Fabric struct {
	nodes     []Node
	transport Transport
	clock     Clock
	// track enables quiescence accounting: sends increment, handled
	// deliveries decrement. It requires every accepted Send to eventually
	// reach a mailbox in this process (true for loopback transports).
	track    bool
	observer Observer
	// lenient drops malformed sends (invalid destination, nil message)
	// instead of panicking. Network transports use it: a misaddressed frame
	// from a Byzantine strategy is protocol traffic to tolerate, not a
	// simulator programming error.
	lenient bool
	// faults, when set, is judged on every send: dropped messages are
	// metered as sent but never reach the transport; duplicates are sent
	// twice; delays inflate the envelope's causal depth. The per-link
	// counters inside follow real scheduling order, so fault schedules on
	// the concurrent runtimes vary between runs like delivery order does.
	faults *Injector

	// inflight counts tracked messages sent and not yet handled. Every
	// worker writes it once per batch, so it sits alone on its cache line,
	// away from the read-mostly fields above and the observer sequence.
	inflight paddedInt64
	obsSeq   atomic.Uint64
	shards   []shard
	// workers is the run-loop parallelism: boxes has one mailbox per worker
	// and node id modulo workers selects both the mailbox an envelope lands
	// in and the worker that owns the node.
	workers int
	boxes   []*Mailbox
	// ctxs and taggedNodes are the per-node dispatch state, preallocated at
	// Start so the worker loops index instead of allocating per delivery.
	ctxs        []fabricCtx
	taggedNodes []TaggedNode
	// stages is the per-worker send staging (fabric-path coalescing): sends
	// issued while a worker handles a batch are buffered per destination
	// worker and flushed with one PutBatch per destination when the batch
	// ends. Loopback transport only; network transports encode synchronously.
	stages []sendStage
	// mergeBuf is the persistent observer merge buffer, reused across
	// flushes instead of reallocating the merged slice each time.
	mergeBuf []obsEvent
	wg       sync.WaitGroup

	stopOnce  sync.Once
	flushOnce sync.Once
}

// paddedInt64 is an atomic counter that shares its cache line with nothing.
type paddedInt64 struct {
	_ [64]byte
	atomic.Int64
	_ [56]byte
}

// sendStage buffers one worker's outgoing envelopes per destination worker
// for the duration of a delivery batch.
type sendStage struct {
	byWorker [][]Envelope
}

// NewFabric builds a fabric over the given nodes. A nil transport defaults
// to in-process loopback delivery. The worker count defaults to
// min(GOMAXPROCS, n); SetWorkers overrides it.
func NewFabric(nodes []Node, clock Clock, track bool) *Fabric {
	f := &Fabric{
		nodes:  nodes,
		clock:  clock,
		track:  track,
		shards: make([]shard, len(nodes)),
	}
	f.setWorkers(defaultWorkers(len(nodes)))
	for i := range f.shards {
		f.shards[i].byKind = make(map[string]int64)
	}
	return f
}

// defaultWorkers is the run-loop parallelism used unless SetWorkers
// overrides it: one worker per available core, never more than nodes.
func defaultWorkers(n int) int {
	w := runtime.GOMAXPROCS(0)
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// SetWorkers overrides the number of delivery workers (clamped to [1, n]).
// It must be called before Start and before any Inject: envelope routing is
// fixed by the worker count. Benchmarks and the determinism guard use it to
// pin parallelism independently of GOMAXPROCS.
func (f *Fabric) SetWorkers(w int) { f.setWorkers(w) }

func (f *Fabric) setWorkers(w int) {
	if w < 1 {
		w = 1
	}
	if n := len(f.nodes); w > n && n > 0 {
		w = n
	}
	f.workers = w
	f.boxes = make([]*Mailbox, w)
	for i := range f.boxes {
		f.boxes[i] = NewMailbox()
	}
}

// box returns the mailbox of the worker that owns node to.
func (f *Fabric) box(to NodeID) *Mailbox { return f.boxes[to%f.workers] }

// Workers returns the delivery parallelism in effect.
func (f *Fabric) Workers() int { return f.workers }

// SetTransport installs the transport. It must be called before Start;
// fabrics without a transport deliver over in-process loopback.
func (f *Fabric) SetTransport(t Transport) { f.transport = t }

// SetLenientSends makes malformed sends (invalid destination, nil message)
// silently dropped instead of a panic. It must be called before Start.
func (f *Fabric) SetLenientSends(on bool) { f.lenient = on }

// SetFaults installs a fault plan on the send path. It must be called
// before Start.
func (f *Fabric) SetFaults(plan FaultPlan) {
	f.faults = NewInjector(plan, len(f.nodes))
}

// Observe registers an observer. Delivered envelopes are buffered per
// shard and fanned into the observer — in a single globally ordered pass —
// when the fabric stops: the delivery path stays lock-free, at the cost of
// retaining every delivered envelope until quiescence and of the observer
// seeing nothing mid-run. Leave unset on hot runs where only the aggregate
// metrics matter; use the deterministic runners when live event streaming
// is needed. It must be called before Start.
func (f *Fabric) Observe(o Observer) { f.observer = o }

// Inject feeds an inbound envelope (e.g. decoded from a network frame)
// into the destination mailbox. The in-flight accounting for injected
// envelopes is the sending fabricCtx's: transports hand envelopes back to
// the process that counted them on Send.
func (f *Fabric) Inject(e Envelope) {
	validateSend(len(f.nodes), e.To, e.Msg)
	if !f.box(e.To).Put(e) {
		// The mailbox closed under the injector (teardown mid-run); the
		// sender's count for this envelope must be returned or quiescence
		// never comes.
		if f.track {
			f.inflight.Add(-1)
		}
	}
}

// InjectLocal feeds a locally originated envelope — one no fabricCtx.Send
// ever counted, e.g. a pipeline control message from outside the node
// goroutines — into the destination mailbox, incrementing the in-flight
// counter so quiescence accounting stays exact (the delivery loop
// decrements per handled message regardless of origin). Envelopes
// rejected by a closed mailbox are uncounted again.
func (f *Fabric) InjectLocal(e Envelope) {
	validateSend(len(f.nodes), e.To, e.Msg)
	if f.track {
		f.inflight.Add(1)
	}
	if !f.box(e.To).Put(e) && f.track {
		f.inflight.Add(-1)
	}
}

// Uncount returns n in-flight counts to the fabric on behalf of the
// transport: Send accepted (and counted) the envelopes, but the transport
// later dropped them without delivery — shed by an overload policy,
// drained from the queue of a link whose redial budget ran out, or
// discarded at teardown. Without the return, quiescence never comes.
func (f *Fabric) Uncount(n int) {
	if f.track && n > 0 {
		f.inflight.Add(-int64(n))
	}
}

// Start initializes every node sequentially — preserving the runner
// contract that Init and Deliver never overlap on one node — and then
// launches the worker delivery loops.
func (f *Fabric) Start() {
	if f.transport == nil {
		f.transport = loopback{f: f}
	}
	// Init contexts have no stage: initial sends go straight through the
	// transport (workers are not draining yet, so there is nothing to race).
	for id, n := range f.nodes {
		n.Init(&fabricCtx{f: f, self: id, now: 0})
	}
	// Per-node dispatch state, built once: the worker loops index these
	// arrays instead of allocating a context (or re-asserting TaggedNode)
	// per delivery.
	_, stageSends := f.transport.(loopback)
	f.ctxs = make([]fabricCtx, len(f.nodes))
	f.taggedNodes = make([]TaggedNode, len(f.nodes))
	f.stages = make([]sendStage, f.workers)
	for w := range f.stages {
		f.stages[w].byWorker = make([][]Envelope, f.workers)
	}
	for id, n := range f.nodes {
		f.ctxs[id] = fabricCtx{f: f, self: id}
		if stageSends {
			f.ctxs[id].stage = &f.stages[id%f.workers]
		}
		f.taggedNodes[id], _ = n.(TaggedNode)
	}
	for w := 0; w < f.workers; w++ {
		f.wg.Add(1)
		go f.workerLoop(w)
	}
}

// Run is the fabric as a one-shot runner, the Goroutines model: start,
// process messages until global quiescence, stop, return the metrics.
// Delivery order (and with it a fault plan's per-link pattern) is the Go
// scheduler's, so only outcome properties are comparable across runs.
// Call it at most once, in place of Start, on a tracking fabric.
func (f *Fabric) Run() *Metrics {
	f.Start()
	f.AwaitQuiescence(0)
	f.Stop()
	return f.Metrics()
}

// Quiesced reports whether no tracked message is currently in flight.
// Unlike a transient empty-queue observation, a zero in-flight count is
// final: no further message can ever be created once it is reached, so a
// true return means the execution is over. Useful as a stop predicate for
// lossy fault plans, where "all nodes decided" may never come true.
func (f *Fabric) Quiesced() bool { return f.inflight.Load() == 0 }

// AwaitQuiescence blocks until no tracked messages are in flight, or until
// the timeout elapses (timeout 0 = wait forever). It reports whether
// quiescence was reached. Once the counter hits zero no further message
// can ever be created, so the fabric can be stopped without losing work.
func (f *Fabric) AwaitQuiescence(timeout time.Duration) bool {
	var deadline time.Time
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
	}
	for spins := 0; ; spins++ {
		if f.inflight.Load() == 0 {
			return true
		}
		if timeout > 0 && spins%1024 == 0 && time.Now().After(deadline) {
			return false
		}
		waitHint()
	}
}

// Stop closes all mailboxes, waits for the delivery loops to drain and
// exit, and flushes buffered observer events. It is idempotent.
func (f *Fabric) Stop() {
	f.stopOnce.Do(func() {
		for _, b := range f.boxes {
			b.Close()
		}
	})
	f.wg.Wait()
	f.flushOnce.Do(f.flushObserver)
}

// flushObserver merges the per-shard observation buffers by global
// sequence number and replays them into the observer. The merge reuses the
// fabric's persistent buffer (grown once to the high-water mark) instead of
// allocating the merged slice per flush.
func (f *Fabric) flushObserver() {
	if f.observer == nil {
		return
	}
	total := 0
	for i := range f.shards {
		total += len(f.shards[i].obs)
	}
	if total == 0 {
		return
	}
	if cap(f.mergeBuf) < total {
		f.mergeBuf = make([]obsEvent, 0, total)
	}
	all := f.mergeBuf[:0]
	for i := range f.shards {
		all = append(all, f.shards[i].obs...)
		f.shards[i].obs = nil
	}
	sort.Slice(all, func(i, j int) bool { return all[i].seq < all[j].seq })
	for _, ev := range all {
		f.observer(ev.env)
	}
	f.mergeBuf = all[:0]
}

// Metrics merges the shards into one Metrics. Call after Stop (or after
// AwaitQuiescence on a tracked fabric); merging while delivery loops run
// is racy.
func (f *Fabric) Metrics() *Metrics {
	m := newMetrics(len(f.nodes))
	for i := range f.shards {
		sh := &f.shards[i]
		m.PerNode[i] = sh.nm
		for k, v := range sh.byKind {
			m.ByKind[k] += v
		}
		// The open run is read, not folded: the shard belongs to its worker.
		if sh.kinds.count > 0 {
			m.ByKind[sh.kinds.kind] += sh.kinds.count
		}
		if sh.maxDepth > m.Rounds {
			m.Rounds = sh.maxDepth
		}
		m.Delivered += sh.delivered
	}
	return m
}

// workerLoop drains one worker's mailbox in batches until the mailbox
// closes, dispatching each envelope to the node it owns. Sends issued by
// the handled nodes are staged per destination worker (loopback transport)
// and flushed after the batch, before the in-flight decrement.
func (f *Fabric) workerLoop(w int) {
	defer f.wg.Done()
	box := f.boxes[w]
	st := &f.stages[w]
	for {
		batch, ok := box.Drain()
		if !ok {
			return
		}
		for _, e := range batch {
			f.deliverOne(e)
		}
		// Flush staged sends before the decrement: the flush counts them, so
		// the in-flight counter can never dip to zero while work remains.
		f.flushStage(st)
		if f.track {
			f.inflight.Add(-int64(len(batch)))
		}
		RecycleBatch(batch)
	}
}

// deliverOne hands a single envelope to its destination node, updating the
// receiver's shard. The destination node is owned by the calling worker
// (envelope routing), so the shard stays single-writer.
func (f *Fabric) deliverOne(e Envelope) {
	id := e.To
	sh := &f.shards[id]
	now := e.Depth
	if f.clock == CounterClock {
		now = int(sh.delivered) + 1
	}
	// Receive-side crash check: a message arriving while this node is
	// inside a crash window vanishes at the door, unhandled and unmetered
	// (it still decrements the in-flight counter with its batch, so
	// quiescence accounting stays exact).
	if f.faults != nil && f.faults.CrashedAt(id, now) {
		return
	}
	sh.delivered++
	if f.clock == CounterClock {
		e.Depth = now // stamp observers with the per-node clock
	}
	if now > sh.maxDepth {
		sh.maxDepth = now
	}
	size := e.Msg.WireSize() + envelopeOverhead
	if e.Tagged {
		size += instTagOverhead
	}
	sh.nm.RecvMsgs++
	sh.nm.RecvBytes += int64(size)
	ctx := &f.ctxs[id]
	ctx.now = now
	if e.Tagged && f.taggedNodes[id] != nil {
		f.taggedNodes[id].DeliverTagged(ctx, e.From, e.Msg, e.Inst)
	} else {
		f.nodes[id].Deliver(ctx, e.From, e.Msg)
	}
	if f.observer != nil {
		sh.obs = append(sh.obs, obsEvent{seq: f.obsSeq.Add(1), env: e})
	}
}

// flushStage delivers everything the worker's nodes staged during the
// batch: one PutBatch per destination worker with pending envelopes. Staged
// sends are counted here, once per destination, before they become visible
// to a receiver: until then the batch being handled holds the counter above
// zero.
func (f *Fabric) flushStage(st *sendStage) {
	for w := range st.byWorker {
		buf := st.byWorker[w]
		if len(buf) == 0 {
			continue
		}
		if f.track {
			f.inflight.Add(int64(len(buf)))
		}
		if !f.boxes[w].PutBatch(buf) {
			// Mailboxes closed mid-run (teardown): return the counts or
			// quiescence never comes.
			if f.track {
				f.inflight.Add(-int64(len(buf)))
			}
		}
		st.byWorker[w] = buf[:0]
	}
}

// fabricCtx is the Context for one node's activations. One instance per
// node is reused across deliveries (runners activate a node sequentially),
// keeping the hot path free of per-delivery allocations. stage, when set,
// is the owning worker's send staging: outgoing envelopes buffer there for
// a one-PutBatch-per-worker flush at batch end instead of taking a mailbox
// lock per send (loopback transport only; Init contexts leave it nil).
type fabricCtx struct {
	f     *Fabric
	self  NodeID
	now   int
	stage *sendStage
}

func (c *fabricCtx) Now() int { return c.now }

func (c *fabricCtx) Send(to NodeID, m Message) {
	c.send(Envelope{From: c.self, To: to, Msg: m, Depth: c.now + 1}, m.WireSize()+envelopeOverhead)
}

// SendTagged implements TaggedSender: the instance tag travels in the
// envelope header, metered exactly like the InstMsg wrapper it replaces
// (inner payload + tag overhead), with no wrapper allocation on the send
// path.
func (c *fabricCtx) SendTagged(to NodeID, m Message, inst uint32) {
	e := Envelope{From: c.self, To: to, Msg: m, Depth: c.now + 1, Inst: inst, Tagged: true}
	c.send(e, m.WireSize()+envelopeOverhead+instTagOverhead)
}

func (c *fabricCtx) send(e Envelope, size int) {
	if c.f.lenient {
		if e.To < 0 || e.To >= len(c.f.nodes) || e.Msg == nil {
			return
		}
	} else {
		validateSend(len(c.f.nodes), e.To, e.Msg)
	}
	sh := &c.f.shards[c.self]
	sh.nm.SentMsgs++
	sh.nm.SentBytes += int64(size)
	sh.kinds.add(sh.byKind, e.Msg.Kind())
	copies := 1
	if c.f.faults != nil {
		v := c.f.faults.Judge(e, c.now)
		copies = v.Copies
		e.Depth += v.Delay
	}
	for i := 0; i < copies; i++ {
		if c.stage != nil {
			// Counted when the stage is flushed (flushStage).
			w := e.To % c.f.workers
			c.stage.byWorker[w] = append(c.stage.byWorker[w], e)
			continue
		}
		if c.f.track {
			c.f.inflight.Add(1)
		}
		if !c.f.transport.Send(e) && c.f.track {
			c.f.inflight.Add(-1)
		}
	}
}
