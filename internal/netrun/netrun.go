// Package netrun executes the same protocol nodes that the simulation
// runners drive — AER, the committee substrate, the baselines — over real
// TCP sockets on localhost, using the internal/wire codecs. It exists to
// demonstrate that the protocol implementation is transport-agnostic: a
// node moved from the discrete-event simulator onto the network stack
// unchanged is strong evidence that no simulator artifact props it up.
//
// The cluster is a simnet.Transport implementation plugged into the shared
// simnet.Fabric: mailboxes, per-node metrics shards, observer fan-in and
// quiescence accounting are the Fabric's (the same code the goroutine
// runner uses); this package only moves frames. Topology: every node owns
// one TCP listener; connections are dialed lazily on first send. Frames
// are length-prefixed wire envelopes. Delivery order and timing are
// whatever the kernel provides, so — like the goroutine runner — only
// outcome properties are deterministic, not traces.
//
// Every directed connection is supervised (see link): a bounded send
// queue with an explicit overload policy, jittered exponential-backoff
// redial when the socket breaks, write deadlines on every frame, and a
// heartbeat failure detector that recycles unresponsive sockets. A peer
// that stays unreachable past the redial budget degrades to dropped
// frames — never to stalled senders — so a run keeps committing while ≤f
// peers are dark, and a healed peer re-syncs through the catch-up path.
// Options tune all of it; ChaosPlan (chaos.go) attacks it with live
// socket strikes.
//
// Time: the Fabric runs a per-node delivery counter (simnet.CounterClock),
// so Context.Now during a delivery is the number of messages the node has
// handled — which makes decision times on network runs meaningful (the
// count of deliveries it took the node to decide) instead of 0.
package netrun

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/fastba/fastba/internal/simnet"
	"github.com/fastba/fastba/internal/wire"
)

// maxFrame bounds accepted frame sizes (defense against corrupt length
// prefixes; generous for any protocol message).
const maxFrame = 1 << 20

// bufPool recycles per-send frame buffers.
var bufPool = sync.Pool{New: func() any { return new([]byte) }}

// Cluster runs a set of protocol nodes over localhost TCP.
type Cluster struct {
	fab       *simnet.Fabric
	opts      Options
	listeners []net.Listener
	addrs     []string

	// mu guards the link and inbound-connection registries and the closing
	// handshake; per-socket state lives in the links themselves. sent is
	// written with atomic adds by the link writer goroutines.
	mu      sync.Mutex
	links   map[connKey]*link
	inbound map[connKey]*inboundConn
	sent    []int64
	// catchupLns are dedicated catch-up listeners (ServeCatchup), and
	// catchupConns their connections still being served; both close with
	// the cluster.
	catchupLns   []net.Listener
	catchupConns map[net.Conn]struct{}

	stats   netStats
	wg      sync.WaitGroup
	closing chan struct{}
	once    sync.Once
}

type connKey struct{ from, to int }

// netStats is the cluster's supervision counter block; every field is
// written with atomics and safe to snapshot mid-run.
type netStats struct {
	dials, redials, failedDials     atomic.Int64
	droppedDown                     atomic.Int64
	suspects, recoveries, deadLinks atomic.Int64
	pingsSent, pongsReceived        atomic.Int64
	chaosStrikes, chaosSkips        atomic.Int64
	linksSevered                    atomic.Int64
	// framesSent counts data frames written, messagesSent the protocol
	// messages they carried, batchFrames the coalesced subset; framesSent <
	// messagesSent proves link-level coalescing engaged.
	framesSent, messagesSent atomic.Int64
	batchFrames              atomic.Int64
}

func (s *netStats) snapshot() simnet.NetStats {
	return simnet.NetStats{
		Dials:         s.dials.Load(),
		Redials:       s.redials.Load(),
		FailedDials:   s.failedDials.Load(),
		DroppedDown:   s.droppedDown.Load(),
		Suspects:      s.suspects.Load(),
		Recoveries:    s.recoveries.Load(),
		DeadLinks:     s.deadLinks.Load(),
		PingsSent:     s.pingsSent.Load(),
		PongsReceived: s.pongsReceived.Load(),
		ChaosStrikes:  s.chaosStrikes.Load(),
		ChaosSkips:    s.chaosSkips.Load(),
		LinksSevered:  s.linksSevered.Load(),
		FramesSent:    s.framesSent.Load(),
		MessagesSent:  s.messagesSent.Load(),
		BatchFrames:   s.batchFrames.Load(),
	}
}

// NewWithOptions builds a cluster with explicit supervision options (the
// zero Options selects the defaults: one loopback listener per node). The
// caller must Close the cluster.
func NewWithOptions(nodes []simnet.Node, opts Options) (*Cluster, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	c := &Cluster{
		opts:    opts.withDefaults(),
		links:   make(map[connKey]*link),
		inbound: make(map[connKey]*inboundConn),
		sent:    make([]int64, len(nodes)),
		closing: make(chan struct{}),

		catchupConns: make(map[net.Conn]struct{}),
	}
	c.fab = simnet.NewFabric(nodes, simnet.CounterClock, true)
	c.fab.SetTransport(c)
	c.fab.SetLenientSends(true)
	if c.opts.Hosted != nil {
		// Partial hosting: this process listens only for its hosted nodes,
		// at the fixed addresses peers were told to dial; the remaining
		// slots are remote peers whose advertised addresses the link
		// supervisors dial.
		if len(c.opts.Hosted) != len(nodes) {
			c.Close()
			return nil, fmt.Errorf("netrun: Hosted has %d entries for %d nodes", len(c.opts.Hosted), len(nodes))
		}
		for id := range nodes {
			if !c.opts.Hosted[id] {
				c.listeners = append(c.listeners, nil)
				c.addrs = append(c.addrs, c.opts.Addrs[id])
				continue
			}
			ln, err := net.Listen("tcp", c.opts.Addrs[id])
			if err != nil {
				c.Close()
				return nil, fmt.Errorf("netrun: listen %s: %w", c.opts.Addrs[id], err)
			}
			c.listeners = append(c.listeners, ln)
			c.addrs = append(c.addrs, c.opts.Addrs[id])
		}
		return c, nil
	}
	for range nodes {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("netrun: listen: %w", err)
		}
		c.listeners = append(c.listeners, ln)
		c.addrs = append(c.addrs, ln.Addr().String())
	}
	return c, nil
}

// Observe registers an observer: deliveries are buffered in the Fabric's
// shards and fanned in — one globally ordered pass — when the cluster
// closes. Envelope depth carries the receiving node's delivery count (the
// per-node logical clock). It must be called before Start.
func (c *Cluster) Observe(o simnet.Observer) { c.fab.Observe(o) }

// InjectFaults installs a fault plan on the Fabric's send path: judged
// before a frame reaches the wire, so dropped messages are never written
// and duplicated messages are framed twice. Time for crash/partition
// windows is the sender's per-node delivery count (the cluster's
// CounterClock). It must be called before Start.
func (c *Cluster) InjectFaults(plan simnet.FaultPlan) { c.fab.SetFaults(plan) }

// Addrs returns the per-node listen addresses.
func (c *Cluster) Addrs() []string { return append([]string(nil), c.addrs...) }

// SentBytes returns per-node sent byte counts (wire frames actually
// written, excluding the length prefix and heartbeat frames). Counters
// are atomic, but for totals consistent with each other call it after
// Close or quiescence.
func (c *Cluster) SentBytes() []int64 {
	out := make([]int64, len(c.sent))
	for i := range c.sent {
		out[i] = atomic.LoadInt64(&c.sent[i])
	}
	return out
}

// Metrics returns the Fabric's merged per-node metrics (message counts by
// kind, per-node sent/received) with the cluster's supervision counters
// attached as Metrics.Net. Call it only after the cluster is closed or
// quiescent; merging during delivery is racy.
func (c *Cluster) Metrics() *simnet.Metrics {
	m := c.fab.Metrics()
	ns := c.stats.snapshot()
	m.Net = &ns
	return m
}

// NetStats snapshots the supervision counters — dial/redial churn,
// detector transitions, dropped frames, chaos strikes. Unlike Metrics it is
// safe to call mid-run (all counters are atomic).
func (c *Cluster) NetStats() simnet.NetStats { return c.stats.snapshot() }

// Inject feeds a locally originated control envelope (e.g. a decision-log
// open/close message) straight into the destination node's mailbox,
// bypassing the wire. The in-flight counter is incremented so quiescence
// accounting stays exact — unlike frames arriving through readLoop, nobody
// counted these on a send path.
func (c *Cluster) Inject(e simnet.Envelope) { c.fab.InjectLocal(e) }

// Start launches accept loops, the heartbeat detector and the chaos
// controller (when configured), then starts the Fabric: nodes initialize
// sequentially before any delivery loop runs — the ordering that preserves
// the runner contract that Init and Deliver never overlap on one node
// (inbound frames queue in the mailboxes meanwhile).
func (c *Cluster) Start() {
	for id := range c.listeners {
		if c.listeners[id] == nil {
			continue // remote peer of a partially hosted cluster
		}
		id := id
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			c.acceptLoop(id)
		}()
	}
	if !c.opts.Heartbeat.Disable {
		c.wg.Add(1)
		go c.heartbeatLoop()
	}
	if c.opts.Chaos.Active() {
		c.wg.Add(1)
		go c.chaosLoop()
	}
	c.fab.Start()
}

// RunUntil waits for pred to return true, the timeout to elapse or ctx to
// be done. It returns an error on timeout and ctx.Err() on cancellation.
// Completion of a *protocol* is observed from node state — e.g. "all
// correct nodes decided"; AwaitQuiescence then drains the tail of the
// execution. Polling backs off exponentially (1ms doubling to 16ms) and
// never sleeps past the deadline.
func (c *Cluster) RunUntil(ctx context.Context, pred func() bool, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	wait := time.Millisecond
	timer := time.NewTimer(wait)
	defer timer.Stop()
	for {
		if pred() {
			return nil
		}
		remain := time.Until(deadline)
		if remain <= 0 {
			return errors.New("netrun: timeout waiting for completion predicate")
		}
		if wait > remain {
			wait = remain
		}
		timer.Reset(wait)
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-timer.C:
		}
		if wait < 16*time.Millisecond {
			wait *= 2
		}
	}
}

// AwaitQuiescence blocks until no sent message remains unhandled, or the
// timeout elapses (0 = forever), reporting whether quiescence was reached.
// The count is kept in-process (both endpoints of every loopback connection
// live in this cluster), so unlike a real distributed system the cluster
// can detect global quiescence without running an agreement protocol for
// it. Frames dropped by the supervision layer (dead links, teardown)
// return their counts, but a frame that died *inside* a severed socket's
// kernel buffer cannot be traced, so chaos runs and broken connections can
// leak in-flight counts: callers should pass a timeout.
func (c *Cluster) AwaitQuiescence(timeout time.Duration) bool {
	return c.fab.AwaitQuiescence(timeout)
}

// Quiesced is the non-blocking form of AwaitQuiescence: once it reports
// true the execution is over (no unhandled message remains and none can be
// created). With a lossy fault plan installed it is the natural RunUntil
// predicate — "all correct nodes decided" may never come true when the
// plan destroys messages.
func (c *Cluster) Quiesced() bool { return c.fab.Quiesced() }

// isClosing reports whether Close has begun.
func (c *Cluster) isClosing() bool {
	select {
	case <-c.closing:
		return true
	default:
		return false
	}
}

// event dispatches one link state transition to the configured observer.
func (c *Cluster) event(kind ConnEventKind, from, to int) {
	if h := c.opts.OnConnEvent; h != nil {
		h(ConnEvent{Kind: kind, From: from, To: to})
	}
}

// Close shuts listeners, connections and delivery loops down, waits for
// the worker goroutines and flushes buffered observer events. Link
// writers observe the closing channel (and write errors from their closed
// sockets) and drain their queues, returning in-flight counts, instead of
// writing to dead conns.
func (c *Cluster) Close() {
	c.once.Do(func() {
		close(c.closing)
		for _, ln := range c.listeners {
			if ln != nil {
				_ = ln.Close()
			}
		}
		c.mu.Lock()
		for _, l := range c.links {
			l.closeConn()
		}
		for _, ic := range c.inbound {
			_ = ic.conn.Close()
		}
		for _, ln := range c.catchupLns {
			_ = ln.Close()
		}
		for conn := range c.catchupConns {
			_ = conn.Close()
		}
		c.mu.Unlock()
	})
	c.wg.Wait()
	c.fab.Stop()
	// Stragglers: a sender that won the enqueue race against a writer
	// already gone. Everything has stopped, so a single drain pass is
	// race-free and final.
	c.mu.Lock()
	for _, l := range c.links {
		l.drainQueue()
	}
	c.mu.Unlock()
}

func (c *Cluster) acceptLoop(id int) {
	for {
		conn, err := c.listeners[id].Accept()
		if err != nil {
			return // listener closed
		}
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			c.readLoop(id, conn)
		}()
	}
}

// frameSize decodes a length prefix.
func frameSize(header []byte) int {
	return int(binary.LittleEndian.Uint32(header))
}

// readLoop decodes frames from one inbound connection into id's mailbox.
// Every frame reads into one reused buffer; decoded messages own their
// data (DESIGN.md §10). It answers heartbeat pings in place (this loop is
// the socket's only writer on the accepting side), registers the
// connection with the chaos controller once the peer identifies itself,
// and — when the heartbeat detector is on — applies a generous idle read
// deadline so sockets abandoned by a dead dialer are reaped.
func (c *Cluster) readLoop(id int, conn net.Conn) {
	defer conn.Close()
	var reg *inboundConn
	var regKey connKey
	defer func() {
		if reg == nil {
			return
		}
		c.mu.Lock()
		if c.inbound[regKey] == reg {
			delete(c.inbound, regKey)
		}
		c.mu.Unlock()
	}()
	var idle time.Duration
	if hb := c.opts.Heartbeat; !hb.Disable {
		idle = 4 * (hb.Every + hb.SuspectAfter)
		if idle < 2*time.Second {
			idle = 2 * time.Second
		}
	}
	// register files the connection under its link once a frame names a
	// valid peer: the latest socket for the link wins.
	register := func(from int) {
		if reg != nil || from < 0 || from >= len(c.addrs) || from == id {
			return
		}
		reg = &inboundConn{conn: conn}
		regKey = connKey{from: from, to: id}
		c.mu.Lock()
		c.inbound[regKey] = reg
		c.mu.Unlock()
	}
	header := make([]byte, 4)
	var frame, pong []byte
	var batch []simnet.Envelope
	for {
		if reg != nil && !c.pauseInbound(reg) {
			return // cluster closed mid-blackhole
		}
		if idle > 0 {
			_ = conn.SetReadDeadline(time.Now().Add(idle))
		}
		if _, err := io.ReadFull(conn, header); err != nil {
			return
		}
		size := frameSize(header)
		if size == 0 || size > maxFrame {
			return // corrupt peer; drop the connection
		}
		if cap(frame) < size {
			frame = make([]byte, size)
		}
		frame = frame[:size]
		if _, err := io.ReadFull(conn, frame); err != nil {
			return
		}

		if wire.IsBatchFrame(frame) {
			var err error
			batch, err = wire.DecodeBatchAppend(batch[:0], frame, false)
			if err != nil || len(batch) == 0 || batch[0].To != id {
				continue // malformed or misrouted batch: authenticated drop
			}
			register(batch[0].From)
			for i := range batch {
				c.fab.Inject(batch[i])
			}
			continue
		}

		from, to, msg, err := wire.DecodeEnvelope(frame)
		if err != nil || to != id {
			continue // malformed or misrouted frame: authenticated drop
		}
		register(from)
		switch m := msg.(type) {
		case simnet.Ping:
			pong, err = wire.AppendFrame(pong[:0], id, from, simnet.Pong{Nonce: m.Nonce})
			if err != nil {
				continue
			}
			if wt := c.opts.WriteTimeout; wt > 0 {
				_ = conn.SetWriteDeadline(time.Now().Add(wt))
			}
			if _, werr := conn.Write(pong); werr != nil {
				return
			}
			continue
		case simnet.Pong:
			continue // not expected on an inbound socket; ignore
		}
		e := simnet.Envelope{From: from, To: to, Msg: msg}
		// Instance-tagged frames surface as InstMsg; hoist the tag back
		// into the envelope header so the Fabric dispatches DeliverTagged.
		if im, ok := msg.(simnet.InstMsg); ok {
			e.Msg, e.Inst, e.Tagged = im.Inner, im.Inst, true
		}
		c.fab.Inject(e)
	}
}

// pauseInbound honors a blackhole window: stop draining the socket until
// the window expires or the cluster closes (false = closing).
func (c *Cluster) pauseInbound(ic *inboundConn) bool {
	for {
		until := ic.pausedUntil.Load()
		now := time.Now().UnixNano()
		if until <= now {
			return true
		}
		wait := time.Duration(until - now)
		if wait > 50*time.Millisecond {
			wait = 50 * time.Millisecond
		}
		t := time.NewTimer(wait)
		select {
		case <-c.closing:
			t.Stop()
			return false
		case <-t.C:
		}
	}
}

// Send implements simnet.Transport: it frames one message and hands it to
// the (from, to) link supervisor, which owns dialing, redialing and the
// actual write. It reports whether the frame was accepted (unknown
// message types and a closing cluster are rejected; the Fabric then
// uncounts them). Frames the supervisor later drops — dead link, teardown
// — return their in-flight counts through Fabric.Uncount.
func (c *Cluster) Send(e simnet.Envelope) bool {
	bp := bufPool.Get().(*[]byte)
	var buf []byte
	var err error
	if e.Tagged {
		buf, err = wire.AppendTaggedFrame((*bp)[:0], e.From, e.To, e.Inst, e.Msg)
	} else {
		buf, err = wire.AppendFrame((*bp)[:0], e.From, e.To, e.Msg)
	}
	if err != nil {
		bufPool.Put(bp)
		return false // unknown message type: nothing a remote peer could do either
	}
	*bp = buf
	l := c.link(e.From, e.To)
	if l == nil {
		bufPool.Put(bp)
		return false // cluster closing
	}
	return l.enqueue(outFrame{buf: bp})
}

// link returns the supervisor for a directed connection, creating it (and
// its writer goroutine) on first use.
func (c *Cluster) link(from, to int) *link {
	key := connKey{from: from, to: to}
	c.mu.Lock()
	defer c.mu.Unlock()
	if l, ok := c.links[key]; ok {
		return l
	}
	select {
	case <-c.closing:
		return nil
	default:
	}
	l := newLink(c, from, to)
	c.links[key] = l
	c.wg.Add(1)
	go l.run()
	return l
}

// snapshotLinks copies the link registry for lock-free iteration.
func (c *Cluster) snapshotLinks() []*link {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*link, 0, len(c.links))
	for _, l := range c.links {
		out = append(out, l)
	}
	return out
}

// heartbeatLoop drives the failure detector: every period, scan the links
// for stalled writes and unanswered pings, and probe idle sockets.
func (c *Cluster) heartbeatLoop() {
	defer c.wg.Done()
	ticker := time.NewTicker(c.opts.Heartbeat.Every)
	defer ticker.Stop()
	for {
		select {
		case <-c.closing:
			return
		case <-ticker.C:
		}
		now := time.Now().UnixNano()
		for _, l := range c.snapshotLinks() {
			l.checkHealth(now)
		}
	}
}
