package netrun

import (
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/fastba/fastba/internal/prng"
	"github.com/fastba/fastba/internal/simnet"
	"github.com/fastba/fastba/internal/wire"
)

// link supervises one directed connection (from → to): a bounded send
// queue drained by a dedicated writer goroutine that dials on demand,
// redials with jittered exponential backoff when the socket breaks, and
// goes down — dropping traffic instead of stalling senders — when the
// redial budget runs out. The heartbeat detector (Cluster.heartbeatLoop)
// probes the link when it is idle and recycles the socket when a probe
// goes unanswered; a per-connection pong reader is the only goroutine
// that reads from the dialed socket.
type link struct {
	c        *Cluster
	from, to int
	queue    chan outFrame

	mu     sync.Mutex
	conn   net.Conn // established socket; nil while disconnected
	dialed bool     // a dial succeeded at least once

	down      atomic.Bool  // redial budget exhausted
	suspected atomic.Bool  // heartbeat suspicion outstanding
	nextProbe atomic.Int64 // unix nanos: end of the down-state cooldown
	lastIn    atomic.Int64 // unix nanos of the last pong (or dial)
	pingAt    atomic.Int64 // unix nanos of the outstanding ping, 0 = none
	wrStart   atomic.Int64 // unix nanos when a conn.Write began, 0 = idle

	rng uint64 // backoff jitter state; writer goroutine only

	// Coalescing scratch, writer goroutine only: the frames gathered for
	// one batch write and the per-write slice of their buffers.
	gather []outFrame
	bufs   [][]byte
}

// Coalescing bounds: a batch write carries at most maxBatchRecords frames
// and roughly maxBatchBytes of payload — enough to amortize the syscall
// and framing cost, small enough to keep write latency and peer memory
// bounded.
const (
	maxBatchRecords = 64
	maxBatchBytes   = 256 << 10
)

// outFrame is one queued wire frame. ping frames are transport-internal:
// never counted toward fabric quiescence, never retried, never metered.
type outFrame struct {
	buf  *[]byte
	ping bool
}

// linkQueueLen bounds each link's send queue, in frames; a full queue
// blocks the sender until the writer drains.
const linkQueueLen = 1024

func newLink(c *Cluster, from, to int) *link {
	return &link{
		c:     c,
		from:  from,
		to:    to,
		queue: make(chan outFrame, linkQueueLen),
		rng:   prng.Hash2(uint64(from)+1, uint64(to)+1),
	}
}

// enqueue hands a frame to the writer; a full queue blocks the sender
// until the writer drains. It reports false — recycling the buffer, with
// the fabric's send path doing the uncounting — only when the cluster is
// closing.
func (l *link) enqueue(f outFrame) bool {
	select {
	case l.queue <- f:
		return true
	case <-l.c.closing:
		bufPool.Put(f.buf)
		return false
	}
}

// run is the writer goroutine: drain the queue, coalescing queued data
// frames into batch writes.
func (l *link) run() {
	defer l.c.wg.Done()
	for {
		select {
		case <-l.c.closing:
			l.drainQueue()
			return
		case f := <-l.queue:
			l.dispatch(f)
		}
	}
}

// dispatch writes one dequeued frame, first coalescing whatever else is
// already waiting: all data frames queued for this link at write time
// collapse into a single batch frame (one syscall, one header). Pings
// terminate collection and go out singly: they are latency probes, and
// batching one behind data would distort the detector's clock.
func (l *link) dispatch(f outFrame) {
	if f.ping {
		l.deliver(f)
		return
	}
	l.gather = append(l.gather[:0], f)
	total := len(*f.buf)
	var trailing *outFrame
collect:
	for len(l.gather) < maxBatchRecords && total < maxBatchBytes {
		select {
		case g := <-l.queue:
			if g.ping {
				trailing = &g
				break collect
			}
			l.gather = append(l.gather, g)
			total += len(*g.buf)
		default:
			break collect
		}
	}
	if len(l.gather) == 1 {
		l.deliver(l.gather[0])
	} else {
		l.deliverBatch(l.gather)
	}
	l.gather = l.gather[:0]
	if trailing != nil {
		l.deliver(*trailing)
	}
}

// deliverBatch coalesces the gathered frames into one batch frame and
// writes it with deliver's retry semantics: a write that failed before any
// byte reached the kernel retries on a fresh socket; a partial write drops
// the batch (the peer may have consumed a prefix).
func (l *link) deliverBatch(frames []outFrame) {
	l.bufs = l.bufs[:0]
	for _, f := range frames {
		l.bufs = append(l.bufs, *f.buf)
	}
	bp := bufPool.Get().(*[]byte)
	buf, err := wire.AppendBatchFrame((*bp)[:0], l.bufs)
	if err != nil {
		// Unreachable by construction (same link, never pings); degrade to
		// per-frame writes rather than dropping traffic.
		bufPool.Put(bp)
		for _, f := range frames {
			l.deliver(f)
		}
		return
	}
	*bp = buf
	batch := outFrame{buf: bp}
	for {
		conn := l.ensure(false)
		if conn == nil {
			l.releaseBatch(frames, bp)
			return
		}
		if wt := l.c.opts.WriteTimeout; wt > 0 {
			_ = conn.SetWriteDeadline(time.Now().Add(wt))
		}
		l.wrStart.Store(time.Now().UnixNano())
		n, err := conn.Write(*batch.buf)
		l.wrStart.Store(0)
		if err == nil {
			// Meter exactly what the frames would have cost unbatched: the
			// per-message accounting (and its equality with the simulation
			// meter) is independent of coalescing.
			var bytes int64
			for _, f := range frames {
				bytes += int64(len(*f.buf) - 4)
				bufPool.Put(f.buf)
			}
			atomic.AddInt64(&l.c.sent[l.from], bytes)
			l.c.stats.framesSent.Add(1)
			l.c.stats.batchFrames.Add(1)
			l.c.stats.messagesSent.Add(int64(len(frames)))
			bufPool.Put(bp)
			return
		}
		l.dropConn(conn)
		if n > 0 || l.c.isClosing() {
			l.releaseBatch(frames, bp)
			return
		}
	}
}

// releaseBatch drops a coalesced batch: every member frame returns its
// in-flight count and buffer, plus the batch's own write buffer.
func (l *link) releaseBatch(frames []outFrame, bp *[]byte) {
	l.c.fab.Uncount(len(frames))
	for _, f := range frames {
		bufPool.Put(f.buf)
	}
	bufPool.Put(bp)
}

// deliver writes one frame, dialing or redialing as needed. A frame whose
// write failed before any byte reached the kernel is retried on a fresh
// socket (per-link FIFO order survives a severed conn); a partially
// written frame is dropped — resending it would poison the new stream,
// since the peer may have consumed a prefix.
func (l *link) deliver(f outFrame) {
	for {
		conn := l.ensure(f.ping)
		if conn == nil {
			l.release(f)
			return
		}
		if wt := l.c.opts.WriteTimeout; wt > 0 {
			_ = conn.SetWriteDeadline(time.Now().Add(wt))
		}
		l.wrStart.Store(time.Now().UnixNano())
		n, err := conn.Write(*f.buf)
		l.wrStart.Store(0)
		if err == nil {
			if !f.ping {
				atomic.AddInt64(&l.c.sent[l.from], int64(len(*f.buf)-4))
				l.c.stats.framesSent.Add(1)
				l.c.stats.messagesSent.Add(1)
			}
			bufPool.Put(f.buf)
			return
		}
		l.dropConn(conn)
		if f.ping || n > 0 || l.c.isClosing() {
			l.release(f)
			return
		}
	}
}

// ensure returns the link's socket, dialing it if absent. Heartbeat
// probes never dial (a ping on a dead link is pointless); data frames to
// a down peer are fast-dropped until the cooldown expires, then the next
// frame probes with a fresh dial cycle.
func (l *link) ensure(forPing bool) net.Conn {
	l.mu.Lock()
	conn := l.conn
	l.mu.Unlock()
	if conn != nil {
		return conn
	}
	if forPing || l.c.isClosing() {
		return nil
	}
	if l.down.Load() && time.Now().UnixNano() < l.nextProbe.Load() {
		l.c.stats.droppedDown.Add(1)
		return nil
	}
	pol := l.c.opts.Reconnect
	backoff := pol.Base
	for attempt := 1; ; attempt++ {
		d, err := net.DialTimeout("tcp", l.c.addrs[l.to], l.c.opts.DialTimeout)
		if err == nil {
			return l.adopt(d)
		}
		l.c.stats.failedDials.Add(1)
		if pol.Disable {
			return nil
		}
		if pol.MaxAttempts > 0 && attempt >= pol.MaxAttempts {
			l.giveUp()
			return nil
		}
		if !l.sleep(l.jitter(backoff)) {
			return nil
		}
		if backoff *= 2; backoff > pol.Cap {
			backoff = pol.Cap
		}
	}
}

// adopt installs a freshly dialed socket, clears suspicion and down
// state, and spawns the pong reader.
func (l *link) adopt(conn net.Conn) net.Conn {
	l.mu.Lock()
	if l.c.isClosing() {
		l.mu.Unlock()
		_ = conn.Close()
		return nil
	}
	l.conn = conn
	first := !l.dialed
	l.dialed = true
	l.mu.Unlock()
	l.pingAt.Store(0)
	l.lastIn.Store(time.Now().UnixNano())
	wasDown := l.down.Swap(false)
	wasSuspect := l.suspected.Swap(false)
	if first {
		l.c.stats.dials.Add(1)
		l.c.event(ConnDialed, l.from, l.to)
	} else {
		l.c.stats.redials.Add(1)
		l.c.event(ConnRedialed, l.from, l.to)
	}
	if wasDown || wasSuspect {
		l.c.stats.recoveries.Add(1)
		l.c.event(ConnRecovered, l.from, l.to)
	}
	if !l.c.opts.Heartbeat.Disable {
		l.c.wg.Add(1)
		go func() {
			defer l.c.wg.Done()
			l.pongLoop(conn)
		}()
	}
	return conn
}

// giveUp marks the link down for a cooldown and drops its queued frames:
// a fail-silent peer degrades to dropped traffic, never to stalled
// senders.
func (l *link) giveUp() {
	l.nextProbe.Store(time.Now().Add(l.c.opts.Reconnect.Cap).UnixNano())
	if l.down.CompareAndSwap(false, true) {
		l.c.stats.deadLinks.Add(1)
		l.c.event(ConnDown, l.from, l.to)
	}
	l.drainQueue()
}

// drainQueue drops every queued frame, returning the in-flight counts of
// data frames to the fabric.
func (l *link) drainQueue() {
	for {
		select {
		case f := <-l.queue:
			l.release(f)
		default:
			return
		}
	}
}

// release drops one frame: data frames return their in-flight count.
func (l *link) release(f outFrame) {
	if !f.ping {
		l.c.fab.Uncount(1)
	}
	bufPool.Put(f.buf)
}

// dropConn detaches and closes a socket (idempotent per socket: a newer
// conn installed by adopt is left alone).
func (l *link) dropConn(conn net.Conn) {
	l.mu.Lock()
	if l.conn == conn {
		l.conn = nil
	}
	l.mu.Unlock()
	_ = conn.Close()
	l.pingAt.Store(0)
}

func (l *link) currentConn() net.Conn {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.conn
}

// closeConn is Close's teardown hook: in-flight writers observe the
// closed socket (write error) plus the closing channel and exit without
// touching dead conns again.
func (l *link) closeConn() {
	l.mu.Lock()
	conn := l.conn
	l.conn = nil
	l.mu.Unlock()
	if conn != nil {
		_ = conn.Close()
	}
}

// checkHealth is the heartbeat detector's per-tick scan of one link (now
// in unix nanos): suspect a stalled write or an unanswered ping — closing
// the socket so the next frame redials — and ping when the link has been
// quiet for a full period.
func (l *link) checkHealth(now int64) {
	hb := l.c.opts.Heartbeat
	conn := l.currentConn()
	if conn == nil {
		return
	}
	if ws := l.wrStart.Load(); ws != 0 && now-ws > int64(hb.SuspectAfter) {
		l.suspectConn(conn)
		return
	}
	if pa := l.pingAt.Load(); pa != 0 {
		if now-pa > int64(hb.SuspectAfter) {
			l.suspectConn(conn)
		}
		return // probe outstanding; wait for the pong or the window
	}
	if now-l.lastIn.Load() >= int64(hb.Every) {
		l.sendPing(now)
	}
}

// sendPing enqueues a heartbeat probe without ever blocking the detector:
// a full queue means data traffic is already probing the link.
func (l *link) sendPing(now int64) {
	bp := bufPool.Get().(*[]byte)
	buf, err := wire.AppendFrame((*bp)[:0], l.from, l.to, simnet.Ping{Nonce: uint64(now)})
	if err != nil {
		bufPool.Put(bp)
		return
	}
	*bp = buf
	select {
	case l.queue <- outFrame{buf: bp, ping: true}:
		l.pingAt.Store(now)
		l.c.stats.pingsSent.Add(1)
	default:
		bufPool.Put(bp)
	}
}

// suspectConn marks the link suspect (once per episode) and recycles the
// socket; the suspicion clears on the next pong or successful redial.
func (l *link) suspectConn(conn net.Conn) {
	if l.suspected.CompareAndSwap(false, true) {
		l.c.stats.suspects.Add(1)
		l.c.event(ConnSuspected, l.from, l.to)
	}
	l.dropConn(conn)
}

// pongLoop is the dialer-side reader of one socket: the accepting peer
// sends nothing but pongs, which feed the failure detector. It exits when
// the socket dies.
func (l *link) pongLoop(conn net.Conn) {
	header := make([]byte, 4)
	var frame []byte
	for {
		if _, err := io.ReadFull(conn, header); err != nil {
			return
		}
		size := frameSize(header)
		if size == 0 || size > maxFrame {
			_ = conn.Close()
			return
		}
		if cap(frame) < size {
			frame = make([]byte, size)
		}
		frame = frame[:size]
		if _, err := io.ReadFull(conn, frame); err != nil {
			return
		}
		_, _, msg, err := wire.DecodeEnvelope(frame)
		if err != nil {
			continue
		}
		if _, ok := msg.(simnet.Pong); !ok {
			continue
		}
		l.c.stats.pongsReceived.Add(1)
		l.lastIn.Store(time.Now().UnixNano())
		l.pingAt.Store(0)
		if l.suspected.CompareAndSwap(true, false) {
			l.c.stats.recoveries.Add(1)
			l.c.event(ConnRecovered, l.from, l.to)
		}
	}
}

// jitter draws a uniformly jittered duration in [d/2, d] from the link's
// private hash chain (no global rand, deterministic per link).
func (l *link) jitter(d time.Duration) time.Duration {
	if d <= time.Millisecond {
		return d
	}
	l.rng = prng.Mix64(l.rng + 0x9e3779b97f4a7c15)
	half := int64(d) / 2
	return time.Duration(half + int64(l.rng%uint64(half+1)))
}

// sleep waits d unless the cluster closes first.
func (l *link) sleep(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-l.c.closing:
		return false
	case <-t.C:
		return true
	}
}
