package fastba

import (
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"github.com/fastba/fastba/internal/netrun"
	"github.com/fastba/fastba/internal/pipeline"
	"github.com/fastba/fastba/internal/store"
)

// ErrLogClosed reports an operation on a cleanly closed decision log.
// It is distinct from the error of a log that failed or was aborted:
// cancelling OpenLog's context surfaces the context's error
// (context.Canceled / DeadlineExceeded), never this sentinel — so
// callers can tell "we closed it" from "it was torn down under us".
var ErrLogClosed = errors.New("fastba: decision log closed")

// The decision log: agreement as a service. RunAER decides one value; a
// DecisionLog runs an unbounded sequence of AER instances back-to-back
// over one long-lived transport, folding client proposals into per-
// instance batch values, pipelining up to Depth instances over
// instance-tagged envelopes, and committing instances strictly in
// sequence order. See DESIGN.md §7 for what the paper's single-shot
// guarantees do and do not promise across instances.

// LogRuntime selects the transport a DecisionLog runs on.
type LogRuntime int

// Decision-log runtimes.
const (
	// RuntimeFabric is the in-process loopback fabric: one goroutine per
	// node over batched mailboxes (the Goroutines model's substrate).
	RuntimeFabric LogRuntime = iota + 1
	// RuntimeTCP runs the same nodes over real loopback TCP sockets
	// (internal/netrun): one listener per node, lazily dialed mesh.
	RuntimeTCP
)

// String implements fmt.Stringer.
func (r LogRuntime) String() string {
	switch r {
	case RuntimeFabric:
		return "fabric"
	case RuntimeTCP:
		return "tcp"
	default:
		return fmt.Sprintf("LogRuntime(%d)", int(r))
	}
}

// ParseLogRuntime maps a runtime's String name back to its value.
func ParseLogRuntime(s string) (LogRuntime, error) {
	for _, r := range []LogRuntime{RuntimeFabric, RuntimeTCP} {
		if s == r.String() {
			return r, nil
		}
	}
	return 0, fmt.Errorf("fastba: unknown log runtime %q", s)
}

// LogEntry is one committed decision-log record.
type LogEntry struct {
	// Seq is the instance sequence number; a gap-free log commits
	// contiguous seqs from 0.
	Seq uint64 `json:"seq"`
	// Value is the hex encoding of the decided value — the digest of the
	// batch the instance agreed on.
	Value string `json:"value"`
	// Payloads are the client payloads folded into the instance.
	Payloads [][]byte `json:"-"`
	// PayloadCount is len(Payloads) (serialized in place of the payload
	// bytes).
	PayloadCount int `json:"payloads"`
	// Deciders of Correct correct nodes had decided when the instance
	// committed.
	Deciders int `json:"deciders"`
	Correct  int `json:"correct"`
	// DistinctValues counts distinct decided values among the deciders
	// (> 1 is a log-agreement violation); CertDeficits counts deciders
	// without a re-derivable quorum certificate (must stay 0);
	// MatchesProposal reports that the decided value is the proposed batch
	// digest (the validity probe).
	DistinctValues  int  `json:"distinctValues"`
	CertDeficits    int  `json:"certDeficits,omitempty"`
	MatchesProposal bool `json:"matchesProposal"`
	// Latency is the open-to-commit duration of the instance.
	Latency time.Duration `json:"latencyNs"`
}

// logEntry converts the engine's record to the public form.
func logEntry(e pipeline.Entry) LogEntry {
	return LogEntry{
		Seq:             e.Seq,
		Value:           hex.EncodeToString(e.Value.Bytes()),
		Payloads:        e.Payloads,
		PayloadCount:    len(e.Payloads),
		Deciders:        e.Deciders,
		Correct:         e.Correct,
		DistinctValues:  e.DistinctValues,
		CertDeficits:    e.CertDeficits,
		MatchesProposal: e.MatchesProposal,
		Latency:         e.Committed.Sub(e.Opened),
	}
}

// Ticket tracks one proposed payload through batching and commit.
type Ticket struct {
	done  chan struct{}
	entry pipeline.Entry
	err   error
}

// ticketCompletion is a Ticket as the ingest stage sees it
// (pipeline.Completion), kept off the public method set.
type ticketCompletion Ticket

func (t *ticketCompletion) Complete(e pipeline.Entry, _ time.Duration, err error) {
	t.entry, t.err = e, err
	close(t.done)
}

// Wait blocks until the payload's instance commits (or the log fails) and
// returns the committed entry.
func (t *Ticket) Wait(ctx context.Context) (LogEntry, error) {
	select {
	case <-t.done:
		if t.err != nil {
			return LogEntry{}, t.err
		}
		return logEntry(t.entry), nil
	case <-ctx.Done():
		return LogEntry{}, ctx.Err()
	}
}

// DecisionLog is a pipelined multi-instance decision log. Open one with
// OpenLog, feed it with Propose (batched client ingest) or Append
// (explicit deterministic batches), and Close it to flush and tear the
// transport down.
//
// Byzantine model: the log's corrupt nodes are fail-silent for its whole
// lifetime (the registry adversaries target single-shot runs); hostility
// beyond silence comes from the fault plan (WithFaults), which applies to
// every instance's traffic on the shared transport.
type DecisionLog struct {
	cfg     Config
	eng     *pipeline.Engine
	runtime LogRuntime
	// st is the durable commit store (WithLogStore); nil runs in-memory.
	st *store.Store

	// ing is the ingest stage in front of the engine; Propose is its one
	// source.
	ing *pipeline.Ingest
	src *pipeline.Source

	stopWatch func() bool

	closeOnce sync.Once
	closeErr  error
}

// OpenLog builds and starts a decision log for the configuration: n,
// seed, corruption, knowledge fraction and fault plan come from the usual
// options; the log-specific knobs are WithLogRuntime, WithLogDepth,
// WithLogBatch, WithLogLinger, WithLogCommitFraction and
// WithLogInstanceTimeout. Cancelling ctx aborts the log promptly: open
// instances are abandoned and the transport (including a TCP cluster's
// goroutines) tears down without waiting for Close.
func OpenLog(ctx context.Context, cfg Config, opts ...Option) (*DecisionLog, error) {
	for _, o := range opts {
		o.apply(&cfg)
	}
	// Population and fault-plan validation happens once, in pipeline.New.
	runtime := cfg.logRuntime
	if runtime == 0 {
		runtime = RuntimeFabric
	}
	if runtime != RuntimeFabric && runtime != RuntimeTCP {
		return nil, fmt.Errorf("fastba: unknown log runtime %v", runtime)
	}
	if cfg.net.Chaos.Active() && runtime != RuntimeTCP {
		return nil, fmt.Errorf("fastba: chaos plans sever real sockets; runtime %v has none (use WithLogRuntime(RuntimeTCP))", runtime)
	}
	batch := cfg.logBatch
	if batch <= 0 {
		batch = 64
	}
	linger := cfg.logLinger
	if linger <= 0 {
		linger = 2 * time.Millisecond
	}

	l := &DecisionLog{cfg: cfg, runtime: runtime}
	if cfg.storeDir != "" {
		st, err := store.Open(cfg.storeDir, store.Options{SyncWindow: cfg.storeSync})
		if err != nil {
			return nil, err
		}
		// Catch-up before the engine exists: fetch the committed prefix
		// the WAL is missing from the configured peer and persist it, so
		// the engine seeds from a complete prefix and new instances open
		// past it.
		if err := catchUp(st, cfg); err != nil {
			st.Close()
			return nil, err
		}
		l.st = st
	}
	// The engine counts deciders: WithLogCommitFraction's share of the
	// correct nodes, rounded up; 0 (the default) is every one of them.
	correct := cfg.n - int(cfg.corruptFrac*float64(cfg.n))
	eng, err := pipeline.New(pipeline.Config{
		N:               cfg.n,
		Params:          cfg.params,
		Seed:            cfg.seed,
		CorruptFrac:     cfg.corruptFrac,
		KnowFrac:        cfg.knowFrac,
		Depth:           cfg.logDepth,
		Need:            max(0, int(math.Ceil(cfg.logCommitFrac*float64(correct)))),
		InstanceTimeout: cfg.logTimeout,
		Faults:          cfg.faults,
		Net:             cfg.net,
		OnCommit:        l.onCommit,
		Store:           l.st,
	})
	if err != nil {
		if l.st != nil {
			l.st.Close()
		}
		return nil, err
	}
	l.eng = eng
	switch runtime {
	case RuntimeFabric:
		eng.StartFabric()
	case RuntimeTCP:
		if err := eng.StartTCP(); err != nil {
			if l.st != nil {
				l.st.Close()
			}
			return nil, err
		}
	}
	// Propagate cancellation into transport teardown: a cancelled
	// long-lived run must not leave netrun accept/read goroutines behind.
	l.stopWatch = context.AfterFunc(ctx, eng.Abort)
	// Backpressure at four batches: Propose blocks past that.
	l.ing = pipeline.NewIngest(eng, 4*batch, batch, linger)
	l.src = l.ing.Attach()
	return l, nil
}

// Runtime returns the transport the log runs on.
func (l *DecisionLog) Runtime() LogRuntime { return l.runtime }

// Correct returns the number of correct nodes in the log's population.
func (l *DecisionLog) Correct() int { return l.eng.Correct() }

// Propose submits one client payload: it joins the ingest queue and is
// folded into the next instance's value. Propose blocks for backpressure
// when the queue is full (the pipeline is at Depth and four batches are
// already waiting). The returned Ticket resolves when the payload's
// instance commits, or with an error when the log fails or closes first.
func (l *DecisionLog) Propose(ctx context.Context, payload []byte) (*Ticket, error) {
	t := &Ticket{done: make(chan struct{})}
	if err := l.src.OfferWait(ctx, payload, (*ticketCompletion)(t)); err != nil {
		if errors.Is(err, pipeline.ErrClosed) {
			err = l.appendErr()
		}
		return nil, err
	}
	return t, nil
}

// Append opens one instance with exactly the given batch, bypassing the
// batcher — the deterministic ingest path: with a fixed seed and fixed
// batches, the committed log is identical across runtimes (the
// conformance contract). It blocks while the pipeline is at Depth and
// returns the assigned sequence number.
func (l *DecisionLog) Append(ctx context.Context, payloads [][]byte) (uint64, error) {
	seq, err := l.eng.Append(ctx, payloads)
	if errors.Is(err, pipeline.ErrClosed) {
		err = ErrLogClosed
	}
	return seq, err
}

// WaitSeq blocks until instance seq commits and returns its entry.
func (l *DecisionLog) WaitSeq(ctx context.Context, seq uint64) (LogEntry, error) {
	e, err := l.eng.WaitSeq(ctx, seq)
	if err != nil {
		return LogEntry{}, err
	}
	return logEntry(e), nil
}

// Committed snapshots the committed log in sequence order.
func (l *DecisionLog) Committed() []LogEntry {
	raw := l.eng.Entries()
	out := make([]LogEntry, len(raw))
	for i, e := range raw {
		out[i] = logEntry(e)
	}
	return out
}

// Err returns the log's fatal error, if any.
func (l *DecisionLog) Err() error { return l.eng.Err() }

// Close flushes the queued payloads into final instances, waits for every
// open instance to commit (bounded by the instance timeout), tears the
// transport down and returns the log's fatal error, if any.
func (l *DecisionLog) Close() error {
	l.closeOnce.Do(func() {
		// Unbounded context: a head instance that never commits fails the
		// engine at its instance timeout, which ends the wait.
		l.ing.Close(context.Background())
		l.closeErr = l.eng.Close()
		if l.st != nil {
			// The engine is drained: no commit can still be persisting.
			// (After a Crash the store is already closed and this is a
			// no-op.)
			if serr := l.st.Close(); l.closeErr == nil {
				l.closeErr = serr
			}
		}
		l.stopWatch()
	})
	return l.closeErr
}

// Crash hard-stops the log, simulating a process kill: the transport
// aborts mid-flight and the store closes WITHOUT its final fsync —
// whatever the OS already holds of the WAL is what a restart
// (OpenLog with WithLogStore on the same directory) recovers. Outstanding tickets
// resolve with an error; the durable committed prefix may run ahead of
// what this process surfaced (persist-before-surface), which the
// log-durability oracle's prefix-extension rule accepts.
func (l *DecisionLog) Crash() {
	l.eng.Abort()
	if l.st != nil {
		l.st.Crash()
	}
	l.Close()
}

// Recovered returns how many committed entries were seeded from the
// store's recovered prefix (WAL replay plus catch-up) when the log
// opened; 0 for in-memory or fresh logs.
func (l *DecisionLog) Recovered() int { return l.eng.Recovered() }

// CatchupAddr returns the log's TCP catch-up listener address — the
// value a restarting peer passes to WithCatchupPeer — or "" on the
// fabric runtime (in-process peers use WithCatchupFrom instead).
func (l *DecisionLog) CatchupAddr() string { return l.eng.CatchupAddr() }

// NetStats snapshots the TCP transport's connection-supervision counters
// (dials, redials, suspects, dropped frames, chaos strikes). Safe to call
// mid-run; the zero value on the fabric runtime.
func (l *DecisionLog) NetStats() NetStats { return l.eng.NetStats() }

// catchUp fetches the committed records past the store's recovered
// frontier from the configured peer — over TCP (WithCatchupPeer) or
// in-process (WithCatchupFrom) — validates their contiguity, and
// persists them.
func catchUp(st *store.Store, cfg Config) error {
	ingest := func(encoded [][]byte) error {
		recs, err := store.DecodeRun(st.Frontier(), encoded)
		if err != nil {
			return err
		}
		return st.AppendBatch(recs)
	}
	switch {
	case cfg.catchupAddr != "":
		encoded, err := netrun.FetchCatchup(cfg.catchupAddr, st.Frontier(), cfg.net.DialTimeout)
		if err != nil {
			return err
		}
		return ingest(encoded)
	case cfg.catchupPeer != nil:
		for {
			chunk, ok := cfg.catchupPeer.eng.Catchup(st.Frontier(), 256)
			if !ok {
				return fmt.Errorf("fastba: catch-up peer is not serving (closed or failed)")
			}
			if len(chunk) == 0 {
				return nil
			}
			if err := ingest(chunk); err != nil {
				return err
			}
		}
	default:
		return nil
	}
}

// appendErr describes why ingestion stopped: the engine's fatal error
// when it failed or was aborted (context cancellation surfaces the
// context's error here), ErrLogClosed after a clean Close.
func (l *DecisionLog) appendErr() error {
	if err := l.eng.Err(); err != nil {
		return err
	}
	return ErrLogClosed
}

// onCommit resolves the committed instance's tickets and streams the
// commit through the configured Observer.
func (l *DecisionLog) onCommit(e pipeline.Entry, _ bool) {
	l.ing.Commit(e)
	if l.cfg.observer != nil {
		size := 0
		for _, p := range e.Payloads {
			size += len(p)
		}
		l.cfg.observer(Event{Type: EventCommit, Time: int(e.Seq), From: -1, To: -1, Kind: "commit", Size: size})
	}
}

// Log-specific options.

// WithLogRuntime selects the decision log's transport (default
// RuntimeFabric).
func WithLogRuntime(r LogRuntime) Option {
	return optionFunc(func(c *Config) { c.logRuntime = r })
}

// WithLogDepth bounds concurrently open instances (default 1 — strictly
// sequential; raising it pipelines instances over the shared transport).
func WithLogDepth(d int) Option {
	return optionFunc(func(c *Config) { c.logDepth = d })
}

// WithLogBatch sets the ingest batch size: a pending batch ships as soon
// as it holds this many payloads (default 64).
func WithLogBatch(n int) Option {
	return optionFunc(func(c *Config) { c.logBatch = n })
}

// WithLogLinger bounds how long a non-empty, non-full batch waits for
// more payloads before shipping (default 2ms).
func WithLogLinger(d time.Duration) Option {
	return optionFunc(func(c *Config) { c.logLinger = d })
}

// WithLogCommitFraction sets the fraction of correct nodes that must
// decide before an instance commits (default 1). Lowering it lets the log
// make progress when a lossy fault plan silences part of the population.
func WithLogCommitFraction(f float64) Option {
	return optionFunc(func(c *Config) { c.logCommitFrac = f })
}

// WithLogInstanceTimeout bounds how long the head instance may stay
// uncommitted before the log fails (default 30s).
func WithLogInstanceTimeout(d time.Duration) Option {
	return optionFunc(func(c *Config) { c.logTimeout = d })
}

// WithLogStore makes the log durable: committed entries are persisted
// to a segmented write-ahead log under dir — before they are surfaced
// through WaitSeq or ticket resolution. On a fresh directory the log
// starts empty; on an existing one it recovers the committed prefix (WAL
// replay, torn-tail truncation, optional catch-up) and resumes appending
// after it. The store compacts every 512 appended records. The empty
// string returns to in-memory operation.
func WithLogStore(dir string) Option {
	return optionFunc(func(c *Config) { c.storeDir = dir })
}

// WithLogStoreSync sets the store's group-commit window: an append is
// durable at the window's shared fsync instead of one fsync per append
// (default 0 — fsync every append). Larger windows trade commit latency
// for fsync amortization; crash durability of *surfaced* commits is
// unaffected, because commits surface only after their append returns.
func WithLogStoreSync(window time.Duration) Option {
	return optionFunc(func(c *Config) { c.storeSync = window })
}

// WithCatchupPeer points a (re)starting durable log at a peer's TCP
// catch-up listener (DecisionLog.CatchupAddr): before the engine
// starts, the committed prefix missing past the recovered WAL frontier
// is fetched from the peer and persisted. Requires WithLogStore.
func WithCatchupPeer(addr string) Option {
	return optionFunc(func(c *Config) { c.catchupAddr = addr })
}

// WithCatchupFrom is the in-process form of WithCatchupPeer: the
// missing committed prefix is fetched from a running peer DecisionLog in
// this process. Requires WithLogStore.
func WithCatchupFrom(peer *DecisionLog) Option {
	return optionFunc(func(c *Config) { c.catchupPeer = peer })
}
