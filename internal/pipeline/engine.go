package pipeline

import (
	"context"
	"crypto/sha256"
	"fmt"
	"sync"
	"time"

	"github.com/fastba/fastba/internal/bitstring"
	"github.com/fastba/fastba/internal/core"
	"github.com/fastba/fastba/internal/netrun"
	"github.com/fastba/fastba/internal/simnet"
	"github.com/fastba/fastba/internal/store"
)

// ErrClosed reports an append on a cleanly closed log — as opposed to a
// log that failed (instance timeout) or was aborted by context
// cancellation, whose appends return the recorded fatal error.
var ErrClosed = fmt.Errorf("pipeline: log closed")

// Config parameterizes one decision log.
type Config struct {
	// N is the system size; Params the protocol geometry (zero value:
	// core.DefaultParams(N)).
	N      int
	Params core.Params
	// Seed keys everything derived: corruption, per-instance knowledge,
	// junk values and per-(instance, node) private randomness.
	Seed uint64
	// CorruptFrac is the fraction of fail-silent Byzantine nodes, fixed for
	// the whole log (the adversary is non-adaptive).
	CorruptFrac float64
	// KnowFrac is the per-instance fraction of correct nodes that start
	// knowing the instance's value; the rest hold a shared junk candidate.
	KnowFrac float64
	// Depth bounds the instances this engine has sequenced and not yet
	// committed (≥ 1).
	Depth int
	// Need is how many hosted correct nodes must decide before an instance
	// commits (0: every one of them). A decision carries its poll quorum
	// certificate, so a host whose peers hold the rest of the population
	// can commit on one.
	Need int
	// InstanceTimeout fails the log when a head instance this engine
	// sequenced does not commit in time (default 30s). Lossy fault plans
	// can legitimately destroy an instance's liveness; the timeout turns
	// that into a reported error instead of a hang. Instances registered
	// through Open never fail the log — their host repairs them from peers.
	InstanceTimeout time.Duration
	// ReproposeAfter is how long a head instance this engine sequenced may
	// sit undecided before it is re-opened with a bumped attempt (default
	// 2s). A reopen rebuilds every hosted protocol node of the instance
	// under fresh poll labels and quorum geometry — the retry that turns
	// the protocol's almost-everywhere, per-run guarantee into liveness —
	// and goes out through Broadcast again, reaching hosts that missed the
	// first one.
	ReproposeAfter time.Duration
	// Faults is the fault plan installed on the transport's send path.
	Faults simnet.FaultPlan
	// Net carries the TCP transport's supervision knobs — dial timeout,
	// redial policy, heartbeat detector, send-queue bound, chaos plan —
	// and, in Net.Hosted, which node ids this engine hosts (nil: all N).
	// StartFabric ignores everything but Hosted.
	Net netrun.Options
	// Broadcast, when set, ships every open this engine sequences — the
	// first and each reproposal — to the hosts of the other nodes, whose
	// engines take it through Open. Nil when every node is hosted here.
	Broadcast func(seq uint64, attempt uint32, payloads [][]byte)
	// OnCommit, when set, observes every committed entry, in sequence
	// order, from the engine's commit goroutine; repaired reports a commit
	// taken from a peer's record (Repair) instead of local decisions.
	OnCommit func(e Entry, repaired bool)
	// Store, when set, makes the log durable: the engine seeds its
	// committed prefix from the store's recovered records (new instances
	// open at the recovered frontier) and persists every in-order commit
	// to the store BEFORE surfacing it through WaitSeq/OnCommit — a
	// surfaced commit is always already durable.
	Store *store.Store
}

// Entry is one committed decision-log record.
type Entry struct {
	// Seq is the instance sequence number; committed seqs are contiguous
	// from 0.
	Seq uint64
	// Value is the decided value — the digest of the batch, as agreed by
	// the instance's deciders.
	Value bitstring.String
	// Payloads are the client payloads folded into this instance.
	Payloads [][]byte
	// Deciders and Correct count the hosted correct nodes that decided
	// before the commit and the hosted correct population.
	Deciders int
	Correct  int
	// DistinctValues counts distinct decided values among deciders at
	// commit time (> 1 is a log-agreement violation).
	DistinctValues int
	// CertDeficits counts deciders whose re-derived quorum certificate
	// fell short of the strict poll-list majority (must stay 0).
	CertDeficits int
	// MatchesProposal reports whether Value equals the batch digest the
	// engine proposed (a validity probe).
	MatchesProposal bool
	// Opened and Committed bound the instance's lifetime.
	Opened    time.Time
	Committed time.Time
}

// instance is one open (not yet committed) agreement instance.
type instance struct {
	seq      uint64
	proposed bitstring.String
	payloads [][]byte
	opened   time.Time
	lastOpen time.Time // last (re)open — paces the reproposals
	attempt  uint32    // current run of the randomized protocol

	// decided holds the node ids that decided: a node counts once across
	// reopens, however often its rebuilt child re-decides.
	decided      bitstring.Bitset
	values       map[bitstring.MapKey]int
	value        bitstring.String // a maximally decided value
	valueCount   int
	certDeficits int

	// slot marks an instance this engine sequenced: it holds a Depth token,
	// and the engine owes it reproposals, the timeout and the drain at Close.
	slot      bool
	committed chan struct{} // closed when the instance commits or the log fails
}

// Engine is the decision log's one commit engine: it sequences appends,
// opens instances with attempts, collects one decision per hosted node,
// commits strictly in order, persists before surfacing, reproposes a
// stalled head and drains at Close. Its hosts differ only in data — which
// node ids live here, how many deciders commit, whether opens are shipped
// to peers and whether peers' records repair the log (DESIGN.md §7).
// Build it with New, start exactly one transport (StartFabric, StartTCP,
// or Start over one the host assembled from Nodes), feed it with Append —
// or, on a host that follows another engine's sequencing, Open and
// Repair — then Close it.
type Engine struct {
	cfg     Config
	params  core.Params
	corrupt []bool
	live    []int // hosted correct node ids, ascending
	need    int   // deciders required to commit
	nodes   []simnet.Node

	fab     *simnet.Fabric
	cluster *netrun.Cluster
	inject  func(simnet.Envelope)
	// recovered counts entries seeded from the store at construction;
	// catchupAddr is the TCP catch-up listener's address (StartTCP with a
	// store).
	recovered   int
	catchupAddr string

	slots   chan struct{} // Depth tokens: held while a sequenced instance is open
	wake    chan struct{} // commit-watcher kick (capacity 1)
	done    chan struct{} // watcher shutdown
	failCh  chan struct{} // closed on the first fatal error, releasing Append waiters
	watcher sync.WaitGroup

	mu        sync.Mutex
	nextSeq   uint64
	commitSeq uint64
	open      map[uint64]*instance
	// repaired holds peer records handed in through Repair, by seq, until
	// advance reaches them.
	repaired    map[uint64]store.Record
	nRepaired   int
	nReproposed int
	// instPool recycles committed instance shells (struct, values map,
	// decided set); the committed channel is rebuilt per use — a closed
	// channel cannot be reused. Guarded by mu.
	instPool []*instance
	entries  []Entry
	failed   error
	closed   bool

	teardown sync.Once
}

// remoteNode stands in for a node another process hosts; the transport
// carries every envelope addressed to it, so it is never activated here.
type remoteNode struct{}

func (remoteNode) Init(simnet.Context)                         {}
func (remoteNode) Deliver(simnet.Context, int, simnet.Message) {}

// New validates the configuration and assembles the node vector. The
// engine is inert until a transport starts.
func New(cfg Config) (*Engine, error) {
	if cfg.N < 8 {
		return nil, fmt.Errorf("pipeline: n = %d too small (need ≥ 8)", cfg.N)
	}
	if cfg.Params.N == 0 {
		cfg.Params = core.DefaultParams(cfg.N)
	}
	if cfg.Params.N != cfg.N {
		return nil, fmt.Errorf("pipeline: params are for n = %d, log has n = %d", cfg.Params.N, cfg.N)
	}
	if err := cfg.Params.Validate(); err != nil {
		return nil, err
	}
	if cfg.Params.StringBits > 8*sha256.Size {
		return nil, fmt.Errorf("pipeline: StringBits %d exceeds the %d-bit value digest", cfg.Params.StringBits, 8*sha256.Size)
	}
	if cfg.Depth <= 0 {
		cfg.Depth = 1
	}
	if cfg.InstanceTimeout <= 0 {
		cfg.InstanceTimeout = 30 * time.Second
	}
	if cfg.ReproposeAfter <= 0 {
		cfg.ReproposeAfter = 2 * time.Second
	}
	if !(cfg.CorruptFrac >= 0 && cfg.CorruptFrac < 1.0/3) {
		return nil, fmt.Errorf("pipeline: corrupt fraction %v outside [0, 1/3)", cfg.CorruptFrac)
	}
	if !(cfg.KnowFrac >= 0 && cfg.KnowFrac <= 1) {
		return nil, fmt.Errorf("pipeline: know fraction %v outside [0, 1]", cfg.KnowFrac)
	}
	if err := cfg.Faults.Validate(cfg.N); err != nil {
		return nil, err
	}
	hosted := cfg.Net.Hosted
	if hosted != nil && len(hosted) != cfg.N {
		return nil, fmt.Errorf("pipeline: %d hosted flags for n = %d", len(hosted), cfg.N)
	}

	e := &Engine{
		cfg:    cfg,
		params: cfg.Params,
		// Non-adaptive corruption, fixed for the log's lifetime (the shared
		// cross-runtime derivation — derive.go).
		corrupt: CorruptSet(cfg.Seed, cfg.N, cfg.CorruptFrac),
		nodes:   make([]simnet.Node, cfg.N),
		slots:   make(chan struct{}, cfg.Depth),
		wake:    make(chan struct{}, 1),
		done:    make(chan struct{}),
		failCh:  make(chan struct{}),
		open:    make(map[uint64]*instance),
	}
	smp := NewAttemptSamplers(cfg.Params)
	for id := range e.nodes {
		if hosted != nil && !hosted[id] {
			e.nodes[id] = remoteNode{}
			continue
		}
		e.nodes[id] = NewMuxNode(id, e.corrupt[id], cfg.Params, smp, cfg.Seed, e.onDecision)
		if !e.corrupt[id] {
			e.live = append(e.live, id)
		}
	}
	e.need = cfg.Need
	if e.need == 0 {
		e.need = len(e.live)
	}
	if e.need < 1 || e.need > len(e.live) {
		return nil, fmt.Errorf("pipeline: %d deciders required of %d hosted correct nodes", cfg.Need, len(e.live))
	}

	// A durable log resumes where its store's recovered prefix ends: the
	// recovered entries seed the committed log (never re-surfaced through
	// OnCommit — their commits were surfaced in a previous life) and new
	// instances open at the recovered frontier.
	if cfg.Store != nil {
		for _, r := range cfg.Store.Records() {
			e.entries = append(e.entries, EntryOf(r))
		}
		e.commitSeq = cfg.Store.Frontier()
		e.nextSeq = e.commitSeq
		e.recovered = len(e.entries)
	}
	return e, nil
}

// RecordOf converts a committed entry to its durable form.
func RecordOf(en Entry) store.Record {
	return store.Record{
		Seq:             en.Seq,
		Value:           en.Value,
		Payloads:        en.Payloads,
		Deciders:        en.Deciders,
		Correct:         en.Correct,
		DistinctValues:  en.DistinctValues,
		CertDeficits:    en.CertDeficits,
		MatchesProposal: en.MatchesProposal,
		OpenedNs:        en.Opened.UnixNano(),
		CommittedNs:     en.Committed.UnixNano(),
	}
}

// EntryOf reverses RecordOf for recovered and repaired records.
func EntryOf(r store.Record) Entry {
	return Entry{
		Seq:             r.Seq,
		Value:           r.Value,
		Payloads:        r.Payloads,
		Deciders:        r.Deciders,
		Correct:         r.Correct,
		DistinctValues:  r.DistinctValues,
		CertDeficits:    r.CertDeficits,
		MatchesProposal: r.MatchesProposal,
		Opened:          time.Unix(0, r.OpenedNs),
		Committed:       time.Unix(0, r.CommittedNs),
	}
}

// Correct returns the number of hosted correct nodes.
func (e *Engine) Correct() int { return len(e.live) }

// Recovered returns how many committed entries were seeded from the
// store's recovered prefix at construction.
func (e *Engine) Recovered() int { return e.recovered }

// Nodes returns the node vector a transport is built from: the MuxNode of
// every hosted id, an inert placeholder for the rest.
func (e *Engine) Nodes() []simnet.Node { return e.nodes }

// Start runs the log over a transport the host assembled around Nodes;
// inject puts a control message into a hosted node's mailbox. The host
// stops that transport itself, after Close or Abort has returned.
func (e *Engine) Start(inject func(simnet.Envelope)) {
	e.inject = inject
	e.watcher.Add(1)
	go e.watch()
}

// StartFabric runs the log over the in-process loopback Fabric
// (CounterClock: fault windows and decision times are per-node delivery
// counts, the sustained-load analogue of rounds).
func (e *Engine) StartFabric() {
	e.fab = simnet.NewFabric(e.nodes, simnet.CounterClock, true)
	if !e.cfg.Faults.IsZero() {
		e.fab.SetFaults(e.cfg.Faults)
	}
	e.fab.Start()
	e.Start(e.fab.InjectLocal)
}

// StartTCP runs the log over real loopback TCP sockets (one listener per
// node, lazily dialed mesh — internal/netrun).
func (e *Engine) StartTCP() error {
	cluster, err := netrun.NewWithOptions(e.nodes, e.cfg.Net)
	if err != nil {
		return err
	}
	if !e.cfg.Faults.IsZero() {
		cluster.InjectFaults(e.cfg.Faults)
	}
	addr, err := cluster.ServeCatchup(e.CatchupRecords)
	if err != nil {
		cluster.Close()
		return err
	}
	e.catchupAddr = addr
	cluster.Start()
	e.cluster = cluster
	e.Start(cluster.Inject)
	return nil
}

// CatchupAddr returns the TCP catch-up listener's address ("" on the
// fabric runtime, whose surface is Catchup).
func (e *Engine) CatchupAddr() string { return e.catchupAddr }

// CatchupRecords serves one catch-up chunk: the committed entries
// [from, from+max), encoded as store records. It is the handler behind
// every transport's catch-up surface.
func (e *Engine) CatchupRecords(from uint64, max int) [][]byte {
	e.mu.Lock()
	defer e.mu.Unlock()
	if from >= e.commitSeq || max <= 0 {
		return nil
	}
	end := from + uint64(max)
	if end > e.commitSeq {
		end = e.commitSeq
	}
	out := make([][]byte, 0, end-from)
	for seq := from; seq < end; seq++ {
		out = append(out, store.AppendRecord(nil, RecordOf(e.entries[seq])))
	}
	return out
}

// Catchup serves one chunk to an in-process peer (the analogue of
// netrun.FetchCatchup against CatchupAddr). ok reports whether the engine
// is serving — a stopped or failed engine no longer is, exactly like a
// dead TCP listener.
func (e *Engine) Catchup(from uint64, max int) ([][]byte, bool) {
	e.mu.Lock()
	live := !e.closed && e.failed == nil
	e.mu.Unlock()
	if !live {
		return nil, false
	}
	return e.CatchupRecords(from, max), true
}

// Append sequences the next instance with the given batch and opens it,
// blocking while the pipeline is at Depth. It returns the assigned
// sequence number; the commit is observed with WaitSeq or OnCommit.
func (e *Engine) Append(ctx context.Context, payloads [][]byte) (uint64, error) {
	select {
	case e.slots <- struct{}{}:
	case <-ctx.Done():
		return 0, ctx.Err()
	case <-e.failCh:
		return 0, e.runError()
	case <-e.done:
		return 0, e.runError()
	}

	e.mu.Lock()
	if err := e.appendBlocked(); err != nil {
		e.mu.Unlock()
		<-e.slots
		return 0, err
	}
	seq := e.nextSeq
	e.nextSeq++
	if seq > MaxSeq {
		e.failLocked(fmt.Errorf("pipeline: instance tag overflow at seq %d", seq))
		e.mu.Unlock()
		<-e.slots
		return 0, e.runError()
	}
	inst := e.register(seq, payloads)
	inst.slot = true
	proposed := inst.proposed
	e.mu.Unlock()

	e.propose(seq, 0, proposed, payloads)
	return seq, nil
}

// Open is the follower entry point: it takes an open that another engine
// sequenced and shipped through its Broadcast. The instance registers
// without a Depth token and the hosted nodes start from the derived
// initial beliefs. An already committed sequence, a duplicate or stale
// attempt and one past MaxAttempt, which no instance tag can carry, are
// dropped; a higher attempt re-opens the hosted nodes, so the
// undecided ones re-run the instance under fresh labels.
func (e *Engine) Open(seq uint64, attempt uint32, payloads [][]byte) {
	e.mu.Lock()
	if e.failed != nil || e.closed || seq < e.commitSeq || seq > MaxSeq || attempt > MaxAttempt {
		e.mu.Unlock()
		return
	}
	inst := e.open[seq]
	if inst != nil && attempt <= inst.attempt {
		e.mu.Unlock()
		return
	}
	if inst == nil {
		inst = e.register(seq, payloads)
		if seq >= e.nextSeq {
			e.nextSeq = seq + 1
		}
	}
	inst.attempt = attempt
	inst.lastOpen = time.Now()
	proposed := inst.proposed
	e.mu.Unlock()

	e.openInstance(seq, attempt, proposed)
	e.kick()
}

// Repair hands the engine committed records fetched from a peer's log, a
// contiguous run from the frontier the fetch asked for. advance commits
// each in place of local decisions once it is the head, so a host closes
// what it cannot decide itself: a restart gap, a missed broadcast, hosted
// nodes that all wedged. It returns how many records were still ahead of
// the frontier.
func (e *Engine) Repair(recs []store.Record) int {
	n := 0
	e.mu.Lock()
	for _, rec := range recs {
		if rec.Seq < e.commitSeq {
			continue
		}
		if e.repaired == nil {
			e.repaired = make(map[uint64]store.Record)
		}
		e.repaired[rec.Seq] = rec
		n++
	}
	e.mu.Unlock()
	if n > 0 {
		e.kick()
	}
	return n
}

// register builds the open instance for seq from a recycled shell or a
// fresh one. Callers hold e.mu.
func (e *Engine) register(seq uint64, payloads [][]byte) *instance {
	var inst *instance
	if n := len(e.instPool); n > 0 {
		inst = e.instPool[n-1]
		e.instPool = e.instPool[:n-1]
	} else {
		inst = &instance{values: make(map[bitstring.MapKey]int, 1)}
	}
	inst.seq = seq
	inst.proposed = BatchValue(e.cfg.Seed, e.params.StringBits, seq, payloads)
	inst.payloads = payloads
	inst.opened = time.Now()
	inst.lastOpen = inst.opened
	inst.committed = make(chan struct{})
	e.open[seq] = inst
	return inst
}

// putInstance recycles a committed instance shell. Callers hold e.mu and
// guarantee the instance is no longer reachable through e.open — late
// deciders find nil there and waiters resolve through e.entries, so the
// only outstanding references are commit channels captured under the lock
// before the recycle.
func (e *Engine) putInstance(inst *instance) {
	clear(inst.values)
	inst.decided.Reset()
	*inst = instance{values: inst.values, decided: inst.decided}
	e.instPool = append(e.instPool, inst)
}

// appendBlocked reports why new instances cannot open, if they cannot.
func (e *Engine) appendBlocked() error {
	if e.failed != nil {
		return e.failed
	}
	if e.closed {
		return ErrClosed
	}
	return nil
}

// propose opens (seq, attempt) on the hosted nodes and ships it to the
// hosts of the others.
func (e *Engine) propose(seq uint64, attempt uint32, value bitstring.String, payloads [][]byte) {
	e.openInstance(seq, attempt, value)
	if e.cfg.Broadcast != nil {
		e.cfg.Broadcast(seq, attempt, payloads)
	}
}

// openInstance injects MsgOpen into every hosted correct node with the
// deterministic per-node initial beliefs of instance seq. The derivation
// covers the whole population (the shared cross-runtime derivation —
// derive.go): an engine hosting a slice must consume the same draws.
func (e *Engine) openInstance(seq uint64, attempt uint32, value bitstring.String) {
	msgs := OpenMsgs(e.cfg.Seed, e.params.StringBits, e.cfg.KnowFrac, e.corrupt, seq, attempt, value)
	for _, id := range e.live {
		e.inject(simnet.Envelope{From: id, To: id, Msg: msgs[id]})
	}
}

// onDecision is the MuxNode callback: record one node's decision and kick
// the commit watcher. A node decides an instance once across reopens — a
// rebuilt child that re-decides is deduplicated here — and decisions
// arriving after the instance committed are dropped.
func (e *Engine) onDecision(node int, seq uint64, value bitstring.String, support, need int) {
	e.mu.Lock()
	inst := e.open[seq]
	if inst != nil && inst.decided.Set(node) {
		k := value.MapKey()
		inst.values[k]++
		if inst.values[k] > inst.valueCount {
			inst.valueCount = inst.values[k]
			inst.value = value
		}
		if support < need {
			inst.certDeficits++
		}
	}
	e.mu.Unlock()
	if inst != nil {
		e.kick()
	}
}

// kick wakes the commit watcher without blocking.
func (e *Engine) kick() {
	select {
	case e.wake <- struct{}{}:
	default:
	}
}

// watch is the commit goroutine: it advances the in-order commit frontier
// on every decision signal and polls for the stalled-head timers.
func (e *Engine) watch() {
	defer e.watcher.Done()
	ticker := time.NewTicker(10 * time.Millisecond)
	defer ticker.Stop()
	for {
		select {
		case <-e.done:
			return
		case <-e.wake:
		case <-ticker.C:
		}
		e.advance()
	}
}

// advance commits head instances in sequence order — through local
// decisions when the threshold is met, through a repaired peer record
// when Repair filled the gap first — and runs the stalled-head timers of
// the instances this engine sequenced: a reproposal after ReproposeAfter,
// the log's failure after InstanceTimeout.
func (e *Engine) advance() {
	for {
		e.mu.Lock()
		if e.failed != nil {
			e.mu.Unlock()
			return
		}
		head := e.commitSeq
		inst := e.open[head]
		rec, repaired := e.repaired[head]
		var entry Entry
		switch {
		case inst != nil && inst.decided.Count() >= e.need:
			repaired = false
			entry = Entry{
				Seq:             inst.seq,
				Value:           inst.value,
				Payloads:        inst.payloads,
				Deciders:        inst.decided.Count(),
				Correct:         len(e.live),
				DistinctValues:  len(inst.values),
				CertDeficits:    inst.certDeficits,
				MatchesProposal: inst.value.Equal(inst.proposed),
				Opened:          inst.opened,
				Committed:       time.Now(),
			}
		case repaired:
			entry = EntryOf(rec)
		case inst != nil && inst.slot && time.Since(inst.opened) > e.cfg.InstanceTimeout:
			e.failLocked(fmt.Errorf("pipeline: instance %d: %d of %d required deciders after %v",
				inst.seq, inst.decided.Count(), e.need, e.cfg.InstanceTimeout))
			e.mu.Unlock()
			return
		case inst != nil && inst.slot && time.Since(inst.lastOpen) > e.cfg.ReproposeAfter && inst.attempt < MaxAttempt:
			// One run of the randomized protocol left hosted nodes wedged:
			// run it again. Every attempt proposes the same derived value, so
			// a node that already decided can only re-decide identically.
			inst.attempt++
			inst.lastOpen = time.Now()
			e.nReproposed++
			attempt, proposed, payloads := inst.attempt, inst.proposed, inst.payloads
			e.mu.Unlock()
			e.propose(head, attempt, proposed, payloads)
			return
		default:
			e.mu.Unlock()
			return
		}
		e.mu.Unlock()

		// Persist before surfacing: the entry reaches the store — durably —
		// before anything observable (WaitSeq, OnCommit, Entries) can see
		// it. The instance stays in e.open across the unlocked append, so a
		// concurrent failLocked (Abort, timeout) still finds and releases
		// it; late decisions mutate counters the snapshot above no longer
		// reads.
		if st := e.cfg.Store; st != nil {
			if err := st.Append(RecordOf(entry)); err != nil {
				e.mu.Lock()
				e.failLocked(fmt.Errorf("pipeline: persist seq %d: %w", entry.Seq, err))
				e.mu.Unlock()
				return
			}
		}

		e.mu.Lock()
		if e.failed != nil {
			// failLocked ran during the persist: it already closed every
			// open instance's commit channel (ours included) and cleared
			// e.open. The entry is durable but never surfaced — recovery
			// replays it, which is exactly what the durability oracle's
			// prefix-extension rule permits.
			e.mu.Unlock()
			return
		}
		delete(e.open, head)
		delete(e.repaired, head)
		e.commitSeq++
		if e.nextSeq < e.commitSeq {
			// Repair ran ahead of everything sequenced or opened here.
			e.nextSeq = e.commitSeq
		}
		e.entries = append(e.entries, entry)
		if repaired {
			e.nRepaired++
		}
		slot := false
		if inst != nil {
			close(inst.committed)
			slot = inst.slot
			e.putInstance(inst)
		}
		e.mu.Unlock()

		if slot {
			<-e.slots // free the pipeline slot
		}
		var closeMsg simnet.Message = MsgClose{Seq: entry.Seq} // boxed once, not per node
		for _, id := range e.live {
			e.inject(simnet.Envelope{From: id, To: id, Msg: closeMsg})
		}
		if e.cfg.OnCommit != nil {
			e.cfg.OnCommit(entry, repaired)
		}
	}
}

// failLocked records the first fatal error and releases every waiter.
// Callers hold e.mu.
func (e *Engine) failLocked(err error) {
	if e.failed != nil {
		return
	}
	e.failed = err
	close(e.failCh)
	for _, inst := range e.open {
		close(inst.committed)
	}
	e.open = make(map[uint64]*instance)
}

// runError returns the recorded fatal error, or a generic closed error.
func (e *Engine) runError() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.failed != nil {
		return e.failed
	}
	return ErrClosed
}

// WaitSeq blocks until instance seq commits and returns its entry.
func (e *Engine) WaitSeq(ctx context.Context, seq uint64) (Entry, error) {
	e.mu.Lock()
	if seq < e.commitSeq {
		entry := e.entries[seq]
		e.mu.Unlock()
		return entry, nil
	}
	if err := e.failed; err != nil {
		e.mu.Unlock()
		return Entry{}, err
	}
	inst := e.open[seq]
	next := e.nextSeq
	// Capture the channel under the lock: once the instance commits its
	// shell is recycled (putInstance), so inst fields must not be read
	// afterwards.
	var committed chan struct{}
	if inst != nil {
		committed = inst.committed
	}
	e.mu.Unlock()
	if inst == nil {
		return Entry{}, fmt.Errorf("pipeline: seq %d not open (next append is %d)", seq, next)
	}
	select {
	case <-committed:
	case <-e.done: // Close abandoned an instance another engine sequenced
	case <-ctx.Done():
		return Entry{}, ctx.Err()
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if seq < e.commitSeq {
		return e.entries[seq], nil
	}
	if e.failed != nil {
		return Entry{}, e.failed
	}
	return Entry{}, fmt.Errorf("pipeline: seq %d released without commit", seq)
}

// CommittedSeq returns instance seq's entry if it has already committed.
func (e *Engine) CommittedSeq(seq uint64) (Entry, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if seq < e.commitSeq {
		return e.entries[seq], true
	}
	return Entry{}, false
}

// Frontier returns the committed frontier: the next sequence to commit.
func (e *Engine) Frontier() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.commitSeq
}

// Repaired returns how many entries committed from a peer's record
// (Repair); Reproposed how many times a stalled head instance was
// re-opened with a bumped attempt.
func (e *Engine) Repaired() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.nRepaired
}

func (e *Engine) Reproposed() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.nReproposed
}

// Failed returns a channel closed on the log's first fatal error (an
// instance timeout, an abort). Waiters holding per-payload state use it
// to resolve promptly instead of discovering the failure at Close.
func (e *Engine) Failed() <-chan struct{} { return e.failCh }

// Entries snapshots the committed log in sequence order.
func (e *Engine) Entries() []Entry {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]Entry(nil), e.entries...)
}

// Err returns the log's fatal error, if any.
func (e *Engine) Err() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.failed
}

// Close drains the log — no new Appends or Opens, every instance this
// engine sequenced gets until the instance timeout to commit — then stops
// the watcher and the transport the engine started. Instances registered
// through Open are not waited for: only their sequencer can repropose
// them, and it may already be gone; the host's store and Repair after a
// restart cover them. It returns the log's fatal error, if any.
func (e *Engine) Close() error {
	e.mu.Lock()
	e.closed = true
	// Capture channels, not instances: a committed shell is recycled.
	waiting := make([]chan struct{}, 0, len(e.open))
	for _, inst := range e.open {
		if inst.slot {
			waiting = append(waiting, inst.committed)
		}
	}
	e.mu.Unlock()
	deadline := time.NewTimer(e.cfg.InstanceTimeout + time.Second)
	defer deadline.Stop()
	for _, committed := range waiting {
		select {
		case <-committed:
		case <-deadline.C:
			e.mu.Lock()
			e.failLocked(fmt.Errorf("pipeline: close: open instances did not drain in %v", e.cfg.InstanceTimeout))
			e.mu.Unlock()
		}
	}
	e.stop()
	return e.Err()
}

// Abort tears the transport down immediately, abandoning open instances
// (the context-cancellation path).
func (e *Engine) Abort() {
	e.mu.Lock()
	e.failLocked(context.Canceled)
	e.mu.Unlock()
	e.stop()
}

// stop shuts the watcher and the engine's own transport down, once.
func (e *Engine) stop() {
	e.teardown.Do(func() {
		close(e.done)
		e.watcher.Wait()
		if e.fab != nil {
			e.fab.Stop()
		}
		if e.cluster != nil {
			e.cluster.Close()
		}
	})
}

// Metrics returns the transport's merged per-node metrics. Call it only
// after Close or Abort.
func (e *Engine) Metrics() *simnet.Metrics {
	if e.cluster != nil {
		return e.cluster.Metrics()
	}
	if e.fab != nil {
		return e.fab.Metrics()
	}
	return nil
}

// NetStats snapshots the TCP transport's connection-supervision counters.
// Unlike Metrics it is safe mid-run (the counters are atomic); the zero
// value is returned on the fabric runtime, which has no connections.
func (e *Engine) NetStats() simnet.NetStats {
	if e.cluster != nil {
		return e.cluster.NetStats()
	}
	return simnet.NetStats{}
}
