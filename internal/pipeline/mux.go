// Package pipeline chains agreement instances into a decision log: a
// sequence of AER executions multiplexed over one long-lived transport
// (the loopback Fabric or the netrun TCP cluster), with batched values,
// bounded instance pipelining and in-order commits.
//
// The paper's protocol decides a single value; a replicated log runs it as
// a service. This package supplies the machinery the one-shot runners do
// not have: per-node multiplexers (MuxNode) that demultiplex
// instance-tagged traffic (simnet.InstMsg) onto per-instance core.Node
// children recycled through a pool (core.Node.Reset), and an Engine that
// opens instances as client batches arrive, detects decisions, commits
// instances strictly in sequence order, re-runs a stalled one and retires
// them. The Engine is the log's only commit engine: the in-process
// DecisionLog hosts every node on it, a balogd daemon (internal/server)
// its slice of them.
//
// Determinism contract: the committed log — the sequence of (Seq, Value)
// pairs — is a pure function of (seed, batch contents) whenever the value
// digest decides every instance (the lossless-fault envelope): corruption,
// per-instance knowledge and junk derive from the seed alone, and a
// correct node's decision success depends only on which poll-list members
// are correct, not on delivery order. The cross-runtime conformance test
// locks this: the same seed and workload produce byte-identical committed
// logs on the in-process Fabric, over real TCP sockets and on a cluster of
// daemons.
package pipeline

import (
	"sync/atomic"

	"github.com/fastba/fastba/internal/bitstring"
	"github.com/fastba/fastba/internal/core"
	"github.com/fastba/fastba/internal/prng"
	"github.com/fastba/fastba/internal/simnet"
)

// maxPendingPerInstance bounds the early-arrival queue of one instance: a
// correct engine opens every instance on every node, so queued messages
// are a short-lived race artifact; an unbounded queue would hand a
// flooding adversary a memory lever.
const maxPendingPerInstance = 1 << 14

// Instance tags pack (seq, attempt) into the u32 envelope header: the low
// 24 bits carry the sequence number, the high 8 bits the attempt. Tagging
// traffic with the attempt is what lets a reopened instance re-run
// cleanly across daemons whose reopens are not synchronized: a node still
// on the old attempt buffers the new attempt's traffic (instead of
// feeding it to a child whose flood-dedup maps would silently eat it) and
// replays it when its own reopen lands, while stale old-attempt traffic
// is dropped.
const (
	tagSeqBits = 24
	// MaxSeq is the largest instance sequence number the tag can carry —
	// the decision log's capacity.
	MaxSeq = 1<<tagSeqBits - 1
	// MaxAttempt is the largest instance attempt; reproposals stop bumping
	// there (the leader's instance timeout is the backstop beyond it).
	MaxAttempt = 1<<(32-tagSeqBits) - 1
)

// PackTag builds the envelope instance tag for (seq, attempt).
func PackTag(seq uint64, attempt uint32) uint32 {
	return uint32(seq&MaxSeq) | attempt<<tagSeqBits
}

// MsgOpen is the engine→node control message opening instance Seq on the
// receiving node with the given initial candidate (the zero String for a
// node that starts with no candidate). It is injected locally into each
// node's mailbox and never crosses the wire, so it has no codec in
// internal/wire.
type MsgOpen struct {
	Seq uint64
	// Attempt is the instance's run counter. Attempt 0 is the normal open;
	// a higher attempt re-opens a stalled, undecided instance with a fresh
	// attempt-keyed RNG (new poll labels — the randomized protocol's
	// per-run success draw is re-rolled). A decided child ignores reopens.
	Attempt uint32
	Initial bitstring.String
}

// WireSize returns the metered payload size.
func (m MsgOpen) WireSize() int { return 12 + m.Initial.WireSize() }

// Kind returns the metric kind tag.
func (m MsgOpen) Kind() string { return "log-open" }

// MsgClose retires instance Seq on the receiving node: its child returns
// to the reuse pool and later traffic for the instance is dropped. Like
// MsgOpen it is local-only.
type MsgClose struct {
	Seq uint64
}

// WireSize returns the metered payload size.
func (m MsgClose) WireSize() int { return 8 }

// Kind returns the metric kind tag.
func (m MsgClose) Kind() string { return "log-close" }

// DecisionFunc receives one node's decision for one instance, with the
// certificate re-derived by the deciding node's own delivery goroutine
// (the only context in which reading core.Node protocol state is
// race-free).
type DecisionFunc func(node int, seq uint64, value bitstring.String, support, need int)

// pendingEnv is a message that arrived for an instance the node has not
// opened yet (the open control message races protocol traffic from nodes
// that opened earlier).
type pendingEnv struct {
	from    int
	attempt uint32
	msg     simnet.Message
}

// MuxNode is one physical node of the decision log: a simnet.Node that
// demultiplexes instance-tagged traffic onto per-instance core.Node
// children. All state is owned by the node's delivery goroutine (runners
// never activate one node concurrently), so MuxNode takes no locks;
// decisions leave the goroutine only through the DecisionFunc callback.
type MuxNode struct {
	id         int
	corrupt    bool
	params     core.Params
	smp        *AttemptSamplers
	seed       uint64
	onDecision DecisionFunc

	children map[uint64]*muxChild
	pool     []*core.Node
	pending  map[uint64][]pendingEnv
	// retired is the retirement watermark: instances below it are closed
	// and their traffic is dropped. Closes arrive in commit order, so a
	// single watermark suffices.
	retired uint64

	// ictx is the reusable instance-tagging Context wrapper (one per node,
	// re-pointed per delivery, so the hot path allocates nothing).
	ictx instCtx
}

type muxChild struct {
	node    *core.Node
	decided bool
	attempt uint32
}

// NewMuxNode builds the multiplexer for node id. Corrupt nodes are
// fail-silent for the whole log (the log's Byzantine model; richer
// per-instance adversaries stay with the one-shot runners). smp is the
// samplers table every node of the engine shares.
func NewMuxNode(id int, corrupt bool, params core.Params, smp *AttemptSamplers, seed uint64, onDecision DecisionFunc) *MuxNode {
	return &MuxNode{
		id:         id,
		corrupt:    corrupt,
		params:     params,
		smp:        smp,
		seed:       seed,
		onDecision: onDecision,
		children:   make(map[uint64]*muxChild),
		pending:    make(map[uint64][]pendingEnv),
	}
}

// Init implements simnet.Node. Instances open on demand via MsgOpen, so
// there is nothing to do at fabric start.
func (m *MuxNode) Init(simnet.Context) {}

// Deliver implements simnet.Node: control messages manage the instance
// table; instance-tagged messages arriving as InstMsg wrappers (runners
// without envelope-header tags) route to their child.
func (m *MuxNode) Deliver(ctx simnet.Context, from simnet.NodeID, msg simnet.Message) {
	switch t := msg.(type) {
	case MsgOpen:
		m.open(ctx, t)
	case MsgClose:
		m.close(t.Seq)
	case simnet.InstMsg:
		m.route(ctx, from, t.Inner, t.Inst)
	}
}

// DeliverTagged implements simnet.TaggedNode: the Fabric hands over the
// instance tag from the envelope header, wrapper-free.
func (m *MuxNode) DeliverTagged(ctx simnet.Context, from simnet.NodeID, msg simnet.Message, inst uint32) {
	m.route(ctx, from, msg, inst)
}

// open starts instance t.Seq on this node: a pooled child is rewound via
// Reset, or a fresh one is built, and its Init runs under the
// instance-tagging context. Early-arrived traffic replays in arrival
// order. A reopen (higher attempt) discards the child — decided or not —
// and rebuilds it under an attempt-keyed RNG: the system-layer retry for
// a run of the randomized protocol that left nodes wedged. Every child
// must re-run, not just the wedged ones, because the protocol's per-(x,s)
// flood caps make a node that already forwarded or answered a requester
// ignore that requester's fresh poll. A decision already published
// survives in the decision log (the publish is one-shot and the log
// dedups per node), and every attempt proposes the same derived value, so
// a rebuilt decider can only re-decide identically.
func (m *MuxNode) open(ctx simnet.Context, t MsgOpen) {
	if m.corrupt || t.Seq < m.retired {
		return
	}
	if prev := m.children[t.Seq]; prev != nil {
		if t.Attempt <= prev.attempt {
			return
		}
		delete(m.children, t.Seq)
		m.pool = append(m.pool, prev.node)
	}
	key := prng.Hash2(t.Seq, uint64(m.id))
	if t.Attempt > 0 {
		// Attempt 0 keeps the original derivation so single-process engine
		// runs replay byte-identically; retries draw a fresh label stream
		// AND fresh quorum geometry. Re-rolling only the labels is not
		// enough: the pull quorums H(s, x) are a pure function of (s, x),
		// and the proposal digest is identical every attempt, so a run
		// wedged because dark nodes hold a quorum's majority stays wedged
		// under every label draw. Salting the sampler seed by attempt makes
		// retries independent draws of the quorum geometry while the decided
		// value — the safety anchor — stays the same.
		key = prng.Hash3(t.Seq, uint64(m.id), uint64(t.Attempt))
	}
	smp := m.smp.For(t.Attempt)
	rng := prng.New(prng.DeriveKey(m.seed, "log/node", key))
	var node *core.Node
	if n := len(m.pool); n > 0 {
		node = m.pool[n-1]
		m.pool = m.pool[:n-1]
		node.Reset(t.Initial, smp, rng)
	} else {
		node = core.NewNode(m.id, t.Initial, m.params, smp, rng)
	}
	child := &muxChild{node: node, attempt: t.Attempt}
	m.children[t.Seq] = child
	ictx := m.tag(ctx, PackTag(t.Seq, t.Attempt))
	node.Init(ictx)
	if queued := m.pending[t.Seq]; queued != nil {
		delete(m.pending, t.Seq)
		// Replay only this attempt's traffic; older attempts are dead runs,
		// newer ones wait for their own reopen to land here.
		var ahead []pendingEnv
		for _, p := range queued {
			switch {
			case p.attempt == t.Attempt:
				node.Deliver(ictx, p.from, p.msg)
			case p.attempt > t.Attempt:
				ahead = append(ahead, p)
			}
		}
		if ahead != nil {
			m.pending[t.Seq] = ahead
		}
	}
	m.checkDecided(child, t.Seq)
}

// AttemptSamplers is the table of samplers one engine's MuxNodes share, one
// entry per instance attempt. Attempt 0 uses the base geometry; reopen
// attempt k uses the base geometry with an attempt-salted sampler seed.
// Every daemon derives the same salt from shared inputs, so the cluster
// agrees on each attempt's quorums. The table is bounded by MaxAttempt and
// shared across instances — the salt is per attempt, not per (seq,
// attempt), because distinct sequences already decouple through the string
// hash inside the samplers — and across the engine's nodes, so an attempt's
// sampler rows are derived once for all of them. Entries are built on first
// use and published lock-free: the nodes run on parallel fabric workers.
type AttemptSamplers struct {
	params  core.Params
	attempt [MaxAttempt + 1]atomic.Pointer[core.Samplers]
}

// NewAttemptSamplers returns the table for the given base geometry.
func NewAttemptSamplers(params core.Params) *AttemptSamplers {
	a := &AttemptSamplers{params: params}
	a.attempt[0].Store(core.NewSamplers(params))
	return a
}

// For returns the samplers of the given attempt, building them on first
// use. Racing callers get the same pointer.
func (a *AttemptSamplers) For(attempt uint32) *core.Samplers {
	slot := &a.attempt[attempt]
	if s := slot.Load(); s != nil {
		return s
	}
	p := a.params
	p.SamplerSeed = prng.Hash2(p.SamplerSeed, uint64(attempt))
	slot.CompareAndSwap(nil, core.NewSamplers(p))
	return slot.Load()
}

// close retires instance seq: the child returns to the pool and the
// watermark advances so stragglers are dropped.
func (m *MuxNode) close(seq uint64) {
	if child, ok := m.children[seq]; ok {
		delete(m.children, seq)
		m.pool = append(m.pool, child.node)
	}
	delete(m.pending, seq)
	if seq+1 > m.retired {
		m.retired = seq + 1
	}
}

// route delivers one instance-tagged message, queueing it when the
// instance (or the message's attempt of it) is not open here yet and
// dropping it when the instance is retired or the attempt is stale.
func (m *MuxNode) route(ctx simnet.Context, from int, inner simnet.Message, inst uint32) {
	seq := uint64(inst & MaxSeq)
	attempt := inst >> tagSeqBits
	if m.corrupt || seq < m.retired {
		return
	}
	child, ok := m.children[seq]
	if ok && attempt < child.attempt {
		return
	}
	if !ok || attempt > child.attempt {
		if q := m.pending[seq]; len(q) < maxPendingPerInstance {
			m.pending[seq] = append(q, pendingEnv{from: from, attempt: attempt, msg: inner})
		}
		return
	}
	child.node.Deliver(m.tag(ctx, inst), from, inner)
	m.checkDecided(child, seq)
}

// checkDecided publishes a child's decision exactly once, with the quorum
// certificate re-derived here — on the delivery goroutine that owns the
// child's state — so the engine never reads racy protocol internals.
func (m *MuxNode) checkDecided(child *muxChild, seq uint64) {
	if child.decided || child.node.DecidedAt() < 0 {
		return
	}
	child.decided = true
	value, _ := child.node.Decided()
	support, need, _ := child.node.DecisionCert()
	if m.onDecision != nil {
		m.onDecision(m.id, seq, value, support, need)
	}
}

// tag re-points the reusable instance context at the current delivery;
// inst is the packed (seq, attempt) tag stamped on outgoing sends.
func (m *MuxNode) tag(ctx simnet.Context, inst uint32) *instCtx {
	m.ictx.inner = ctx
	m.ictx.tagger, _ = ctx.(simnet.TaggedSender)
	m.ictx.inst = inst
	return &m.ictx
}

// instCtx wraps a runner Context so every send is instance-tagged: through
// the envelope header when the runner supports it (the Fabric — no
// per-send wrapper allocation), through an InstMsg wrapper otherwise.
type instCtx struct {
	inner  simnet.Context
	tagger simnet.TaggedSender
	inst   uint32
}

// Now returns the underlying runner clock.
func (c *instCtx) Now() int { return c.inner.Now() }

// Send stamps the instance tag onto the outgoing message.
func (c *instCtx) Send(to simnet.NodeID, msg simnet.Message) {
	if c.tagger != nil {
		c.tagger.SendTagged(to, msg, c.inst)
		return
	}
	c.inner.Send(to, simnet.InstMsg{Inst: c.inst, Inner: msg})
}
