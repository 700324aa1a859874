package scenario

import (
	"sync"
	"sync/atomic"

	"github.com/fastba/fastba/internal/simnet"
)

// This file is the gossip relay and the adaptive-adversary enforcement
// point. Wrap interposes a relay node in front of every protocol node:
// sends to adjacent peers pass through unchanged, sends across the
// topology travel inside simnet.RelayMsg hops along strictly
// distance-decreasing links (TTL-bounded, deduplicated per (origin, seq)),
// and — when an adaptive adversary is configured — the sends of silenced
// target nodes are suppressed from the trigger time on.
//
// Concurrency: each relay node's state (dedup set, sequence counter) is
// touched only inside its own Init/Deliver activations, which every
// runtime serializes per node. The shared adaptive state uses atomics plus
// a sync.Once for the traffic ranking, so the wrapper is safe on the
// concurrent runtimes and on the synchronous runner's delivery workers.

// WrapConfig configures the relay layer.
type WrapConfig struct {
	// AdaptiveKind selects the adaptive adversary's target ranking:
	// RankDegree, RankWeight, RankOblivious, RankTraffic, or "" for none.
	AdaptiveKind string
	// Budget is the number of nodes the adaptive adversary silences.
	Budget int
	// TriggerAt is the logical time silencing starts.
	TriggerAt int
}

// relayNet is the state shared by all relay nodes of one run.
type relayNet struct {
	comp   *Compiled
	fanout int

	kind      string
	budget    int
	triggerAt int
	// muted marks the silenced targets. For structural rankings it is
	// fixed at construction; for the traffic ranking it is published by
	// rankOnce at trigger time (atomic pointer for a race-free swap under
	// the concurrent runtimes).
	muted    atomic.Pointer[[]bool]
	rankOnce sync.Once
	// traffic counts per-node deliveries handled before triggerAt — the
	// online signal the traffic ranking sorts by.
	traffic []atomic.Int64
}

// Wrap interposes the relay in front of every node. The returned nodes
// implement simnet.Node only: rushing Byzantine strategies degrade to
// their non-rushing form under a scenario, exactly as they do over TCP.
func Wrap(nodes []simnet.Node, comp *Compiled, cfg WrapConfig) []simnet.Node {
	rn := &relayNet{
		comp:      comp,
		fanout:    comp.Spec.EffectiveFanout(),
		kind:      cfg.AdaptiveKind,
		budget:    cfg.Budget,
		triggerAt: cfg.TriggerAt,
		traffic:   make([]atomic.Int64, len(nodes)),
	}
	if rn.kind != "" && rn.kind != RankTraffic && rn.budget > 0 {
		rn.publishMuted(comp.Rank(rn.kind))
	}
	wrapped := make([]simnet.Node, len(nodes))
	for id, n := range nodes {
		wrapped[id] = &relayNode{inner: n, id: id, net: rn}
	}
	return wrapped
}

// publishMuted marks the first budget entries of rank as silenced.
func (rn *relayNet) publishMuted(rank []int) {
	muted := make([]bool, rn.comp.N)
	for i := 0; i < rn.budget && i < len(rank); i++ {
		muted[rank[i]] = true
	}
	rn.muted.Store(&muted)
}

// silenced reports whether node id's sends are suppressed at time now.
func (rn *relayNet) silenced(id, now int) bool {
	if rn.kind == "" || rn.budget <= 0 || now < rn.triggerAt {
		return false
	}
	if rn.kind == RankTraffic {
		rn.rankOnce.Do(rn.rankByTraffic)
	}
	m := rn.muted.Load()
	return m != nil && (*m)[id]
}

// rankByTraffic snapshots the delivery counters and silences the
// most-messaged nodes. It runs at the first send at or past the trigger,
// and the counters stop at the trigger: on the synchronous runner, whose
// workers deliver a round's messages side by side, every delivery they
// count belongs to a round that ended before the snapshot, so the ranking
// does not depend on how the workers interleave. On the asynchronous
// runner a delivery from before the trigger may still come after the
// snapshot and is not ranked; on the concurrent runtimes the snapshot
// follows real scheduling, like delivery order.
func (rn *relayNet) rankByTraffic() {
	counts := make([]int64, len(rn.traffic))
	for i := range rn.traffic {
		counts[i] = rn.traffic[i].Load()
	}
	rank := rankBy(len(counts), func(a, b int) bool {
		if counts[a] != counts[b] {
			return counts[a] > counts[b]
		}
		return a < b
	})
	rn.publishMuted(rank)
}

// Muted returns the silenced node set, or nil when no adaptive adversary
// is active (or the traffic ranking has not triggered). Test hook.
func (rn *relayNet) Muted() []bool {
	m := rn.muted.Load()
	if m == nil {
		return nil
	}
	return *m
}

// relayKey packs the dedup key of a relayed message.
func relayKey(origin int, seq uint32) uint64 {
	return uint64(uint32(origin))<<32 | uint64(seq)
}

// relayNode interposes the relay on one node's send and delivery paths.
type relayNode struct {
	inner simnet.Node
	id    int
	net   *relayNet
	seq   uint32
	seen  map[uint64]struct{}
	ctx   relayCtx // reused across activations (contexts are call-scoped)
}

func (r *relayNode) wrap(ctx simnet.Context) *relayCtx {
	r.ctx.node, r.ctx.inner = r, ctx
	return &r.ctx
}

func (r *relayNode) Init(ctx simnet.Context) {
	r.seen = make(map[uint64]struct{})
	r.inner.Init(r.wrap(ctx))
}

func (r *relayNode) Deliver(ctx simnet.Context, from simnet.NodeID, m simnet.Message) {
	if ctx.Now() < r.net.triggerAt {
		r.net.traffic[r.id].Add(1)
	}
	rm, ok := m.(simnet.RelayMsg)
	if !ok {
		r.inner.Deliver(r.wrap(ctx), from, m)
		return
	}
	key := relayKey(rm.Origin, rm.Seq)
	if _, dup := r.seen[key]; dup {
		return
	}
	r.seen[key] = struct{}{}
	if rm.Dest == r.id {
		r.inner.Deliver(r.wrap(ctx), rm.Origin, rm.Inner)
		return
	}
	// Forwarding is part of a node's send budget: a silenced relay drops
	// transit traffic too — that collateral damage is exactly what makes
	// hub-targeting adaptive adversaries hurt.
	if rm.TTL == 0 || r.net.silenced(r.id, ctx.Now()) {
		return
	}
	r.net.forward(ctx, r.id, rm)
}

// forward sends rm one hop closer to its destination: to up to fanout
// neighbours of u whose distance to Dest is exactly one less than u's, in
// relay preference order. The choice depends only on the topology, so the
// forwarding DAG of an (origin, dest) pair is delivery-order independent.
func (rn *relayNet) forward(ctx simnet.Context, u int, rm simnet.RelayMsg) {
	du := rn.comp.Distance(u, rm.Dest)
	rm.TTL--
	sent := 0
	for _, v := range rn.comp.Adj[u] {
		if rn.comp.Distance(v, rm.Dest) != du-1 {
			continue
		}
		ctx.Send(v, rm)
		sent++
		if sent >= rn.fanout {
			return
		}
	}
}

// relayCtx is the Context handed to the inner node: it routes non-adjacent
// sends through the relay and enforces adaptive silencing.
type relayCtx struct {
	node  *relayNode
	inner simnet.Context
}

func (c *relayCtx) Now() int { return c.inner.Now() }

func (c *relayCtx) Send(to simnet.NodeID, m simnet.Message) {
	r := c.node
	if r.net.silenced(r.id, c.inner.Now()) {
		return
	}
	if to < 0 || to >= r.net.comp.N { // let the runtime's own policy judge it
		c.inner.Send(to, m)
		return
	}
	d := r.net.comp.Distance(r.id, to)
	if d <= 1 {
		c.inner.Send(to, m)
		return
	}
	rm := simnet.RelayMsg{Origin: r.id, Seq: r.seq, Dest: to, TTL: uint8(d), Inner: m}
	r.seq++
	r.net.forward(c.inner, r.id, rm)
}
