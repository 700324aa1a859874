package baseline

import (
	"math"

	"github.com/fastba/fastba/internal/bitstring"
	"github.com/fastba/fastba/internal/core"
	"github.com/fastba/fastba/internal/prng"
	"github.com/fastba/fastba/internal/simnet"
)

// MsgQuery asks a peer for its current candidate.
type MsgQuery struct{}

// WireSize returns the payload size in bytes.
func (MsgQuery) WireSize() int { return 1 }

// Kind returns the metric kind tag.
func (MsgQuery) Kind() string { return "query" }

// MsgReply returns the replier's candidate.
type MsgReply struct {
	S bitstring.String
}

// WireSize returns the payload size in bytes.
func (m MsgReply) WireSize() int { return m.S.WireSize() }

// Kind returns the metric kind tag.
func (m MsgReply) Kind() string { return "reply" }

// KLST11Fanout returns the per-node sample size used by the stylized
// load-balanced baseline: ⌈√n · log₂(n)/2⌉ — the Õ(√n) communication
// signature of KS09/KLST11.
func KLST11Fanout(n int) int {
	lg := math.Log2(float64(n))
	k := int(math.Ceil(math.Sqrt(float64(n)) * lg / 2))
	if k < 8 {
		k = 8
	}
	if k > n-1 {
		k = n - 1
	}
	return k
}

// RunKLST11 executes the load-balanced baseline on the scenario's
// population over the synchronous runner: every correct node queries
// KLST11Fanout(n) distinct random peers, every correct peer replies with
// its initial candidate, and queriers adopt the majority reply at the end
// of round 2.
func RunKLST11(sc *core.Scenario) *Result {
	nodes := buildNodes(sc, func(id int, initial bitstring.String) simnet.Node {
		return &klstNode{
			id:      id,
			n:       sc.Params.N,
			fanout:  KLST11Fanout(sc.Params.N),
			initial: initial,
			rng:     sc.NodeRNG(id),
			replies: make(map[int]bitstring.String),
		}
	})
	metrics := simnet.NewSync(nodes, sc.Corrupt).Run(6)
	return &Result{Outcome: evaluate(nodes, sc.Corrupt, sc.GString), Metrics: metrics}
}

type klstNode struct {
	id      int
	n       int
	fanout  int
	initial bitstring.String
	rng     *prng.Source

	queried   map[int]bool
	replies   map[int]bitstring.String
	decided   bitstring.String
	done      bool
	decidedAt int
}

var _ simnet.Ticker = (*klstNode)(nil)

// Decided implements the baseline decider read-out.
func (k *klstNode) Decided() (bitstring.String, bool) { return k.decided, k.done }

// DecidedAt returns the decision round, or -1.
func (k *klstNode) DecidedAt() int {
	if !k.done {
		return -1
	}
	return k.decidedAt
}

func (k *klstNode) Init(ctx simnet.Context) {
	k.queried = make(map[int]bool, k.fanout)
	for len(k.queried) < k.fanout {
		peer := k.rng.Intn(k.n)
		if peer == k.id || k.queried[peer] {
			continue
		}
		k.queried[peer] = true
		ctx.Send(peer, MsgQuery{})
	}
}

func (k *klstNode) Deliver(ctx simnet.Context, from simnet.NodeID, m simnet.Message) {
	switch msg := m.(type) {
	case MsgQuery:
		if !k.initial.IsZero() {
			ctx.Send(from, MsgReply{S: k.initial})
		}
	case MsgReply:
		if !k.queried[from] {
			return // unsolicited reply
		}
		if _, dup := k.replies[from]; !dup {
			k.replies[from] = msg.S
		}
	}
}

// OnRoundEnd decides at the end of round 2, when all replies of a
// synchronous execution have arrived.
func (k *klstNode) OnRoundEnd(ctx simnet.Context, round int) {
	if round != 2 || k.done {
		return
	}
	counts := make(map[string]int)
	vals := make(map[string]bitstring.String)
	for _, s := range k.replies {
		counts[s.Key()]++
		vals[s.Key()] = s
	}
	best, bestCount := "", 0
	for key, c := range counts {
		if c > bestCount {
			best, bestCount = key, c
		}
	}
	if bestCount*2 > len(k.replies) {
		k.decided = vals[best]
		k.done = true
		k.decidedAt = round
	}
}
