package baseline

import (
	"github.com/fastba/fastba/internal/bitstring"
	"github.com/fastba/fastba/internal/core"
	"github.com/fastba/fastba/internal/simnet"
)

// MsgBcast is the flood baseline's broadcast of a candidate.
type MsgBcast struct {
	S bitstring.String
}

// WireSize returns the payload size in bytes.
func (m MsgBcast) WireSize() int { return m.S.WireSize() }

// Kind returns the metric kind tag.
func (m MsgBcast) Kind() string { return "bcast" }

// RunFlood executes the trivial baseline: every node broadcasts its
// candidate to everyone and adopts the majority at the end of round 1.
// Θ(n) bits per node, Θ(n²) total, one round — the yardstick against which
// both AER and the √n baseline are measured.
func RunFlood(sc *core.Scenario) *Result {
	nodes := buildNodes(sc, func(id int, initial bitstring.String) simnet.Node {
		return &floodNode{id: id, n: sc.Params.N, initial: initial, heard: make(map[int]bitstring.String)}
	})
	metrics := simnet.NewSync(nodes, sc.Corrupt).Run(4)
	return &Result{Outcome: evaluate(nodes, sc.Corrupt, sc.GString), Metrics: metrics}
}

type floodNode struct {
	id      int
	n       int
	initial bitstring.String

	heard     map[int]bitstring.String
	decided   bitstring.String
	done      bool
	decidedAt int
}

var _ simnet.Ticker = (*floodNode)(nil)

// Decided implements the baseline decider read-out.
func (f *floodNode) Decided() (bitstring.String, bool) { return f.decided, f.done }

// DecidedAt returns the decision round, or -1.
func (f *floodNode) DecidedAt() int {
	if !f.done {
		return -1
	}
	return f.decidedAt
}

func (f *floodNode) Init(ctx simnet.Context) {
	if f.initial.IsZero() {
		return
	}
	for peer := 0; peer < f.n; peer++ {
		if peer != f.id {
			ctx.Send(peer, MsgBcast{S: f.initial})
		}
	}
	f.heard[f.id] = f.initial
}

func (f *floodNode) Deliver(ctx simnet.Context, from simnet.NodeID, m simnet.Message) {
	if b, ok := m.(MsgBcast); ok {
		if _, dup := f.heard[from]; !dup {
			f.heard[from] = b.S
		}
	}
}

func (f *floodNode) OnRoundEnd(ctx simnet.Context, round int) {
	if round != 1 || f.done {
		return
	}
	counts := make(map[string]int)
	vals := make(map[string]bitstring.String)
	for _, s := range f.heard {
		counts[s.Key()]++
		vals[s.Key()] = s
	}
	for key, c := range counts {
		if 2*c > len(f.heard) {
			f.decided = vals[key]
			f.done = true
			f.decidedAt = round
		}
	}
}
