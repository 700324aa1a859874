package baseline

import (
	"github.com/fastba/fastba/internal/bitstring"
	"github.com/fastba/fastba/internal/core"
	"github.com/fastba/fastba/internal/prng"
	"github.com/fastba/fastba/internal/simnet"
)

// MsgVote is one all-to-all voting round of the Rabin-class agreement.
type MsgVote struct {
	Round int32
	S     bitstring.String
}

// WireSize returns the payload size in bytes.
func (m MsgVote) WireSize() int { return 4 + m.S.WireSize() }

// Kind returns the metric kind tag.
func (m MsgVote) Kind() string { return "vote" }

// RunRabin executes the Rabin'83/PR10-class randomized agreement:
// all-to-all voting rounds with a trusted-dealer common coin.
//
// Per round, every undecided node broadcasts its value; at the round end
// it tallies the votes received:
//
//   - ≥ 2/3 of the votes for one value → decide it (and broadcast it one
//     final round so stragglers catch up);
//   - ≥ 1/2 → adopt it;
//   - otherwise the common coin decides whether to keep the plurality
//     value or reset to the zero value.
//
// With private channels and t < n/4 this class decides in expected O(1)
// rounds at Θ(n² log n) total bits — the [PR10] row of Figure 1(b). The
// coin is modelled as a pre-shared random sequence (Rabin's trusted
// dealer), derived here from the public seed.
func RunRabin(sc *core.Scenario, maxRounds int) *Result {
	if maxRounds <= 0 {
		maxRounds = 12
	}
	coin := prng.New(prng.DeriveKey(sc.Seed, "baseline/rabin/coin", 0))
	coins := make([]bool, maxRounds+1)
	for i := range coins {
		coins[i] = coin.Bool()
	}
	nodes := buildNodes(sc, func(id int, initial bitstring.String) simnet.Node {
		return &rabinNode{
			id:      id,
			n:       sc.Params.N,
			value:   initial,
			coins:   coins,
			votes:   make(map[int32]map[int]bitstring.String),
			maxRnds: maxRounds,
		}
	})
	metrics := simnet.NewSync(nodes, sc.Corrupt).Run(maxRounds + 2)
	return &Result{Outcome: evaluate(nodes, sc.Corrupt, sc.GString), Metrics: metrics}
}

type rabinNode struct {
	id      int
	n       int
	value   bitstring.String
	coins   []bool
	maxRnds int

	votes     map[int32]map[int]bitstring.String
	decided   bitstring.String
	done      bool
	decidedAt int
	finalSent bool
}

var _ simnet.Ticker = (*rabinNode)(nil)

// Decided implements the baseline decider read-out.
func (r *rabinNode) Decided() (bitstring.String, bool) { return r.decided, r.done }

// DecidedAt returns the decision round, or -1.
func (r *rabinNode) DecidedAt() int {
	if !r.done {
		return -1
	}
	return r.decidedAt
}

func (r *rabinNode) Init(ctx simnet.Context) {
	r.broadcast(ctx, 1, r.value)
}

func (r *rabinNode) broadcast(ctx simnet.Context, round int32, v bitstring.String) {
	if v.IsZero() {
		return
	}
	msg := MsgVote{Round: round, S: v}
	for peer := 0; peer < r.n; peer++ {
		if peer != r.id {
			ctx.Send(peer, msg)
		}
	}
	byRound := r.votes[round]
	if byRound == nil {
		byRound = make(map[int]bitstring.String)
		r.votes[round] = byRound
	}
	byRound[r.id] = v
}

func (r *rabinNode) Deliver(ctx simnet.Context, from simnet.NodeID, m simnet.Message) {
	v, ok := m.(MsgVote)
	if !ok {
		return
	}
	byRound := r.votes[v.Round]
	if byRound == nil {
		byRound = make(map[int]bitstring.String)
		r.votes[v.Round] = byRound
	}
	if _, dup := byRound[from]; !dup {
		byRound[from] = v.S
	}
}

func (r *rabinNode) OnRoundEnd(ctx simnet.Context, round int) {
	if round > r.maxRnds {
		return
	}
	if r.done {
		// One final supporting broadcast, then silence.
		if !r.finalSent {
			r.finalSent = true
			r.broadcast(ctx, int32(round+1), r.decided)
		}
		return
	}
	byRound := r.votes[int32(round)]
	counts := make(map[string]int)
	vals := make(map[string]bitstring.String)
	for _, s := range byRound {
		counts[s.Key()]++
		vals[s.Key()] = s
	}
	best, bestCount := "", 0
	for key, c := range counts {
		if c > bestCount {
			best, bestCount = key, c
		}
	}
	total := len(byRound)
	switch {
	case total > 0 && 3*bestCount >= 2*total:
		r.decided = vals[best]
		r.done = true
		r.decidedAt = round
	case total > 0 && 2*bestCount > total:
		r.value = vals[best]
	default:
		// Common coin: heads keeps the plurality value, tails resets to
		// the zero value (abstain next round).
		if round < len(r.coins) && r.coins[round] && bestCount > 0 {
			r.value = vals[best]
		} else {
			r.value = bitstring.String{}
		}
	}
	if !r.done {
		r.broadcast(ctx, int32(round+1), r.value)
	}
}
