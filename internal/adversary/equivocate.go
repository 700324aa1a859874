package adversary

import (
	"github.com/fastba/fastba/internal/bitstring"
	"github.com/fastba/fastba/internal/core"
	"github.com/fastba/fastba/internal/prng"
	"github.com/fastba/fastba/internal/simnet"
)

// Equivocate is the splitting adversary: all Byzantine nodes collude on a
// single bogus string s_adv, push it to exactly the nodes whose Push
// Quorums they legitimately occupy (maximizing filter pressure per
// message), answer polls and proxy pulls for s_adv as if it were their
// honest candidate, and refuse to cooperate on gstring. Lemma 7's argument
// is that such collusion cannot assemble an answer majority on any poll
// list — the experiments check no correct node ever decides s_adv.
type Equivocate struct{}

// Name implements Strategy.
func (Equivocate) Name() string { return "equivocate" }

// New implements Strategy.
func (Equivocate) New(env Env, id int) simnet.Node {
	// s_adv is shared by all Byzantine nodes: derived from the public seed
	// only, so every colluder computes the same string.
	sAdv := bitstring.Random(prng.New(prng.DeriveKey(env.Seed, "adversary/equivocate/string", 0)), env.Params.StringBits)
	inner := core.NewNode(id, sAdv, env.Params, env.Smp, rng(env, "equivocate", id))
	return &equivocateNode{env: env, id: id, sAdv: sAdv, inner: inner}
}

// equivocateNode wraps a real protocol node initialized with s_adv: the
// strongest form of this attack is to run the honest algorithm for the
// bogus string (any deviation only trips membership filters earlier). On
// top of the honest core it adds targeted equivocation during Init.
type equivocateNode struct {
	env   Env
	id    int
	sAdv  bitstring.String
	inner *core.Node
}

func (n *equivocateNode) Init(ctx simnet.Context) {
	n.inner.Init(ctx)
	// Additionally push per-target variations: to each node x whose Push
	// Quorum for a variant we occupy, push that variant. Variants differ
	// per Byzantine node, maximizing candidate-list pressure (Lemma 4).
	src := rng(n.env, "equivocate/variants", n.id)
	for k := 0; k < 4; k++ {
		variant := bitstring.Random(src, n.env.Params.StringBits)
		for _, x := range n.env.Smp.I.Inverse(variant, n.id) {
			ctx.Send(x, core.MsgPush{S: variant})
		}
	}
}

func (n *equivocateNode) Deliver(ctx simnet.Context, from simnet.NodeID, m simnet.Message) {
	// Never help gstring: drop everything that mentions it; behave
	// honestly (for s_adv) otherwise.
	switch msg := m.(type) {
	case core.MsgPush:
		if msg.S.Equal(n.env.GString) {
			return
		}
	case core.MsgPull:
		if msg.S.Equal(n.env.GString) {
			return
		}
	case core.MsgFw1:
		if msg.S.Equal(n.env.GString) {
			return
		}
	case core.MsgFw2:
		if msg.S.Equal(n.env.GString) {
			return
		}
	case core.MsgPoll:
		if msg.S.Equal(n.env.GString) {
			return
		}
		// Answer polls for s_adv immediately, bypassing the honest
		// routing checks — correct pollers only count us if we are on
		// their poll list, so this is the best the adversary can do.
		if msg.S.Equal(n.sAdv) {
			ctx.Send(from, core.MsgAnswer{S: msg.S, R: msg.R})
			return
		}
	}
	n.inner.Deliver(ctx, from, m)
}
