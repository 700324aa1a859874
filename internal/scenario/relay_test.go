package scenario

import (
	"reflect"
	"runtime"
	"testing"

	"github.com/fastba/fastba/internal/simnet"
)

type ping struct{}

func (ping) WireSize() int { return 1 }
func (ping) Kind() string  { return "ping" }

// gossip sends to two peers on Init and answers each delivery with a send
// to a peer chosen from what it has received so far, while its budget
// lasts: which nodes are messaged most depends on the whole run.
type gossip struct {
	id, n, budget, heard int
}

func (g *gossip) Init(ctx simnet.Context) {
	ctx.Send((g.id+1)%g.n, ping{})
	ctx.Send((g.id*7+3)%g.n, ping{})
}

func (g *gossip) Deliver(ctx simnet.Context, from simnet.NodeID, m simnet.Message) {
	g.heard += from
	if g.budget > 0 {
		g.budget--
		ctx.Send((g.heard*31+g.id)%g.n, ping{})
	}
}

// counted counts the deliveries its node handles before the trigger.
type counted struct {
	simnet.Node
	trigger, before int
}

func (c *counted) Deliver(ctx simnet.Context, from simnet.NodeID, m simnet.Message) {
	if ctx.Now() < c.trigger {
		c.before++
	}
	c.Node.Deliver(ctx, from, m)
}

// TestTrafficRankingCountsRoundsBeforeTrigger: the traffic ranking is made
// in the middle of the trigger round, while the synchronous runner's
// workers deliver side by side, yet it ranks by exactly the deliveries of
// the rounds before the trigger — at one worker and at four.
func TestTrafficRankingCountsRoundsBeforeTrigger(t *testing.T) {
	const n, trigger, budget = 64, 3, 6
	comp, err := Compile(Spec{Topology: TopologyWS, Degree: 4, Rewire: 0.3, Seed: 9}, n)
	if err != nil {
		t.Fatal(err)
	}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	var first []bool
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		inner := make([]simnet.Node, n)
		for id := range inner {
			inner[id] = &gossip{id: id, n: n, budget: 12}
		}
		relays := Wrap(inner, comp, WrapConfig{AdaptiveKind: RankTraffic, Budget: budget, TriggerAt: trigger})
		nodes := make([]simnet.Node, n)
		for id, r := range relays {
			nodes[id] = &counted{Node: r, trigger: trigger}
		}
		simnet.NewSync(nodes, nil).Run(20)

		rn := relays[0].(*relayNode).net
		for id := range nodes {
			if got, want := rn.traffic[id].Load(), int64(nodes[id].(*counted).before); got != want {
				t.Fatalf("GOMAXPROCS=%d: node %d counted %d deliveries, %d of them before round %d", procs, id, got, want, trigger)
			}
		}
		muted := rn.Muted()
		if muted == nil {
			t.Fatalf("GOMAXPROCS=%d: the ranking never ran", procs)
		}
		rank := rankBy(n, func(a, b int) bool {
			ca, cb := nodes[a].(*counted).before, nodes[b].(*counted).before
			if ca != cb {
				return ca > cb
			}
			return a < b
		})
		want := make([]bool, n)
		for _, id := range rank[:budget] {
			want[id] = true
		}
		if !reflect.DeepEqual(muted, want) {
			t.Fatalf("GOMAXPROCS=%d: muted %v, want the %d nodes most messaged before round %d: %v", procs, muted, budget, trigger, want)
		}
		if first == nil {
			first = muted
		} else if !reflect.DeepEqual(muted, first) {
			t.Fatalf("GOMAXPROCS=%d: muted set differs from GOMAXPROCS=1", procs)
		}
	}
}
