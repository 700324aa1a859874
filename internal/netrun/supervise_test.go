package netrun

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/fastba/fastba/internal/core"
	"github.com/fastba/fastba/internal/simnet"
)

// broadcaster is the traffic generator of the supervision tests: a kick
// (self-delivery) fans one frame out to every peer; frames from peers are
// only counted. The test loop injects kicks, so traffic volume is under
// test control and every directed link carries frames.
type broadcaster struct {
	id, n    int
	received atomic.Int64
}

func (b *broadcaster) Init(simnet.Context) {}

func (b *broadcaster) Deliver(ctx simnet.Context, from simnet.NodeID, _ simnet.Message) {
	if int(from) != b.id {
		b.received.Add(1)
		return
	}
	for j := 0; j < b.n; j++ {
		if j != b.id {
			ctx.Send(j, core.MsgPush{})
		}
	}
}

func kick(c *Cluster, id int) {
	c.Inject(simnet.Envelope{From: id, To: id, Msg: core.MsgPush{}})
}

// TestChaosSweepSeversEveryLink is the tentpole chaos check at transport
// level: under a seeded sweep plan, every directed link that ever carried
// traffic is severed at least once, the supervisors keep healing the mesh
// (redials observed), and the cluster still moves frames afterwards.
func TestChaosSweepSeversEveryLink(t *testing.T) {
	const n = 6
	nodes := make([]simnet.Node, n)
	bcs := make([]*broadcaster, n)
	for i := range nodes {
		bcs[i] = &broadcaster{id: i, n: n}
		nodes[i] = bcs[i]
	}
	cluster, err := NewWithOptions(nodes, Options{
		Reconnect: ReconnectPolicy{Base: 2 * time.Millisecond, Cap: 50 * time.Millisecond, MaxAttempts: -1},
		Heartbeat: HeartbeatPolicy{Every: 20 * time.Millisecond, SuspectAfter: 80 * time.Millisecond},
		Chaos:     ChaosPlan{Seed: 7, Sweep: true, Interval: 4 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	cluster.Start()

	want := int64(n * (n - 1))
	deadline := time.Now().Add(60 * time.Second)
	for cluster.NetStats().LinksSevered < want {
		if time.Now().After(deadline) {
			t.Fatalf("sweep incomplete: %d of %d links severed (stats %+v)",
				cluster.NetStats().LinksSevered, want, cluster.NetStats())
		}
		// Keep every link busy so sweep strikes always find live sockets.
		for i := 0; i < n; i++ {
			kick(cluster, i)
		}
		time.Sleep(2 * time.Millisecond)
	}
	st := cluster.NetStats()
	if st.Redials == 0 {
		t.Fatalf("links severed but never redialed — the mesh did not heal: %+v", st)
	}
	// The mesh must still move frames after full-coverage severing.
	before := bcs[1].received.Load()
	healDeadline := time.Now().Add(30 * time.Second)
	for bcs[1].received.Load() == before {
		if time.Now().After(healDeadline) {
			t.Fatalf("no delivery after sweep completed: stats %+v", cluster.NetStats())
		}
		kick(cluster, 0)
		time.Sleep(2 * time.Millisecond)
	}
}

// TestUnreachablePeerDegrades pins the graceful-degradation contract: a
// peer whose listener is gone burns the redial budget once (failed dials,
// then a dead link), after which frames to it are dropped fast — never
// stalling senders — while delivery to live peers continues. With every
// dropped frame returning its in-flight count, the run still quiesces.
func TestUnreachablePeerDegrades(t *testing.T) {
	const n = 4
	nodes := make([]simnet.Node, n)
	bcs := make([]*broadcaster, n)
	for i := range nodes {
		bcs[i] = &broadcaster{id: i, n: n}
		nodes[i] = bcs[i]
	}
	cluster, err := NewWithOptions(nodes, Options{
		Reconnect: ReconnectPolicy{Base: time.Millisecond, Cap: 5 * time.Millisecond, MaxAttempts: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	// Kill node 3's listener before anything dials it: every connect is
	// refused, so the link must exhaust its budget and go down.
	cluster.listeners[3].Close()
	cluster.Start()

	deadline := time.Now().Add(30 * time.Second)
	for {
		st := cluster.NetStats()
		if st.DeadLinks >= 1 && bcs[1].received.Load() > 0 && bcs[2].received.Load() > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no degradation observed: stats %+v, received %d/%d",
				st, bcs[1].received.Load(), bcs[2].received.Load())
		}
		kick(cluster, 0)
		time.Sleep(2 * time.Millisecond)
	}
	st := cluster.NetStats()
	if st.FailedDials == 0 {
		t.Fatalf("dead link without failed dials: %+v", st)
	}
	if bcs[3].received.Load() != 0 {
		t.Fatalf("node behind a closed listener received %d frames", bcs[3].received.Load())
	}
	// The accounting contract: every frame either delivered or uncounted.
	if !cluster.AwaitQuiescence(30 * time.Second) {
		t.Fatal("cluster did not quiesce with a dead link — dropped frames leaked in-flight counts")
	}
}

// TestHeartbeatSuspectAndRecover drives the failure detector through a
// full suspect→alive cycle on one link: a blackholed receiver stops
// answering pings, the detector suspects the link and recycles the socket,
// and the next data frame redials and recovers it — all surfaced as
// ConnEvents and NetStats counters.
func TestHeartbeatSuspectAndRecover(t *testing.T) {
	const n = 2
	var mu sync.Mutex
	var kinds []ConnEventKind
	nodes := make([]simnet.Node, n)
	bcs := make([]*broadcaster, n)
	for i := range nodes {
		bcs[i] = &broadcaster{id: i, n: n}
		nodes[i] = bcs[i]
	}
	cluster, err := NewWithOptions(nodes, Options{
		Reconnect: ReconnectPolicy{Base: time.Millisecond, Cap: 10 * time.Millisecond, MaxAttempts: -1},
		Heartbeat: HeartbeatPolicy{Every: 10 * time.Millisecond, SuspectAfter: 40 * time.Millisecond},
		OnConnEvent: func(ev ConnEvent) {
			if ev.From == 0 && ev.To == 1 {
				mu.Lock()
				kinds = append(kinds, ev.Kind)
				mu.Unlock()
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	cluster.Start()

	kick(cluster, 0)
	deadline := time.Now().Add(10 * time.Second)
	for bcs[1].received.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("link 0→1 never delivered")
		}
		time.Sleep(time.Millisecond)
	}
	cluster.mu.Lock()
	ic := cluster.inbound[connKey{from: 0, to: 1}]
	cluster.mu.Unlock()
	if ic == nil {
		t.Fatal("inbound connection not registered")
	}
	// Blackhole the receiver: pings go unanswered, so the detector must
	// suspect the link within SuspectAfter (plus scheduling slack).
	ic.pausedUntil.Store(time.Now().Add(2 * time.Second).UnixNano())
	suspectDeadline := time.Now().Add(30 * time.Second)
	for cluster.NetStats().Suspects == 0 {
		if time.Now().After(suspectDeadline) {
			t.Fatalf("detector never suspected a blackholed link: %+v", cluster.NetStats())
		}
		time.Sleep(time.Millisecond)
	}
	// A suspected idle link stays dormant (no speculative redial); the
	// next data frame re-establishes and clears the suspicion.
	ic.pausedUntil.Store(0)
	recoverDeadline := time.Now().Add(30 * time.Second)
	for cluster.NetStats().Recoveries == 0 {
		if time.Now().After(recoverDeadline) {
			t.Fatalf("suspected link never recovered: %+v", cluster.NetStats())
		}
		kick(cluster, 0)
		time.Sleep(2 * time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	var sawSuspect, sawAliveAfter bool
	for _, k := range kinds {
		switch k {
		case ConnSuspected:
			sawSuspect = true
		case ConnRecovered:
			if sawSuspect {
				sawAliveAfter = true
			}
		}
	}
	if !sawSuspect || !sawAliveAfter {
		t.Fatalf("event stream missing suspect→alive transition: %v", kinds)
	}
}

// TestCloseUnderTraffic races a flood of sends against Close: accept
// loops must exit cleanly, in-flight writers must observe the closed
// state, and nothing may panic or deadlock (the -race CI step runs this).
func TestCloseUnderTraffic(t *testing.T) {
	const n = 4
	for round := 0; round < 5; round++ {
		nodes := make([]simnet.Node, n)
		for i := range nodes {
			nodes[i] = &broadcaster{id: i, n: n}
		}
		cluster, err := NewWithOptions(nodes, Options{
			Reconnect: ReconnectPolicy{Base: time.Millisecond, Cap: 10 * time.Millisecond},
			Heartbeat: HeartbeatPolicy{Every: 5 * time.Millisecond, SuspectAfter: 20 * time.Millisecond},
		})
		if err != nil {
			t.Fatal(err)
		}
		cluster.Start()
		done := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < 3; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-done:
						return
					default:
					}
					for i := 0; i < n; i++ {
						kick(cluster, i)
					}
				}
			}()
		}
		time.Sleep(20 * time.Millisecond)
		close(done)
		wg.Wait()
		cluster.Close() // deliveries and redials still in flight
	}
}
