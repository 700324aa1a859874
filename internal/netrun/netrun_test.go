package netrun

import (
	"context"
	"testing"
	"time"

	"github.com/fastba/fastba/internal/core"
	"github.com/fastba/fastba/internal/simnet"
)

func TestAEROverTCP(t *testing.T) {
	// The flagship check: the same AER nodes that run in the simulator
	// reach agreement over real loopback TCP.
	const n = 24
	sc, err := core.NewScenario(core.DefaultParams(n), 5, core.TestingScenarioConfig())
	if err != nil {
		t.Fatal(err)
	}
	nodes, correct := sc.Build(nil)

	cluster, err := NewWithOptions(nodes, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	cluster.Start()

	allDecided := func() bool {
		for _, node := range correct {
			if node == nil {
				continue
			}
			if _, ok := node.Decided(); !ok {
				return false
			}
		}
		return true
	}
	if err := cluster.RunUntil(context.Background(), allDecided, 30*time.Second); err != nil {
		t.Fatalf("TCP run did not complete: %v", err)
	}
	// Quiesce before reading node state: deliveries may still be in flight
	// when the last decision lands.
	if !cluster.AwaitQuiescence(30 * time.Second) {
		t.Fatal("cluster did not quiesce after all decisions")
	}
	o := core.Evaluate(correct, sc.GString)
	if !o.Agreement() {
		t.Fatalf("no agreement over TCP: %+v", o)
	}
	m := cluster.Metrics()
	if m.Delivered == 0 || m.ByKind["push"] == 0 || m.ByKind["answer"] == 0 {
		t.Fatalf("fabric metrics not populated over TCP: %+v", m.ByKind)
	}
}

func TestSentBytesAccounted(t *testing.T) {
	const n = 16
	sc, err := core.NewScenario(core.DefaultParams(n), 3, core.TestingScenarioConfig())
	if err != nil {
		t.Fatal(err)
	}
	nodes, correct := sc.Build(nil)
	cluster, err := NewWithOptions(nodes, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	cluster.Start()
	decided := func() bool {
		for _, node := range correct {
			if node == nil {
				continue
			}
			if _, ok := node.Decided(); !ok {
				return false
			}
		}
		return true
	}
	if err := cluster.RunUntil(context.Background(), decided, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	if !cluster.AwaitQuiescence(30 * time.Second) {
		t.Fatal("cluster did not quiesce")
	}
	total := int64(0)
	for _, b := range cluster.SentBytes() {
		total += b
	}
	if total == 0 {
		t.Fatal("no bytes accounted on a completed run")
	}
}

func TestAddrsExposed(t *testing.T) {
	nodes := []simnet.Node{noopNode{}, noopNode{}}
	cluster, err := NewWithOptions(nodes, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	addrs := cluster.Addrs()
	if len(addrs) != 2 || addrs[0] == "" || addrs[0] == addrs[1] {
		t.Fatalf("bad addrs: %v", addrs)
	}
}

func TestRunUntilTimeout(t *testing.T) {
	cluster, err := NewWithOptions([]simnet.Node{noopNode{}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	cluster.Start()
	if err := cluster.RunUntil(context.Background(), func() bool { return false }, 30*time.Millisecond); err == nil {
		t.Fatal("RunUntil did not time out")
	}
}

func TestCloseIdempotent(t *testing.T) {
	cluster, err := NewWithOptions([]simnet.Node{noopNode{}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cluster.Start()
	cluster.Close()
	cluster.Close() // second close must be a no-op, not a panic
}

func TestSendToInvalidNodeIgnored(t *testing.T) {
	bad := &wildSender{}
	cluster, err := NewWithOptions([]simnet.Node{bad}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	cluster.Start() // Init sends out of range; must not panic
}

type noopNode struct{}

func (noopNode) Init(simnet.Context)                                   {}
func (noopNode) Deliver(simnet.Context, simnet.NodeID, simnet.Message) {}

type wildSender struct{}

func (w *wildSender) Init(ctx simnet.Context) {
	ctx.Send(99, core.MsgPush{})
	ctx.Send(-1, core.MsgPush{})
}
func (w *wildSender) Deliver(simnet.Context, simnet.NodeID, simnet.Message) {}
