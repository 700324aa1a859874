package simnet

import (
	"sync"
	"testing"
)

// token is a tiny test message.
type token struct {
	hops int
}

func (t token) WireSize() int { return 4 }
func (t token) Kind() string  { return "token" }

// ringNode forwards a token around the ring until hops run out.
type ringNode struct {
	id, n     int
	start     bool
	delivered int
	lastTime  int
	mu        sync.Mutex // GoRunner delivers concurrently across nodes
}

func (r *ringNode) Init(ctx Context) {
	if r.start {
		ctx.Send((r.id+1)%r.n, token{hops: 10})
	}
}

func (r *ringNode) Deliver(ctx Context, from NodeID, m Message) {
	t, ok := m.(token)
	if !ok {
		return
	}
	r.mu.Lock()
	r.delivered++
	r.lastTime = ctx.Now()
	r.mu.Unlock()
	if t.hops > 1 {
		ctx.Send((r.id+1)%r.n, token{hops: t.hops - 1})
	}
}

func newRing(n int) []Node {
	nodes := make([]Node, n)
	for i := range nodes {
		nodes[i] = &ringNode{id: i, n: n, start: i == 0}
	}
	return nodes
}

func TestSyncRing(t *testing.T) {
	nodes := newRing(4)
	m := NewSync(nodes, nil).Run(100)
	// 10 token deliveries total, one per round.
	if m.Delivered != 10 {
		t.Fatalf("Delivered = %d, want 10", m.Delivered)
	}
	if m.Rounds != 10 {
		t.Fatalf("Rounds = %d, want 10", m.Rounds)
	}
	if m.ByKind["token"] != 10 {
		t.Fatalf("ByKind[token] = %d", m.ByKind["token"])
	}
}

func TestSyncRoundCap(t *testing.T) {
	nodes := newRing(4)
	m := NewSync(nodes, nil).Run(3)
	if m.Delivered != 3 {
		t.Fatalf("Delivered = %d with 3-round cap", m.Delivered)
	}
}

func TestAsyncFIFODepthMatchesSync(t *testing.T) {
	nodes := newRing(4)
	m := NewAsync(nodes, NewFIFO()).Run()
	if m.Delivered != 10 || m.Rounds != 10 {
		t.Fatalf("FIFO async: delivered %d rounds %d, want 10/10", m.Delivered, m.Rounds)
	}
}

func TestAsyncRandomSameDeliveries(t *testing.T) {
	nodes := newRing(4)
	m := NewAsync(nodes, NewRandom(1)).Run()
	// The ring is a single causal chain: order cannot change counts/depth.
	if m.Delivered != 10 || m.Rounds != 10 {
		t.Fatalf("random async: delivered %d rounds %d", m.Delivered, m.Rounds)
	}
}

func TestAsyncDeterministicGivenSeed(t *testing.T) {
	run := func(seed uint64) int64 {
		nodes := newRing(8)
		return NewAsync(nodes, NewRandom(seed)).Run().Delivered
	}
	if run(7) != run(7) {
		t.Fatal("async execution not deterministic for fixed seed")
	}
}

// fanNode: node 0 sends one message to every other node on Init; others
// reply once. Used to test metering.
type fanNode struct {
	id, n int
}

func (f *fanNode) Init(ctx Context) {
	if f.id == 0 {
		for i := 1; i < f.n; i++ {
			ctx.Send(i, token{hops: 1})
		}
	}
}

func (f *fanNode) Deliver(ctx Context, from NodeID, m Message) {
	if f.id != 0 {
		ctx.Send(0, token{hops: 1})
	}
}

func TestMetering(t *testing.T) {
	const n = 5
	nodes := make([]Node, n)
	for i := range nodes {
		nodes[i] = &fanNode{id: i, n: n}
	}
	m := NewSync(nodes, nil).Run(10)
	if m.PerNode[0].SentMsgs != n-1 {
		t.Fatalf("node 0 sent %d, want %d", m.PerNode[0].SentMsgs, n-1)
	}
	if m.PerNode[0].RecvMsgs != n-1 {
		t.Fatalf("node 0 received %d, want %d", m.PerNode[0].RecvMsgs, n-1)
	}
	wantBytes := int64((n - 1) * (4 + envelopeOverhead))
	if m.PerNode[0].SentBytes != wantBytes {
		t.Fatalf("node 0 sent %d bytes, want %d", m.PerNode[0].SentBytes, wantBytes)
	}
	if m.TotalSentBits() != 8*2*wantBytes {
		t.Fatalf("TotalSentBits = %d", m.TotalSentBits())
	}
	if m.MaxSentBits() != 8*wantBytes {
		t.Fatalf("MaxSentBits = %d", m.MaxSentBits())
	}
	if mean := m.MeanSentBits(); mean != float64(2*wantBytes*8)/n {
		t.Fatalf("MeanSentBits = %v", mean)
	}
}

// rushSpy is a Byzantine node that records how many correct-round sends it
// observed before sending its own message.
type rushSpy struct {
	id       int
	observed int
	sent     bool
}

func (r *rushSpy) Init(ctx Context)                            {}
func (r *rushSpy) Deliver(ctx Context, from NodeID, m Message) {}
func (r *rushSpy) Rush(ctx Context, round int, correct []Envelope) {
	r.observed += len(correct)
	if !r.sent && len(correct) > 0 {
		r.sent = true
		ctx.Send(0, token{hops: 1})
	}
}

func TestRushingObservesCorrectTraffic(t *testing.T) {
	n := 4
	nodes := make([]Node, n)
	for i := 0; i < n-1; i++ {
		nodes[i] = &ringNode{id: i, n: n - 1, start: i == 0} // ring among correct nodes
	}
	spy := &rushSpy{id: n - 1}
	nodes[n-1] = spy
	corrupt := make([]bool, n)
	corrupt[n-1] = true
	m := NewSync(nodes, corrupt).Run(50)
	if spy.observed == 0 {
		t.Fatal("rushing adversary observed no correct traffic")
	}
	if !spy.sent {
		t.Fatal("rushing adversary never injected its message")
	}
	if m.ByKind["token"] < 11 {
		t.Fatalf("expected spy's token to be counted, got %d", m.ByKind["token"])
	}
}

func TestAdversarialSchedulerPriority(t *testing.T) {
	// Two fans: messages from node 1 should be delivered before messages
	// from node 2 under a priority that favours node 1.
	var order []NodeID
	recorder := &recorderNode{order: &order}
	nodes := []Node{recorder, &senderNode{id: 1}, &senderNode{id: 2}}
	pri := func(e Envelope) int {
		if e.From == 1 {
			return 0
		}
		return 1
	}
	NewAsync(nodes, NewAdversarial(pri, 1000)).Run()
	if len(order) != 6 {
		t.Fatalf("delivered %d, want 6", len(order))
	}
	for i := 0; i < 3; i++ {
		if order[i] != 1 {
			t.Fatalf("delivery %d from node %d, want node 1 first", i, order[i])
		}
	}
}

func TestAdversarialSchedulerAgeBound(t *testing.T) {
	// Node 1 keeps a long ping-pong chain with node 0 alive; node 2 sends
	// three one-shot messages at Init. The priority favours the chain, so
	// without the age bound node 2's messages would all arrive after the
	// chain drains; with maxAge = 2 they must be forced out early.
	var order []NodeID
	echo := &echoNode{order: &order}
	nodes := []Node{echo, &chainNode{hops: 40}, &senderNode{id: 2}}
	pri := func(e Envelope) int {
		if e.From == 2 {
			return 1
		}
		return 0
	}
	NewAsync(nodes, NewAdversarial(pri, 2)).Run()
	// Find the last chain delivery and the first node-2 delivery at node 0.
	last1, first2 := -1, -1
	for i, from := range order {
		if from == 1 {
			last1 = i
		}
		if from == 2 && first2 < 0 {
			first2 = i
		}
	}
	if first2 < 0 {
		t.Fatal("node 2's messages never delivered")
	}
	if first2 > last1 {
		t.Fatalf("age bound did not force interleaving: first2=%d last1=%d (%v)", first2, last1, order)
	}
}

// chainNode keeps a ping-pong chain with node 0 alive for hops messages.
type chainNode struct{ hops int }

func (c *chainNode) Init(ctx Context) { ctx.Send(0, token{hops: c.hops}) }
func (c *chainNode) Deliver(ctx Context, from NodeID, m Message) {
	if t, ok := m.(token); ok && t.hops > 1 {
		ctx.Send(0, token{hops: t.hops - 1})
	}
}

// echoNode records senders and bounces chain tokens back to node 1.
type echoNode struct{ order *[]NodeID }

func (e *echoNode) Init(ctx Context) {}
func (e *echoNode) Deliver(ctx Context, from NodeID, m Message) {
	*e.order = append(*e.order, from)
	if t, ok := m.(token); ok && from == 1 && t.hops > 1 {
		ctx.Send(1, token{hops: t.hops - 1})
	}
}

type senderNode struct{ id int }

func (s *senderNode) Init(ctx Context) {
	for i := 0; i < 3; i++ {
		ctx.Send(0, token{hops: 1})
	}
}
func (s *senderNode) Deliver(ctx Context, from NodeID, m Message) {}

type recorderNode struct{ order *[]NodeID }

func (r *recorderNode) Init(ctx Context) {}
func (r *recorderNode) Deliver(ctx Context, from NodeID, m Message) {
	*r.order = append(*r.order, from)
}

func TestGoRunnerRing(t *testing.T) {
	nodes := newRing(4)
	m := NewFabric(nodes, CausalClock, true).Run()
	if m.Delivered != 10 {
		t.Fatalf("GoRunner delivered %d, want 10", m.Delivered)
	}
	if m.Rounds != 10 {
		t.Fatalf("GoRunner max depth %d, want 10", m.Rounds)
	}
	total := 0
	for _, n := range nodes {
		total += n.(*ringNode).delivered
	}
	if total != 10 {
		t.Fatalf("nodes recorded %d deliveries", total)
	}
}

func TestGoRunnerQuiescesWithNoMessages(t *testing.T) {
	nodes := []Node{&fanNode{id: 1, n: 1}} // sends nothing
	m := NewFabric(nodes, CausalClock, true).Run()
	if m.Delivered != 0 {
		t.Fatalf("Delivered = %d", m.Delivered)
	}
}

func TestGoRunnerMatchesEventLoopTotals(t *testing.T) {
	mkNodes := func() []Node {
		nodes := make([]Node, 6)
		for i := range nodes {
			nodes[i] = &fanNode{id: i, n: 6}
		}
		return nodes
	}
	sync := NewSync(mkNodes(), nil).Run(10)
	gor := NewFabric(mkNodes(), CausalClock, true).Run()
	if sync.Delivered != gor.Delivered {
		t.Fatalf("delivery counts differ: sync %d vs go %d", sync.Delivered, gor.Delivered)
	}
	if sync.TotalSentBits() != gor.TotalSentBits() {
		t.Fatalf("bit totals differ: %d vs %d", sync.TotalSentBits(), gor.TotalSentBits())
	}
}

func TestSendValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("send to invalid node did not panic")
		}
	}()
	nodes := []Node{&badSender{}}
	NewSync(nodes, nil).Run(1)
}

type badSender struct{}

func (b *badSender) Init(ctx Context)                            { ctx.Send(99, token{}) }
func (b *badSender) Deliver(ctx Context, from NodeID, m Message) {}

func TestAsyncMaxDeliveries(t *testing.T) {
	nodes := newRing(4)
	r := NewAsync(nodes, NewFIFO())
	r.MaxDeliveries = 5
	m := r.Run()
	if m.Delivered != 5 {
		t.Fatalf("Delivered = %d with cap 5", m.Delivered)
	}
}
