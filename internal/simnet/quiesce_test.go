package simnet

import (
	"sync/atomic"
	"testing"
	"time"
)

// hopNode forwards each token it is handed to the next node, which belongs
// to another worker, until the token's TTL runs out. Right after staging the
// next hop it asks whether the fabric is quiescent: the token it holds is
// still counted, so the answer must be no.
type hopNode struct {
	id, n, tokens, ttl int
	f                  *Fabric
	seen, early        *atomic.Int64
}

func (h *hopNode) Init(ctx Context) {
	for i := 0; i < h.tokens; i++ {
		ctx.Send((h.id+1)%h.n, relayMsg{TTL: h.ttl})
	}
}

func (h *hopNode) Deliver(ctx Context, from NodeID, m Message) {
	h.seen.Add(1)
	if ttl := m.(relayMsg).TTL; ttl > 0 {
		ctx.Send((h.id+1)%h.n, relayMsg{TTL: ttl - 1})
	}
	if h.f.Quiesced() {
		h.early.Add(1)
	}
}

// TestQuiescedNeverTrueWhileStaged: sends staged by a worker are counted
// when its stage is flushed, before the batch that caused them is counted
// off, so neither a handler nor an outside observer ever sees the fabric
// quiescent while a token is still travelling between workers.
func TestQuiescedNeverTrueWhileStaged(t *testing.T) {
	const n, tokens, ttl = 4, 8, 2000
	var seen, early atomic.Int64
	nodes := make([]Node, n)
	f := NewFabric(nodes, CounterClock, true)
	for id := range nodes {
		nodes[id] = &hopNode{id: id, n: n, tokens: tokens, ttl: ttl, f: f, seen: &seen, early: &early}
	}
	f.SetWorkers(2) // node id modulo 2: every hop crosses to the other worker
	const total = n * tokens * (ttl + 1)
	watched := make(chan int64)
	go func() {
		var wrong int64
		for seen.Load() < total {
			// Quiescence is final: once the counter reads zero, every
			// delivery has been handled, so seen is already total. A
			// counter below zero is the same fault, caught earlier.
			if f.inflight.Load() <= 0 && seen.Load() < total {
				wrong++
			}
		}
		watched <- wrong
	}()
	f.Start()
	if !f.AwaitQuiescence(10 * time.Second) {
		t.Fatal("fabric did not quiesce")
	}
	f.Stop()
	if wrong := <-watched; wrong != 0 {
		t.Errorf("an observer saw the fabric quiescent %d times with tokens in flight", wrong)
	}
	if early.Load() != 0 {
		t.Errorf("a handler saw the fabric quiescent %d times right after staging a send", early.Load())
	}
	if got := f.Metrics().Delivered; got != total || seen.Load() != total {
		t.Fatalf("delivered %d (seen %d), want %d", got, seen.Load(), total)
	}
}
