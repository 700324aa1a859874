package simnet

import (
	"fmt"
	"testing"
)

// relayMsg is a minimal protocol message for runner micro-benchmarks: a
// hop counter that keeps a fixed amount of traffic in flight without any
// protocol-level allocation, so allocs/op measures the runner itself.
type relayMsg struct {
	TTL int
}

func (relayMsg) WireSize() int { return 8 }
func (relayMsg) Kind() string  { return "relay" }

// relayNode forwards each message to the next node until its TTL expires.
// Every delivery does constant work, so the benchmark isolates the
// runner's per-delivery cost: mailbox operations, metering and context
// plumbing.
type relayNode struct {
	id, n, fanout, ttl int
}

func (r *relayNode) Init(ctx Context) {
	for i := 1; i <= r.fanout; i++ {
		ctx.Send((r.id+i)%r.n, relayMsg{TTL: r.ttl})
	}
}

func (r *relayNode) Deliver(ctx Context, from NodeID, m Message) {
	msg := m.(relayMsg)
	if msg.TTL <= 0 {
		return
	}
	ctx.Send((r.id+1)%r.n, relayMsg{TTL: msg.TTL - 1})
}

// BenchmarkGoRunnerDeliver measures the GoRunner delivery hot path with
// constant-work nodes: n·fanout·(ttl+1) deliveries per op. The per-delivery
// allocation count (allocs/op divided by the deliveries metric) is the
// number to watch; wall-clock on shared hardware is noisy.
func BenchmarkGoRunnerDeliver(b *testing.B) {
	for _, n := range []int{64, 256} {
		const fanout, ttl = 4, 64
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var delivered int64
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				nodes := make([]Node, n)
				for id := range nodes {
					nodes[id] = &relayNode{id: id, n: n, fanout: fanout, ttl: ttl}
				}
				m := NewFabric(nodes, CausalClock, true).Run()
				delivered = m.Delivered
				if want := int64(n * fanout * (ttl + 1)); delivered != want {
					b.Fatalf("delivered %d, want %d", delivered, want)
				}
			}
			b.ReportMetric(float64(delivered), "deliveries")
		})
	}
}

// BenchmarkAsyncRunnerDeliver is the single-threaded analogue over the
// FIFO scheduler: the deterministic runners share the metering path, so
// this tracks the non-sharded part of the delivery cost.
func BenchmarkAsyncRunnerDeliver(b *testing.B) {
	const n, fanout, ttl = 256, 4, 64
	var delivered int64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		nodes := make([]Node, n)
		for id := range nodes {
			nodes[id] = &relayNode{id: id, n: n, fanout: fanout, ttl: ttl}
		}
		m := NewAsync(nodes, NewFIFO()).Run()
		delivered = m.Delivered
	}
	b.ReportMetric(float64(delivered), "deliveries")
}
