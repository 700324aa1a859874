package simnet

import (
	"bytes"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"reflect"
	"runtime/debug"
	"sync"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files instead of comparing")

// burst and echo are the two kinds of the round-log tests, with different
// wire sizes so the byte meters tell them apart.
type burst struct{ k int }

func (burst) WireSize() int { return 6 }
func (burst) Kind() string  { return "burst" }

type echo struct{}

func (echo) WireSize() int { return 2 }
func (echo) Kind() string  { return "echo" }

// sentRec is one line of the transcript the burst nodes keep of their own
// sends, in send order.
type sentRec struct {
	from, to, round int
	kind            string
	size            int
}

// received is one delivery as its receiver saw it.
type received struct {
	from, round int
	kind        string
}

// burstNode sends fan bursts to every peer on Init — one round holding
// n·(n-1)·fan records — and answers each delivery with an echo while its
// budget lasts, so the later rounds are large too. Every send is appended
// to the transcript, which is what the runner must reproduce; every
// delivery to the node's own log.
type burstNode struct {
	id, n, fan, budget int
	sent               *[]sentRec
	got                []received
}

func (b *burstNode) send(ctx Context, to int, m Message) {
	*b.sent = append(*b.sent, sentRec{from: b.id, to: to, round: ctx.Now(), kind: m.Kind(), size: m.WireSize() + envelopeOverhead})
	ctx.Send(to, m)
}

func (b *burstNode) Init(ctx Context) {
	for k := 0; k < b.fan; k++ {
		for to := 0; to < b.n; to++ {
			if to != b.id {
				b.send(ctx, to, burst{k: k})
			}
		}
	}
}

func (b *burstNode) Deliver(ctx Context, from NodeID, m Message) {
	b.got = append(b.got, received{from: from, round: ctx.Now(), kind: m.Kind()})
	if b.budget > 0 {
		b.budget--
		b.send(ctx, from, echo{})
	}
}

const (
	burstN      = 48
	burstFan    = 6
	burstBudget = 400
)

// burstPopulation builds the burst nodes. They share the transcript sent;
// with sent nil each keeps its own, which is what nodes delivered on
// several workers must do.
func burstPopulation(sent *[]sentRec) []Node {
	nodes := make([]Node, burstN)
	for i := range nodes {
		own := sent
		if own == nil {
			own = new([]sentRec)
		}
		nodes[i] = &burstNode{id: i, n: burstN, fan: burstFan, budget: burstBudget, sent: own}
	}
	return nodes
}

// withWorkers makes the runners of the calling test deliver on w workers.
func withWorkers(t *testing.T, w int) {
	prev := forcedWorkers
	forcedWorkers = w
	t.Cleanup(func() { forcedWorkers = prev })
}

// perReceiver splits an observer stream by receiver: what each node must
// have received, in order, whatever the number of workers.
func perReceiver(stream []Envelope) [][]received {
	got := make([][]received, burstN)
	for _, e := range stream {
		got[e.To] = append(got[e.To], received{from: e.From, round: e.Depth, kind: e.Msg.Kind()})
	}
	return got
}

// checkReceivers compares what the burst nodes received with want.
func checkReceivers(t *testing.T, nodes []Node, want [][]received) {
	t.Helper()
	for id, n := range nodes {
		b, ok := n.(*burstNode)
		if !ok {
			continue
		}
		if !reflect.DeepEqual(b.got, want[id]) {
			t.Fatalf("node %d received %d messages in another order than the serial stream (%d)", id, len(b.got), len(want[id]))
		}
	}
}

// TestRoundLogOrderAndMetrics: a population whose first round spans more
// than three blocks is delivered in send order across the block boundaries,
// one round after it was sent, and the meters equal the transcript.
func TestRoundLogOrderAndMetrics(t *testing.T) {
	var sent []sentRec
	var got []Envelope
	r := NewSync(burstPopulation(&sent), nil)
	r.Observe(func(e Envelope) { got = append(got, e) })
	m := r.Run(100)

	if first := burstN * (burstN - 1) * burstFan; first <= 3*logBlock {
		t.Fatalf("first round holds %d records, want more than three blocks (%d)", first, 3*logBlock)
	}
	if len(got) != len(sent) {
		t.Fatalf("delivered %d of %d sends", len(got), len(sent))
	}
	want := newMetrics(burstN)
	for i, s := range sent {
		e := got[i]
		if e.From != s.from || e.To != s.to || e.Msg.Kind() != s.kind || e.Depth != s.round+1 {
			t.Fatalf("delivery %d = (%d→%d %s round %d), want (%d→%d %s round %d)",
				i, e.From, e.To, e.Msg.Kind(), e.Depth, s.from, s.to, s.kind, s.round+1)
		}
		want.PerNode[s.from].SentMsgs++
		want.PerNode[s.from].SentBytes += int64(s.size)
		want.PerNode[s.to].RecvMsgs++
		want.PerNode[s.to].RecvBytes += int64(s.size)
		want.ByKind[s.kind]++
		want.Delivered++
		if s.round+1 > want.Rounds {
			want.Rounds = s.round + 1
		}
	}
	if !reflect.DeepEqual(m.PerNode, want.PerNode) {
		t.Fatal("PerNode meters differ from the transcript")
	}
	if !reflect.DeepEqual(m.ByKind, want.ByKind) {
		t.Fatalf("ByKind = %v, want %v", m.ByKind, want.ByKind)
	}
	if m.Rounds != want.Rounds || m.Delivered != want.Delivered {
		t.Fatalf("Rounds/Delivered = %d/%d, want %d/%d", m.Rounds, m.Delivered, want.Rounds, want.Delivered)
	}

	// An observed run delivers on one worker. Without the observer, on one
	// worker and on four, every node receives the same messages in the same
	// order, sends the same transcript, and the meters agree.
	recv := perReceiver(got)
	for _, w := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) {
			withWorkers(t, w)
			nodes := burstPopulation(nil)
			r := NewSync(nodes, nil)
			pm := r.Run(100)
			if len(r.slots) != w+1 {
				t.Fatalf("ran %d workers, want %d", len(r.slots)-1, w)
			}
			checkReceivers(t, nodes, recv)
			for id, n := range nodes {
				var own []sentRec
				for _, s := range sent {
					if s.from == id {
						own = append(own, s)
					}
				}
				if !reflect.DeepEqual(*n.(*burstNode).sent, own) {
					t.Fatalf("node %d sent another transcript", id)
				}
			}
			if !reflect.DeepEqual(pm, m) {
				t.Fatalf("metrics differ from the observed run: %+v vs %+v", pm, m)
			}
		})
	}
}

// burstRusher is a Byzantine member of the burst population: it injects one
// burst per observed round towards the node it saw addressed last, so what
// it sends depends on exactly which envelopes the runner showed it.
type burstRusher struct {
	id       int
	observed int
	shown    uint64 // running digest of every envelope shown, in order
}

func (r *burstRusher) Init(ctx Context) {}
func (r *burstRusher) Deliver(ctx Context, from NodeID, m Message) {
	if ctx.Now() < 8 {
		ctx.Send(from, echo{})
	}
}
func (r *burstRusher) Rush(ctx Context, round int, correct []Envelope) {
	r.observed += len(correct)
	h := fnv.New64a()
	fmt.Fprint(h, r.shown)
	for _, e := range correct {
		fmt.Fprintf(h, " %d %d %s %d", e.From, e.To, e.Msg.Kind(), e.Depth)
	}
	r.shown = h.Sum64()
	if len(correct) > 0 && round < 6 {
		last := correct[len(correct)-1]
		ctx.Send(last.To, burst{k: len(correct) + last.Depth})
	}
}

// faultRun runs the burst population with a Rusher under every fault the
// sync runner implements — delay carried over rounds, duplicates, drops, a
// crash window judged at send and at delivery — and observe, if not nil, on
// every delivery.
func faultRun(observe Observer) ([]Node, *burstRusher, *Metrics) {
	nodes := burstPopulation(nil)
	spy := &burstRusher{id: burstN - 1}
	nodes[burstN-1] = spy
	corrupt := make([]bool, burstN)
	corrupt[burstN-1] = true

	r := NewSync(nodes, corrupt)
	r.InjectFaults(FaultPlan{
		Seed: 15, DropProb: 0.05, DupProb: 0.1, DelayProb: 0.3, MaxDelay: 3,
		Crashes: []Crash{{Node: 5, At: 2, RecoverAt: 4}},
	})
	if observe != nil {
		r.Observe(observe)
	}
	return nodes, spy, r.Run(40)
}

// TestRoundLogFaultStreamGolden pins the observer stream (from, to, kind,
// depth) of a multi-block run under every fault the sync runner implements,
// with a Rusher in the population. The golden was captured from the
// slice-based runner the round log replaced. Unobserved, on one worker and
// on four, every node must receive what the stream gave it, in its order,
// and the Rusher must be shown the same envelopes.
func TestRoundLogFaultStreamGolden(t *testing.T) {
	type roundSum struct {
		delivered int
		digest    uint64
	}
	var rounds []roundSum
	var stream []Envelope
	h := fnv.New64a()
	_, spy, m := faultRun(func(e Envelope) {
		for e.Depth >= len(rounds) {
			rounds = append(rounds, roundSum{})
		}
		fmt.Fprintf(h, "%d %d %s %d\n", e.From, e.To, e.Msg.Kind(), e.Depth)
		rounds[e.Depth].delivered++
		rounds[e.Depth].digest = h.Sum64() // running digest: order within and across rounds
		stream = append(stream, e)
	})

	var out bytes.Buffer
	for i, rs := range rounds {
		fmt.Fprintf(&out, "round %d delivered %d digest %016x\n", i, rs.delivered, rs.digest)
	}
	fmt.Fprintf(&out, "rounds %d delivered %d burst %d echo %d rusher-observed %d\n",
		m.Rounds, m.Delivered, m.ByKind["burst"], m.ByKind["echo"], spy.observed)

	path := filepath.Join("testdata", "roundlog_faults.golden")
	if *updateGolden {
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Fatalf("observer stream diverged from %s:\n got:\n%s want:\n%s", path, out.Bytes(), want)
	}

	recv := perReceiver(stream)
	for _, w := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) {
			withWorkers(t, w)
			nodes, wspy, wm := faultRun(nil)
			checkReceivers(t, nodes, recv)
			if wspy.observed != spy.observed || wspy.shown != spy.shown {
				t.Fatalf("the Rusher was shown %d envelopes (digest %x), want %d (%x)", wspy.observed, wspy.shown, spy.observed, spy.shown)
			}
			if !reflect.DeepEqual(wm, m) {
				t.Fatalf("metrics differ from the observed run: %+v vs %+v", wm, m)
			}
		})
	}
}

// poolDropsPuts reports whether sync.Pool loses Puts in this build: under
// the race detector it drops a quarter of them on purpose, and a test that
// counts on getting back what it put must stand down.
func poolDropsPuts() bool {
	var p sync.Pool
	for i := 0; i < 64; i++ {
		p.Put(new(int))
	}
	for i := 0; i < 64; i++ {
		if p.Get() == nil {
			return true
		}
	}
	return false
}

// TestRoundLogReturnsBlocksOnEveryExit: however a run ends — quiescence, the
// round cap, a StopWhen that turns true in the middle of a round with a
// round's worth of records in flight — every block goes back to the pool,
// cleared, so the run after it allocates none.
func TestRoundLogReturnsBlocksOnEveryExit(t *testing.T) {
	// A collection empties the pool; none may run between the runs compared.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if poolDropsPuts() {
		t.Skip("sync.Pool drops Puts in this build (race detector)")
	}
	misses := 0
	newBlock := blockPool.New
	blockPool.New = func() any { misses++; return newBlock() }
	defer func() { blockPool.New = newBlock }()

	full := func() {
		var sent []sentRec
		NewSync(burstPopulation(&sent), nil).Run(100)
	}
	full() // the pool now holds the run's high-water mark, four blocks and more

	exits := map[string]func(){
		"quiescence": full,
		"round cap": func() {
			var sent []sentRec
			r := NewSync(burstPopulation(&sent), nil)
			r.Run(1)
			for _, s := range r.slots {
				for d := range s.out {
					if l, p := s.out[d], s.prev[d]; l.n+p.n != 0 || len(l.blocks)+len(p.blocks) != 0 {
						t.Errorf("the round cap left %d records in %d blocks", l.n+p.n, len(l.blocks)+len(p.blocks))
					}
				}
			}
		},
		"StopWhen mid-round": func() {
			var sent []sentRec
			var delivered int
			r := NewSync(burstPopulation(&sent), nil)
			r.Observe(func(Envelope) { delivered++ })
			r.StopWhen(func() bool { return delivered > logBlock }) // true from the middle of round 1
			if m := r.Run(100); m.Rounds != 1 || len(sent) <= burstN*(burstN-1)*burstFan {
				t.Errorf("stopped after %d rounds with %d sends: round 1's sends were not in flight", m.Rounds, len(sent))
			}
		},
	}
	for name, exit := range exits {
		exit()
		misses = 0
		full()
		if misses != 0 {
			t.Errorf("%s: the next run allocated %d new blocks", name, misses)
		}
	}

	// Cleared on return: no pooled block keeps a message alive.
	var held []*recBlock
	for misses = 0; misses == 0; {
		blk := blockPool.Get().(*recBlock)
		held = append(held, blk)
		for i := range blk {
			if blk[i] != (sendRec{}) {
				t.Fatalf("a pooled block holds record %+v", blk[i])
			}
		}
	}
	for _, blk := range held {
		blockPool.Put(blk)
	}
}

// roundSender fans one message out to every peer per delivery budget: the
// shape of an agreement's Fw1 round, where few deliveries cause many sends.
type roundSender struct {
	id, n, fan int
	recv       int
}

func (s *roundSender) Init(ctx Context) {
	var m Message = burst{k: s.id}
	for k := 0; k < s.fan; k++ {
		for to := 0; to < s.n; to++ {
			ctx.Send(to, m)
		}
	}
}

func (s *roundSender) Deliver(ctx Context, from NodeID, m Message) { s.recv++ }

// BenchmarkSyncRunnerRound is one agreement-shaped round at n = 128: every
// node fans 64 messages out to every node (1 M sends, the order of an n = 128
// Fw1 round), and the next round delivers them to counting receivers. What
// it reports is the runner alone — B/op is what the round log costs once the
// pool is warm, ns/msg one send plus one delivery.
func BenchmarkSyncRunnerRound(b *testing.B) {
	const n, fan = 128, 64
	nodes := make([]Node, n)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for id := range nodes {
			nodes[id] = &roundSender{id: id, n: n, fan: fan}
		}
		m := NewSync(nodes, nil).Run(4)
		if m.Delivered != n*n*fan {
			b.Fatalf("delivered %d, want %d", m.Delivered, n*n*fan)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n*n*fan), "ns/msg")
}

// TestSendRecSize: a record in flight stays 32 bytes. The round logs of an
// n = 4096 agreement hold tens of millions of them at once.
func TestSendRecSize(t *testing.T) {
	if got := reflect.TypeOf(sendRec{}).Size(); got != 32 {
		t.Fatalf("sendRec is %d bytes, want 32", got)
	}
}
