// Tests in this file run in the external fastba_test package on purpose:
// they prove the extension points — custom adversaries, schedulers and
// observers — work through the exported surface alone, exactly as an
// importing module would use them, without touching internal/.
package fastba_test

import (
	"bytes"
	"context"
	"sort"
	"strings"
	"testing"

	"github.com/fastba/fastba"
)

// chaffMsg is a message type the library has never seen.
type chaffMsg struct{}

func (chaffMsg) WireSize() int { return 32 }
func (chaffMsg) Kind() string  { return "chaff" }

// chaffNode sprays a fixed fan of chaff at deterministic targets.
type chaffNode struct {
	env fastba.AdversaryEnv
	id  int
}

func (c *chaffNode) Init(ctx fastba.NodeContext) {
	for k := 0; k < c.env.QuorumSize; k++ {
		ctx.Send((c.id+k*7+int(c.env.Seed))%c.env.N, chaffMsg{})
	}
}

func (c *chaffNode) Deliver(fastba.NodeContext, fastba.NodeID, fastba.Message) {}

func registerChaffOnce(t *testing.T) {
	t.Helper()
	err := fastba.RegisterAdversary("test-chaff",
		func(env fastba.AdversaryEnv, id int) fastba.ProtocolNode {
			return &chaffNode{env: env, id: id}
		})
	if err != nil && !strings.Contains(err.Error(), "already registered") {
		t.Fatal(err)
	}
}

func TestCustomAdversaryThroughPublicAPI(t *testing.T) {
	registerChaffOnce(t)
	res, err := fastba.RunAER(fastba.NewConfig(96,
		fastba.WithSeed(4),
		fastba.WithAdversaryName("test-chaff"),
		fastba.WithCorruptFrac(0.05),
		fastba.WithKnowFrac(0.92),
	))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Agreement {
		t.Fatalf("chaff adversary broke agreement: %+v", res)
	}
	if res.MessagesByKind["chaff"] == 0 {
		t.Fatal("custom message kind not metered")
	}
	// The custom strategy also drives a full sweep.
	rep, err := fastba.RunSuite(context.Background(), fastba.Suite{
		Sweep: fastba.Sweep{
			Ns:          []int{64},
			Seeds:       fastba.Seeds(2),
			Adversaries: []string{"silent", "test-chaff"},
			Options:     []fastba.Option{fastba.WithCorruptFrac(0.05), fastba.WithKnowFrac(0.92)},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Cells) != 2 || rep.Cells[1].Cell.Adversary != "test-chaff" {
		t.Fatalf("custom adversary missing from report: %+v", rep.Cells)
	}
}

func TestRegisterAdversaryRejections(t *testing.T) {
	mk := func(fastba.AdversaryEnv, int) fastba.ProtocolNode { return nil }
	if err := fastba.RegisterAdversary("", mk); err == nil {
		t.Fatal("empty name accepted")
	}
	if err := fastba.RegisterAdversary("nameless", nil); err == nil {
		t.Fatal("nil maker accepted")
	}
	for _, reserved := range []string{"none", "silent"} {
		if err := fastba.RegisterAdversary(reserved, mk); err == nil {
			t.Fatalf("reserved name %q accepted", reserved)
		}
	}
	registerChaffOnce(t)
	if err := fastba.RegisterAdversary("test-chaff", mk); err == nil {
		t.Fatal("duplicate registration accepted")
	}
	names := fastba.RegisteredAdversaries()
	joined := strings.Join(names, ",")
	for _, want := range []string{"none", "silent", "flood", "equivocate", "corner", "test-chaff"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("RegisteredAdversaries() = %v missing %q", names, want)
		}
	}
}

// lifoScheduler delivers the newest message first — a delivery order the
// library does not ship.
type lifoScheduler struct{ q []fastba.Envelope }

func (s *lifoScheduler) Push(e fastba.Envelope) { s.q = append(s.q, e) }
func (s *lifoScheduler) Len() int               { return len(s.q) }
func (s *lifoScheduler) Pop() fastba.Envelope {
	e := s.q[len(s.q)-1]
	s.q = s.q[:len(s.q)-1]
	return e
}

func TestCustomSchedulerThroughPublicAPI(t *testing.T) {
	cfg := fastba.NewConfig(64,
		fastba.WithSeed(3),
		fastba.WithModel(fastba.Async),
		fastba.WithCorruptFrac(0.05),
		fastba.WithKnowFrac(0.92),
		fastba.WithScheduler(func(n int, seed uint64) fastba.Scheduler { return &lifoScheduler{} }),
	)
	a, err := fastba.RunAER(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Agreement {
		t.Fatalf("LIFO order broke agreement: %+v", a)
	}
	b, err := fastba.RunAER(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Time != b.Time || a.MeanBitsPerNode != b.MeanBitsPerNode {
		t.Fatal("custom-scheduler run not deterministic")
	}
	// The built-in constructors are usable as custom makers too.
	fifo, err := fastba.RunAER(fastba.NewConfig(64,
		fastba.WithSeed(3), fastba.WithModel(fastba.Async),
		fastba.WithCorruptFrac(0.05), fastba.WithKnowFrac(0.92),
		fastba.WithScheduler(func(n int, seed uint64) fastba.Scheduler { return fastba.NewFIFOScheduler() }),
	))
	if err != nil {
		t.Fatal(err)
	}
	if !fifo.Agreement {
		t.Fatalf("FIFO order broke agreement: %+v", fifo)
	}
}

func TestObserverEventStream(t *testing.T) {
	var delivers, decisions int64
	lastRound := 0
	roundsMonotone := true
	res, err := fastba.RunAER(fastba.NewConfig(64,
		fastba.WithSeed(2),
		fastba.WithCorruptFrac(0.05),
		fastba.WithKnowFrac(0.92),
		fastba.WithObserver(func(ev fastba.Event) {
			switch ev.Type {
			case fastba.EventDeliver:
				delivers++
				if ev.Kind == "" || ev.Size < 0 {
					t.Errorf("malformed deliver event: %+v", ev)
				}
			case fastba.EventRound:
				if ev.Time <= lastRound {
					roundsMonotone = false
				}
				lastRound = ev.Time
			case fastba.EventDecision:
				decisions++
			}
		}),
	))
	if err != nil {
		t.Fatal(err)
	}
	if delivers != res.TotalMessages {
		t.Fatalf("observed %d deliveries, metrics say %d", delivers, res.TotalMessages)
	}
	if decisions != int64(res.Decided) {
		t.Fatalf("observed %d decisions, result says %d", decisions, res.Decided)
	}
	if !roundsMonotone || lastRound != res.Time {
		t.Fatalf("round events broken: last %d vs time %d", lastRound, res.Time)
	}
}

func TestObserverUnderGoroutinesModel(t *testing.T) {
	var delivers int64
	var decisionTimes []int
	res, err := fastba.RunAER(fastba.NewConfig(64,
		fastba.WithSeed(2),
		fastba.WithModel(fastba.Goroutines),
		fastba.WithCorruptFrac(0.05),
		fastba.WithKnowFrac(0.92),
		fastba.WithObserver(func(ev fastba.Event) {
			switch ev.Type {
			case fastba.EventDeliver:
				delivers++
			case fastba.EventDecision:
				decisionTimes = append(decisionTimes, ev.Time)
			}
		}),
	))
	if err != nil {
		t.Fatal(err)
	}
	if delivers != res.TotalMessages {
		t.Fatalf("observed %d deliveries, metrics say %d", delivers, res.TotalMessages)
	}
	// The goroutine runtime buffers observations and fans them in at
	// quiescence; decision events must still carry each node's actual
	// decision time, not the replay position.
	want := append([]int(nil), res.DecisionTimes...)
	got := append([]int(nil), decisionTimes...)
	sort.Ints(want)
	sort.Ints(got)
	if len(got) != len(want) {
		t.Fatalf("observed %d decision events, result has %d decision times", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("decision times diverge: observed %v, result %v", got, want)
		}
	}
}

func TestPublicTrace(t *testing.T) {
	tr := fastba.NewTrace(64)
	res, err := fastba.RunAER(fastba.NewConfig(64,
		fastba.WithSeed(2),
		fastba.WithCorruptFrac(0.05),
		fastba.WithKnowFrac(0.92),
		fastba.WithObserver(tr.Observer()),
	))
	if err != nil {
		t.Fatal(err)
	}
	if tr.TotalDeliveries() != res.TotalMessages || tr.MaxTime() != res.Time {
		t.Fatalf("trace disagrees with metrics: %d/%d vs %d/%d",
			tr.TotalDeliveries(), tr.MaxTime(), res.TotalMessages, res.Time)
	}
	var buf bytes.Buffer
	tr.Timeline(&buf)
	if !strings.Contains(buf.String(), "push") {
		t.Fatalf("timeline missing push phase:\n%s", buf.String())
	}
	buf.Reset()
	tr.Hotspots(&buf, 3)
	if len(strings.Split(strings.TrimSpace(buf.String()), "\n")) != 3 {
		t.Fatalf("hotspots wrong shape:\n%s", buf.String())
	}
}

func TestTCPModelPublic(t *testing.T) {
	res, err := fastba.RunAER(fastba.NewConfig(16,
		fastba.WithModel(fastba.TCP),
		fastba.WithSeed(5),
		fastba.WithCorruptFrac(0.05),
		fastba.WithKnowFrac(0.92),
	))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Agreement || res.TimedOut {
		t.Fatalf("TCP run failed: %+v", res)
	}
	if res.MeanBitsPerNode <= 0 || res.MaxBitsPerNode < int64(res.MeanBitsPerNode) {
		t.Fatalf("degenerate TCP metrics: %+v", res)
	}
	// The result is the ordinary AERResult: what the cluster's Fabric
	// metered is all there, plus the supervision counters.
	if res.TotalMessages <= 0 || res.MessagesByKind["push"] <= 0 || len(res.DecisionTimes) != res.Decided {
		t.Fatalf("TCP result lacks the metered fields: %+v", res)
	}
	if res.Net.Dials <= 0 || res.Net.MessagesSent <= 0 {
		t.Fatalf("TCP result carries no supervision counters: %+v", res.Net)
	}
}

func TestRunSuiteTCPModel(t *testing.T) {
	rep, err := fastba.RunSuite(context.Background(), fastba.Suite{
		Workers:      2,
		CheckOracles: true,
		Sweep: fastba.Sweep{
			Ns:      []int{16},
			Seeds:   fastba.Seeds(2),
			Models:  []fastba.Model{fastba.TCP},
			Options: []fastba.Option{fastba.WithCorruptFrac(0.05), fastba.WithKnowFrac(0.92)},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	cr := rep.Cells[0]
	if cr.Cell.Model != "tcp" {
		t.Fatalf("TCP suite cell is labelled %q", cr.Cell.Model)
	}
	if cr.AgreeRuns != cr.Runs || cr.Failures != 0 || cr.OracleViolations != 0 {
		t.Fatalf("TCP suite cell: %+v", cr)
	}
}
