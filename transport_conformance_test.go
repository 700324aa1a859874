package fastba

// Transport conformance suite: every runtime that executes protocol nodes —
// the deterministic event-loop runners, the goroutine Fabric and the TCP
// cluster (internal/netrun), bare and through the public Model values —
// must produce identical
// decisions and identical per-kind message counts on a seeded fault-free
// scenario.
//
// The scenario is chosen to make the message pattern order-independent so
// the counts are comparable across schedulers and real concurrency: with
// no Byzantine nodes and every correct node knowing gstring, each
// handler's sends are gated by monotone per-(x, s) state (forward-once,
// answer-once, one poll per candidate), so delivery order cannot change
// what is eventually sent — only when.

import (
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"

	"github.com/fastba/fastba/internal/core"
	"github.com/fastba/fastba/internal/netrun"
	"github.com/fastba/fastba/internal/scenario"
	"github.com/fastba/fastba/internal/simnet"
)

// conformanceScenario builds the order-independent population: everyone
// correct, everyone knowledgeable.
func conformanceScenario(t *testing.T, n int, seed uint64) *core.Scenario {
	t.Helper()
	sc, err := core.NewScenario(core.DefaultParams(n), seed, core.ScenarioConfig{
		CorruptFrac: 0,
		KnowFrac:    1,
		SharedJunk:  true,
		AdvBits:     1.0 / 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// runOutcome is the cross-runtime comparable signature of one execution.
type runOutcome struct {
	decidedG  int
	decided   int
	correct   int
	delivered int64
	byKind    map[string]int64
	sentMsgs  []int64
}

func outcomeOf(sc *core.Scenario, correct []*core.Node, m *simnet.Metrics) runOutcome {
	o := core.Evaluate(correct, sc.GString)
	out := runOutcome{
		decidedG:  o.DecidedG,
		decided:   o.Decided,
		correct:   o.Correct,
		delivered: m.Delivered,
		byKind:    m.ByKind,
	}
	for i := range m.PerNode {
		out.sentMsgs = append(out.sentMsgs, m.PerNode[i].SentMsgs)
	}
	return out
}

func (a runOutcome) diff(b runOutcome) string {
	if a.correct != b.correct || a.decided != b.decided || a.decidedG != b.decidedG {
		return fmt.Sprintf("decisions differ: %d/%d/%d vs %d/%d/%d",
			a.decidedG, a.decided, a.correct, b.decidedG, b.decided, b.correct)
	}
	if a.delivered != b.delivered {
		return fmt.Sprintf("delivered differ: %d vs %d", a.delivered, b.delivered)
	}
	if len(a.byKind) != len(b.byKind) {
		return fmt.Sprintf("kind sets differ: %v vs %v", a.byKind, b.byKind)
	}
	for k, v := range a.byKind {
		if b.byKind[k] != v {
			return fmt.Sprintf("kind %q differs: %d vs %d (%v vs %v)", k, v, b.byKind[k], a.byKind, b.byKind)
		}
	}
	for i := range a.sentMsgs {
		if a.sentMsgs[i] != b.sentMsgs[i] {
			return fmt.Sprintf("node %d sent %d vs %d messages", i, a.sentMsgs[i], b.sentMsgs[i])
		}
	}
	return ""
}

func TestTransportConformance(t *testing.T) {
	const n, seed = 24, 11

	type runtimeCase struct {
		name string
		run  func(t *testing.T, sc *core.Scenario) runOutcome
	}
	cases := []runtimeCase{
		{"sync", func(t *testing.T, sc *core.Scenario) runOutcome {
			nodes, correct := sc.Build(nil)
			m := simnet.NewSync(nodes, sc.Corrupt).Run(200)
			return outcomeOf(sc, correct, m)
		}},
		{"async-fifo", func(t *testing.T, sc *core.Scenario) runOutcome {
			nodes, correct := sc.Build(nil)
			m := simnet.NewAsync(nodes, simnet.NewFIFO()).Run()
			return outcomeOf(sc, correct, m)
		}},
		{"async-random", func(t *testing.T, sc *core.Scenario) runOutcome {
			nodes, correct := sc.Build(nil)
			m := simnet.NewAsync(nodes, simnet.NewRandom(99)).Run()
			return outcomeOf(sc, correct, m)
		}},
		{"goroutines", func(t *testing.T, sc *core.Scenario) runOutcome {
			nodes, correct := sc.Build(nil)
			m := simnet.NewFabric(nodes, simnet.CausalClock, true).Run()
			return outcomeOf(sc, correct, m)
		}},
		{"tcp-cluster", func(t *testing.T, sc *core.Scenario) runOutcome {
			nodes, correct := sc.Build(nil)
			cluster, err := netrun.NewWithOptions(nodes, netrun.Options{})
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
			if err := cluster.RunUntil(context.Background(), allDecided, 60*time.Second); err != nil {
				t.Fatal(err)
			}
			if !cluster.AwaitQuiescence(60 * time.Second) {
				t.Fatal("TCP cluster did not quiesce")
			}
			cluster.Close()
			return outcomeOf(sc, correct, cluster.Metrics())
		}},
	}

	reference := cases[0].run(t, conformanceScenario(t, n, seed))
	if reference.decidedG != reference.correct || reference.correct != n {
		t.Fatalf("reference execution did not fully decide gstring: %+v", reference)
	}
	for _, tc := range cases[1:] {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			got := tc.run(t, conformanceScenario(t, n, seed))
			if d := reference.diff(got); d != "" {
				t.Fatalf("%s diverges from sync reference: %s", tc.name, d)
			}
		})
	}
}

// TestTransportConformanceFaults extends the conformance suite to hostile
// networks: fixed FaultPlan seeds run on every runtime.
//
// Lossless plans (duplication + delay/reorder) preserve the monotone-send
// argument — every message still arrives eventually, duplicates are
// deduplicated by per-sender state — so all five runtimes must reach the
// identical full-agreement decision set, even though each runtime
// realizes a different concrete fault schedule (per-link send indices
// follow its own delivery order).
//
// Lossy plans (drops, partitions, crashes) legitimately produce different
// decision subsets per runtime; what must coincide everywhere is the
// oracle verdict: safety (agreement, validity, certificates) clean on
// every runtime.
func TestTransportConformanceFaults(t *testing.T) {
	const n, seed = 24, 11

	type runtimeCase struct {
		name string
		run  func(t *testing.T, sc *core.Scenario, plan simnet.FaultPlan) (*core.Scenario, []*core.Node)
	}
	cases := []runtimeCase{
		{"sync", func(t *testing.T, sc *core.Scenario, plan simnet.FaultPlan) (*core.Scenario, []*core.Node) {
			nodes, correct := sc.Build(nil)
			r := simnet.NewSync(nodes, sc.Corrupt)
			r.InjectFaults(plan)
			r.Run(200)
			return sc, correct
		}},
		{"async-fifo", func(t *testing.T, sc *core.Scenario, plan simnet.FaultPlan) (*core.Scenario, []*core.Node) {
			nodes, correct := sc.Build(nil)
			r := simnet.NewAsync(nodes, simnet.NewFIFO())
			r.InjectFaults(plan)
			r.Run()
			return sc, correct
		}},
		{"async-random", func(t *testing.T, sc *core.Scenario, plan simnet.FaultPlan) (*core.Scenario, []*core.Node) {
			nodes, correct := sc.Build(nil)
			r := simnet.NewAsync(nodes, simnet.NewRandom(99))
			r.InjectFaults(plan)
			r.Run()
			return sc, correct
		}},
		{"goroutines", func(t *testing.T, sc *core.Scenario, plan simnet.FaultPlan) (*core.Scenario, []*core.Node) {
			nodes, correct := sc.Build(nil)
			f := simnet.NewFabric(nodes, simnet.CausalClock, true)
			f.SetFaults(plan)
			f.Run()
			return sc, correct
		}},
		{"tcp-cluster", func(t *testing.T, sc *core.Scenario, plan simnet.FaultPlan) (*core.Scenario, []*core.Node) {
			nodes, correct := sc.Build(nil)
			cluster, err := netrun.NewWithOptions(nodes, netrun.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer cluster.Close()
			cluster.InjectFaults(plan)
			cluster.Start()
			// "All decided" may never come true on a lossy network;
			// quiescence is the other legitimate end of the run.
			if !cluster.AwaitQuiescence(60 * time.Second) {
				t.Fatal("TCP cluster did not quiesce under faults")
			}
			cluster.Close()
			return sc, correct
		}},
	}

	// safetyVerdict distills the cross-runtime comparable oracle verdict.
	safetyVerdict := func(sc *core.Scenario, correct []*core.Node) string {
		o := core.Evaluate(correct, sc.GString)
		switch {
		case o.DistinctDecisions > 1:
			return "agreement-violated"
		case o.DecidedOther > 0:
			return "validity-violated"
		case o.CertDeficits > 0:
			return "certificates-violated"
		default:
			return "safe"
		}
	}

	t.Run("lossless-identical-decisions", func(t *testing.T) {
		plan := simnet.FaultPlan{Seed: 3, DupProb: 0.25, DelayProb: 0.3, MaxDelay: 3}
		for _, tc := range cases {
			tc := tc
			t.Run(tc.name, func(t *testing.T) {
				sc, correct := tc.run(t, conformanceScenario(t, n, seed), plan)
				o := core.Evaluate(correct, sc.GString)
				if o.DecidedG != o.Correct || o.Correct != n {
					t.Fatalf("%s under lossless faults: %d/%d decided gstring (want all %d)",
						tc.name, o.DecidedG, o.Correct, n)
				}
				if v := safetyVerdict(sc, correct); v != "safe" {
					t.Fatalf("%s under lossless faults: %s", tc.name, v)
				}
			})
		}
	})

	t.Run("lossy-identical-verdicts", func(t *testing.T) {
		plans := []simnet.FaultPlan{
			{Seed: 5, DropProb: 0.15, Partitions: []simnet.Partition{{A: []simnet.NodeID{0, 1, 2, 3}, From: 2, Until: 6}}},
			{Seed: 9, DropProb: 0.1, Crashes: []simnet.Crash{{Node: 1, At: 0}, {Node: 2, At: 3, RecoverAt: 8}}},
		}
		for pi, plan := range plans {
			for _, tc := range cases {
				tc, plan := tc, plan
				t.Run(fmt.Sprintf("plan%d-%s", pi, tc.name), func(t *testing.T) {
					sc, correct := tc.run(t, conformanceScenario(t, n, seed), plan)
					if v := safetyVerdict(sc, correct); v != "safe" {
						t.Fatalf("%s under lossy plan %d: %s", tc.name, pi, v)
					}
				})
			}
		}
	})

	// The public entry point agrees: the TCP model with a lossless plan
	// decides everywhere; with a lossy plan it ends at quiescence with
	// clean safety verdicts.
	t.Run("run-tcp", func(t *testing.T) {
		lossless := NewConfig(16, WithModel(TCP), WithSeed(11), WithAdversary(AdversaryNone), WithKnowFrac(1),
			WithFaults(FaultPlan{Seed: 3, DupProb: 0.25, DelayProb: 0.3, MaxDelay: 3}))
		res, err := RunAER(lossless)
		if err != nil {
			t.Fatal(err)
		}
		if res.TimedOut || !res.Agreement || res.DistinctDecisions != 1 || res.CertDeficits != 0 {
			t.Fatalf("lossless TCP run: %+v", res)
		}
		lossy := NewConfig(16, WithModel(TCP), WithSeed(11), WithAdversary(AdversaryNone), WithKnowFrac(1),
			WithFaults(FaultPlan{Seed: 5, DropProb: 0.2}))
		res, err = RunAER(lossy)
		if err != nil {
			t.Fatal(err)
		}
		if res.TimedOut {
			t.Fatalf("lossy TCP run should end at quiescence, not timeout: %+v", res)
		}
		if res.DistinctDecisions > 1 || res.DecidedOther > 0 || res.CertDeficits > 0 {
			t.Fatalf("lossy TCP run broke safety: %+v", res)
		}
	})
}

// TestTransportConformanceScenario extends the conformance suite to the
// scenario layer: a lossless network scenario — Watts–Strogatz topology,
// Zipf load, fixed per-link latency, gossip relay — must produce identical
// decisions AND identical per-kind message counts (relay hops included) on
// all five runtimes. This is the payoff of the strictly distance-decreasing
// relay: the forwarding DAG of every (origin, dest) pair is a pure function
// of the topology, so which nodes transmit — and to whom — never depends on
// delivery order.
func TestTransportConformanceScenario(t *testing.T) {
	const n, seed = 24, 11
	spec := scenario.Spec{
		Topology: scenario.TopologyWS, Degree: 6, Rewire: 0.2, ZipfS: 1.0,
		Latency: scenario.LatencyFixed, BaseDelay: 1, Seed: 13,
	}
	comp, err := scenario.Compile(spec, n)
	if err != nil {
		t.Fatal(err)
	}
	plan := simnet.FaultPlan{Seed: spec.Seed, Links: comp.Links}

	build := func(t *testing.T) ([]simnet.Node, []*core.Node) {
		sc := conformanceScenario(t, n, seed)
		nodes, correct := sc.Build(nil)
		return scenario.Wrap(nodes, comp, scenario.WrapConfig{}), correct
	}
	gstring := conformanceScenario(t, n, seed).GString

	type runtimeCase struct {
		name string
		run  func(t *testing.T) runOutcome
	}
	outcome := func(correct []*core.Node, m *simnet.Metrics) runOutcome {
		o := core.Evaluate(correct, gstring)
		out := runOutcome{
			decidedG: o.DecidedG, decided: o.Decided, correct: o.Correct,
			delivered: m.Delivered, byKind: m.ByKind,
		}
		for i := range m.PerNode {
			out.sentMsgs = append(out.sentMsgs, m.PerNode[i].SentMsgs)
		}
		return out
	}
	cases := []runtimeCase{
		{"sync", func(t *testing.T) runOutcome {
			nodes, correct := build(t)
			r := simnet.NewSync(nodes, make([]bool, n))
			r.InjectFaults(plan)
			return outcome(correct, r.Run(400))
		}},
		{"async-fifo", func(t *testing.T) runOutcome {
			nodes, correct := build(t)
			r := simnet.NewAsync(nodes, simnet.NewFIFO())
			r.InjectFaults(plan)
			return outcome(correct, r.Run())
		}},
		{"async-random", func(t *testing.T) runOutcome {
			nodes, correct := build(t)
			r := simnet.NewAsync(nodes, simnet.NewRandom(99))
			r.InjectFaults(plan)
			return outcome(correct, r.Run())
		}},
		{"goroutines", func(t *testing.T) runOutcome {
			nodes, correct := build(t)
			f := simnet.NewFabric(nodes, simnet.CausalClock, true)
			f.SetFaults(plan)
			return outcome(correct, f.Run())
		}},
		{"tcp-cluster", func(t *testing.T) runOutcome {
			nodes, correct := build(t)
			cluster, err := netrun.NewWithOptions(nodes, netrun.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer cluster.Close()
			cluster.InjectFaults(plan)
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
			if err := cluster.RunUntil(context.Background(), allDecided, 60*time.Second); err != nil {
				t.Fatal(err)
			}
			if !cluster.AwaitQuiescence(60 * time.Second) {
				t.Fatal("TCP cluster did not quiesce under a scenario")
			}
			cluster.Close()
			return outcome(correct, cluster.Metrics())
		}},
	}

	reference := cases[0].run(t)
	if reference.decidedG != reference.correct || reference.correct != n {
		t.Fatalf("scenario reference execution did not fully decide gstring: %+v", reference)
	}
	if reference.byKind["relay"] == 0 {
		t.Fatalf("relay never engaged on the conformance topology: %v", reference.byKind)
	}
	for _, tc := range cases[1:] {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			got := tc.run(t)
			if d := reference.diff(got); d != "" {
				t.Fatalf("%s diverges from sync reference under a scenario: %s", tc.name, d)
			}
		})
	}
}

// conformanceModels are the public runtimes the order-independence argument
// covers end to end: one event loop, the Fabric on loopback, the Fabric on
// sockets.
var conformanceModels = []Model{SyncNonRushing, Goroutines, TCP}

// TestTransportConformanceTCPModel closes the loop at the public API: one
// construction path, so RunAER under the TCP model executes the same
// configuration it simulates, over real sockets, and must reach the same
// decisions and per-kind message counts with a meaningful decision time.
func TestTransportConformanceTCPModel(t *testing.T) {
	cfg := NewConfig(16, WithSeed(11), WithAdversary(AdversaryNone), WithKnowFrac(1))
	sim, err := RunAER(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tcpCfg := cfg
	WithModel(TCP).apply(&tcpCfg)
	res, err := RunAER(tcpCfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.TimedOut || !res.Agreement {
		t.Fatalf("TCP run failed: %+v", res)
	}
	if res.Decided != sim.Decided || res.DecidedGString != sim.DecidedGString || res.GString != sim.GString {
		t.Fatalf("TCP decisions diverge from simulation: %+v vs %+v", res, sim)
	}
	if !reflect.DeepEqual(res.MessagesByKind, sim.MessagesByKind) || res.TotalMessages != sim.TotalMessages {
		t.Fatalf("TCP message counts diverge from simulation: %v (%d delivered) vs %v (%d delivered)",
			res.MessagesByKind, res.TotalMessages, sim.MessagesByKind, sim.TotalMessages)
	}
	if res.LastDecision <= 0 {
		t.Fatalf("TCP decision time not plumbed: LastDecision = %d", res.LastDecision)
	}

	// An adaptive adversary spends its corruption budget online — the relay
	// silences its targets — so the core population stays uncorrupted on
	// every runtime: the budget is spent once.
	adaptive := NewConfig(24, WithSeed(11), WithCorruptFrac(0.1), WithAdversaryName("adaptive-oblivious"),
		WithScenario(Scenario{Topology: TopologyWS, Degree: 8, Rewire: 0.2}))
	sim, err = RunAER(adaptive)
	if err != nil {
		t.Fatal(err)
	}
	WithModel(TCP).apply(&adaptive)
	res, err = RunAER(adaptive)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct != sim.Correct {
		t.Fatalf("adaptive adversary: the TCP model built %d correct nodes, sync-nonrushing %d", res.Correct, sim.Correct)
	}
}

// TestTransportConformanceSuiteModels: Sweep.Models crossing the event
// loop, the goroutine Fabric and TCP is one report whose cells carry the
// model they ran, and on the order-independent population every seed agrees
// across the three on who decided what and on every per-kind message count.
func TestTransportConformanceSuiteModels(t *testing.T) {
	seeds := Seeds(3)
	population := []Option{WithAdversary(AdversaryNone), WithKnowFrac(1)}
	rep, err := RunSuite(context.Background(), Suite{
		Workers:      2,
		CheckOracles: true,
		Sweep:        Sweep{Ns: []int{16}, Seeds: seeds, Models: conformanceModels, Options: population},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Cells) != len(conformanceModels) {
		t.Fatalf("%d cells for %d models", len(rep.Cells), len(conformanceModels))
	}
	for i, m := range conformanceModels {
		cr := rep.Cells[i]
		if cr.Cell.Model != m.String() {
			t.Fatalf("cell %d is labelled %q, ran %v", i, cr.Cell.Model, m)
		}
		if cr.AgreeRuns != len(seeds) || cr.Failures != 0 || cr.OracleViolations != 0 {
			t.Fatalf("%v cell: %+v", m, cr)
		}
	}
	for _, seed := range seeds {
		var ref *AERResult
		for i, m := range conformanceModels {
			res, err := RunAER(NewConfig(16, append(population, WithSeed(seed), WithModel(m))...))
			if err != nil {
				t.Fatal(err)
			}
			rec := rep.Cells[i].Record(seed)
			if rec.Decided != res.Decided || rec.DecidedGString != res.DecidedGString || rec.TotalMessages != res.TotalMessages {
				t.Fatalf("seed %d %v: suite record %+v differs from the direct run %+v", seed, m, rec, res)
			}
			if ref == nil {
				ref = res
				continue
			}
			if res.Decided != ref.Decided || res.DecidedGString != ref.DecidedGString || res.GString != ref.GString {
				t.Fatalf("seed %d: %v decided %d/%d on %s, %v %d/%d on %s", seed, m,
					res.DecidedGString, res.Decided, res.GString, conformanceModels[0], ref.DecidedGString, ref.Decided, ref.GString)
			}
			if !reflect.DeepEqual(res.MessagesByKind, ref.MessagesByKind) {
				t.Fatalf("seed %d: %v sent %v, %v sent %v", seed, m, res.MessagesByKind, conformanceModels[0], ref.MessagesByKind)
			}
		}
	}
}

// TestTransportConformanceBAOverTCP: RunBA reaches sockets through the same
// path — the committee phase is synchronous, the AER phase runs on the
// cluster — and agrees.
func TestTransportConformanceBAOverTCP(t *testing.T) {
	res, err := RunBA(NewConfig(32, WithModel(TCP), WithSeed(3), WithCorruptFrac(0.05)))
	if err != nil {
		t.Fatal(err)
	}
	if !res.AER.Agreement || res.AER.TimedOut || res.GString == "" {
		t.Fatalf("BA over TCP: %+v", res.AER)
	}
	if res.AER.Net.Dials <= 0 {
		t.Fatalf("the AER phase did not run on sockets: %+v", res.AER.Net)
	}
}
