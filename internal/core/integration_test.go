package core

import (
	"testing"

	"github.com/fastba/fastba/internal/simnet"
)

// runSync executes a full synchronous AER run and returns outcome+metrics.
func runSync(t *testing.T, n int, seed uint64, cfg ScenarioConfig, maxRounds int) (Outcome, *simnet.Metrics) {
	t.Helper()
	sc, err := NewScenario(DefaultParams(n), seed, cfg)
	if err != nil {
		t.Fatal(err)
	}
	nodes, correct := sc.Build(nil)
	m := simnet.NewSync(nodes, sc.Corrupt).Run(maxRounds)
	return Evaluate(correct, sc.GString), m
}

func TestAERSyncNoFault(t *testing.T) {
	// §1: "unlike many randomized protocols, success is guaranteed when
	// there is no Byzantine fault". Several seeds, all must succeed.
	cfg := ScenarioConfig{CorruptFrac: 0, KnowFrac: 0.8, SharedJunk: true, AdvBits: 1.0 / 3}
	for seed := uint64(1); seed <= 3; seed++ {
		o, m := runSync(t, 96, seed, cfg, 50)
		if !o.Agreement() {
			t.Fatalf("seed %d: no agreement: %+v", seed, o)
		}
		if m.Rounds > 8 {
			t.Fatalf("seed %d: took %d rounds, want O(1)", seed, m.Rounds)
		}
	}
}

func TestAERSyncWithByzantineSilent(t *testing.T) {
	o, m := runSync(t, 128, 7, TestingScenarioConfig(), 50)
	if !o.Agreement() {
		t.Fatalf("no agreement with silent Byzantine minority: %+v", o)
	}
	if m.Rounds > 8 {
		t.Fatalf("constant-round bound violated: %d rounds", m.Rounds)
	}
}

func TestAERSyncCandidateListsLinear(t *testing.T) {
	// Lemma 4: Σ|L_x| = O(n). With one global string and one shared junk
	// string the sum should be barely above the number of correct nodes.
	o, _ := runSync(t, 128, 7, TestingScenarioConfig(), 50)
	if o.SumCandidates > 3*o.Correct {
		t.Fatalf("Σ|L_x| = %d for %d correct nodes; exceeds O(n) envelope", o.SumCandidates, o.Correct)
	}
}

func TestAERAsyncRandomScheduler(t *testing.T) {
	sc, err := NewScenario(DefaultParams(96), 11, TestingScenarioConfig())
	if err != nil {
		t.Fatal(err)
	}
	nodes, correct := sc.Build(nil)
	m := simnet.NewAsync(nodes, simnet.NewRandom(5)).Run()
	o := Evaluate(correct, sc.GString)
	if !o.Agreement() {
		t.Fatalf("async: no agreement: %+v", o)
	}
	if m.Rounds > 10 {
		t.Fatalf("async causal depth %d unexpectedly large", m.Rounds)
	}
}

func TestAERAsyncFIFO(t *testing.T) {
	sc, err := NewScenario(DefaultParams(96), 13, TestingScenarioConfig())
	if err != nil {
		t.Fatal(err)
	}
	nodes, correct := sc.Build(nil)
	simnet.NewAsync(nodes, simnet.NewFIFO()).Run()
	if o := Evaluate(correct, sc.GString); !o.Agreement() {
		t.Fatalf("FIFO async: no agreement: %+v", o)
	}
}

func TestAERGoRunner(t *testing.T) {
	sc, err := NewScenario(DefaultParams(64), 17, TestingScenarioConfig())
	if err != nil {
		t.Fatal(err)
	}
	nodes, correct := sc.Build(nil)
	simnet.NewFabric(nodes, simnet.CausalClock, true).Run()
	if o := Evaluate(correct, sc.GString); !o.Agreement() {
		t.Fatalf("goroutine runner: no agreement: %+v", o)
	}
}

func TestAERDeterministicAcrossRuns(t *testing.T) {
	run := func() (Outcome, int64) {
		sc, err := NewScenario(DefaultParams(64), 19, DefaultScenarioConfig())
		if err != nil {
			t.Fatal(err)
		}
		nodes, correct := sc.Build(nil)
		m := simnet.NewSync(nodes, sc.Corrupt).Run(50)
		return Evaluate(correct, sc.GString), m.TotalSentBits()
	}
	o1, b1 := run()
	o2, b2 := run()
	if o1 != o2 || b1 != b2 {
		t.Fatalf("non-deterministic execution: %+v/%d vs %+v/%d", o1, b1, o2, b2)
	}
}

// runSyncTuplePriced executes a full synchronous AER run and returns the
// mean bits per node as sent, and as they would be with every Fw1 tuple
// (x, w) sent as a message of its own — the paper's Fw1 — each charged the
// simnet meter's 9-byte envelope.
func runSyncTuplePriced(t *testing.T, n int, seed uint64, cfg ScenarioConfig) (sent, priced float64) {
	t.Helper()
	sc, err := NewScenario(DefaultParams(n), seed, cfg)
	if err != nil {
		t.Fatal(err)
	}
	nodes, correct := sc.Build(nil)
	r := simnet.NewSync(nodes, sc.Corrupt)
	// The paper's Fw1 names one w beside x; fw1Bytes is what the Fw1
	// messages sent cost, each with its envelope.
	var single, fw1Bytes int64
	r.Observe(func(e simnet.Envelope) {
		if m, ok := e.Msg.(MsgFw1); ok {
			single = int64(m.WireSize() + idBytes + 9)
			fw1Bytes += int64(m.WireSize() + 9)
		}
	})
	m := r.Run(50)
	surcharge := fw1Tuples(correct)*single - fw1Bytes // bytes the tuples would add as standalone messages
	return m.MeanSentBits(), m.MeanSentBits() + float64(8*surcharge)/float64(n)
}

// fw1Tuples sums the Fw1 tuples the nodes' fan-outs stand for (Stats.Fw1Tuples).
func fw1Tuples(nodes []*Node) int64 {
	var sum int64
	for _, nd := range nodes {
		if nd != nil {
			sum += int64(nd.Stats().Fw1Tuples)
		}
	}
	return sum
}

func TestAERCommunicationPolylog(t *testing.T) {
	// Lemma 3 + Figure 1(a): mean per-node bits must grow polylog, i.e.
	// far slower than linearly. Quadrupling n should grow mean bits by far
	// less than 4x. The envelope is stated for the paper's messages, one
	// (x, w) per Fw1: naming the request once per recipient saves less as n
	// outgrows d² (about d·min(n, d²) Fw1 messages per node), so the bits
	// actually sent are checked against that pricing, not for growth.
	if testing.Short() {
		t.Skip("scaling test")
	}
	cfg := DefaultScenarioConfig()
	sent64, priced64 := runSyncTuplePriced(t, 64, 3, cfg)
	sent256, priced256 := runSyncTuplePriced(t, 256, 3, cfg)
	if sent64 > priced64 || sent256 > priced256 {
		t.Fatalf("aggregated Fw1 sent more bits than one message per tuple: %.0f > %.0f at n=64, %.0f > %.0f at n=256",
			sent64, priced64, sent256, priced256)
	}
	if ratio := priced256 / priced64; ratio > 3 {
		t.Fatalf("mean bits grew %.2fx for 4x nodes; not polylog", ratio)
	}
}

func TestScenarioPreconditionEnforced(t *testing.T) {
	_, err := NewScenario(DefaultParams(64), 1, ScenarioConfig{
		CorruptFrac: 0.4, KnowFrac: 0.5, SharedJunk: true, AdvBits: 1.0 / 3,
	})
	if err == nil {
		t.Fatal("scenario with minority knowledge was accepted")
	}
}

func TestScenarioConfigValidation(t *testing.T) {
	p := DefaultParams(64)
	if _, err := NewScenario(p, 1, ScenarioConfig{CorruptFrac: -0.1, KnowFrac: 0.9}); err == nil {
		t.Fatal("negative CorruptFrac accepted")
	}
	if _, err := NewScenario(p, 1, ScenarioConfig{CorruptFrac: 0.1, KnowFrac: 1.5}); err == nil {
		t.Fatal("KnowFrac > 1 accepted")
	}
	bad := p
	bad.N = 0
	if _, err := NewScenario(bad, 1, DefaultScenarioConfig()); err == nil {
		t.Fatal("invalid params accepted")
	}
}

func TestScenarioDeterminism(t *testing.T) {
	a, err := NewScenario(DefaultParams(64), 5, DefaultScenarioConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewScenario(DefaultParams(64), 5, DefaultScenarioConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !a.GString.Equal(b.GString) {
		t.Fatal("gstring differs across identical scenarios")
	}
	for i := range a.Corrupt {
		if a.Corrupt[i] != b.Corrupt[i] {
			t.Fatal("corruption pattern differs")
		}
		if !a.Initial[i].Equal(b.Initial[i]) {
			t.Fatal("initial beliefs differ")
		}
	}
}

func TestEvaluateCountsNonDeciders(t *testing.T) {
	sc, err := NewScenario(DefaultParams(64), 23, DefaultScenarioConfig())
	if err != nil {
		t.Fatal(err)
	}
	_, correct := sc.Build(nil)
	// No run executed: nobody has decided.
	o := Evaluate(correct, sc.GString)
	if o.Decided != 0 || o.Agreement() {
		t.Fatalf("unexpected outcome on unrun scenario: %+v", o)
	}
	if o.Correct == 0 || o.Correct > 64 {
		t.Fatalf("implausible correct count %d", o.Correct)
	}
}

func TestDeferredRelayRescuesTightPopulation(t *testing.T) {
	// Scenario seed 11 at n=96 under the default (tight) population leaves
	// one node without an H(g, x) forwarding majority — precisely the
	// statistical tail the DeferredRelay extension closes: junk holders
	// replay the declined pull after they decide.
	p := DefaultParams(96)
	run := func(deferredRelay bool) Outcome {
		p.DeferredRelay = deferredRelay
		sc, err := NewScenario(p, 11, DefaultScenarioConfig())
		if err != nil {
			t.Fatal(err)
		}
		nodes, correct := sc.Build(nil)
		simnet.NewAsync(nodes, simnet.NewRandom(5)).Run()
		return Evaluate(correct, sc.GString)
	}
	plain := run(false)
	if plain.Agreement() {
		t.Skip("population tail not hit at this seed; rescue not observable")
	}
	rescued := run(true)
	if !rescued.Agreement() {
		t.Fatalf("DeferredRelay did not rescue the run: %+v", rescued)
	}
}
