package fastba

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestOracleCatchesBrokenQuorum is the oracle subsystem's acceptance
// proof: a deliberately broken quorum threshold (deciding on the first
// poll answer instead of the strict majority of Algorithm 1) must be
// caught — the split decisions by the agreement oracle and the
// certificate-less decisions by the certificate oracle. knowFrac 0.60
// lets the shared junk belief assemble push-quorum majorities, so the
// mutation deterministically splits the system on this seed.
func TestOracleCatchesBrokenQuorum(t *testing.T) {
	cfg := NewConfig(32,
		WithSeed(1),
		WithKnowFrac(0.60),
		WithAdversary(AdversaryNone),
		WithDecideThreshold(1),
	)
	res, err := RunAER(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.DistinctDecisions < 2 {
		t.Fatalf("mutation did not split the system: %d distinct decisions", res.DistinctDecisions)
	}
	rep := CheckInvariants(cfg, res)
	caught := map[string]bool{}
	for _, v := range rep.Violations {
		caught[v.Oracle] = true
	}
	if !caught[OracleAgreement] {
		t.Errorf("agreement oracle missed the broken quorum threshold: %s", rep)
	}
	if !caught[OracleCertificates] {
		t.Errorf("certificate oracle missed the broken quorum threshold: %s", rep)
	}

	// The same configuration without the mutation must keep every safety
	// oracle quiet: the findings above react to the broken threshold, not
	// to the hostile population shape. (Termination is exempt — at this
	// knowFrac and n, a clean run can legitimately leave stragglers, the
	// w.h.p. nature of Lemmas 9/10.)
	clean := NewConfig(32, WithSeed(1), WithKnowFrac(0.60), WithAdversary(AdversaryNone))
	cleanRes, err := RunAER(clean)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range CheckInvariants(clean, cleanRes).Violations {
		if v.Oracle != OracleTermination {
			t.Errorf("unmutated run violates safety oracle: %s", v)
		}
	}
}

// TestOracleSingleDecisionLostStream: every runtime streams one decision
// event per decider, so an attached observer that saw none while the end
// state records deciders has lost them — a single-decision finding, not a
// transport that "does not emit decisions".
func TestOracleSingleDecisionLostStream(t *testing.T) {
	cfg := NewConfig(16, WithSeed(1), WithAdversary(AdversaryNone), WithKnowFrac(1))
	res, err := RunAER(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Decided == 0 {
		t.Fatal("reference run decided nowhere")
	}
	o := NewOracles(cfg)
	o.Observer() // attached, fed nothing
	rep := o.Report(res)
	found := false
	for _, v := range rep.Violations {
		found = found || v.Oracle == OracleSingleDecision
	}
	if !found {
		t.Fatalf("a stream with 0 decision events against %d deciders passed single-decision: %s", res.Decided, rep)
	}
}

// TestOracleSingleDecisionEveryModel: under each of the six models a run
// streams exactly one EventDecision per decider, and the single-decision
// oracle — attached, checked, no carve-out — is clean.
func TestOracleSingleDecisionEveryModel(t *testing.T) {
	for _, m := range models {
		m := m
		t.Run(m.String(), func(t *testing.T) {
			base := NewConfig(24, WithSeed(4), WithModel(m), WithCorruptFrac(0.05), WithKnowFrac(0.92))
			o := NewOracles(base)
			check := o.Observer()
			events := map[NodeID]int{}
			cfg := base
			WithObserver(func(ev Event) {
				if ev.Type == EventDecision {
					events[ev.To]++
				}
				check(ev)
			}).apply(&cfg)
			res, err := RunAER(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.TimedOut || res.Decided == 0 {
				t.Fatalf("degenerate run: %+v", res)
			}
			if len(events) != res.Decided {
				t.Fatalf("%d nodes streamed a decision, the end state records %d deciders", len(events), res.Decided)
			}
			for id, k := range events {
				if k != 1 {
					t.Fatalf("node %d streamed %d decision events", id, k)
				}
			}
			rep := o.Report(res)
			checked := false
			for _, name := range rep.Checked {
				checked = checked || name == OracleSingleDecision
			}
			if !checked || !rep.OK() {
				t.Fatalf("single-decision checked=%v, report: %s", checked, rep)
			}
		})
	}
}

// TestFuzzDigestDeterministic locks the reproducibility contract: a fixed
// campaign seed yields byte-identical run digests across two invocations,
// case by case.
func TestFuzzDigestDeterministic(t *testing.T) {
	campaign := func() []string {
		var digests []string
		res, err := SimFuzz(context.Background(), FuzzConfig{
			Seed: 7,
			Runs: 6,
			Ns:   []int{16, 24},
			OnRun: func(r FuzzRun) {
				digests = append(digests, r.Digest)
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Executed != 6 {
			t.Fatalf("executed %d of 6 cases", res.Executed)
		}
		return digests
	}
	first, second := campaign(), campaign()
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("digests diverge across invocations:\n%v\nvs\n%v", first, second)
	}
	for i, d := range first {
		if len(d) != 64 {
			t.Fatalf("digest %d malformed: %q", i, d)
		}
	}
}

// fuzzFixtures are the hand-built cases the shrink tests and the stream
// golden share, one per case family. Every call returns fresh memory, so
// a test that mutates candidates cannot leak into another test.
func fuzzFixtures() map[string]FuzzCase {
	return map[string]FuzzCase{
		"every-fault": {
			N: 24, Seed: 42, Model: "async", Adversary: "equivocate",
			CorruptFrac: 0.1, KnowFrac: 0.85,
			Plan: FaultPlan{
				Seed: 9, DropProb: 0.1, DupProb: 0.1, DelayProb: 0.3, MaxDelay: 3,
				Partitions: []Partition{{A: []NodeID{1, 2}, From: 2, Until: 5}},
				Crashes:    []Crash{{Node: 3, At: 1, RecoverAt: 4}},
			},
		},
		"plan": {
			N: 16, Seed: 1, Model: "async", Adversary: "flood", CorruptFrac: 0.1, KnowFrac: 0.85,
			Plan: FaultPlan{
				Seed: 2, DropProb: 0.2, DupProb: 0.1, DelayProb: 0.3, MaxDelay: 4,
				Partitions: []Partition{{A: []NodeID{0}, From: 1}, {A: []NodeID{1}, From: 2}},
				Crashes:    []Crash{{Node: 1, At: 1}, {Node: 2, At: 2}},
			},
		},
		"log": {
			N: 16, Seed: 1, CorruptFrac: 0.1, KnowFrac: 1,
			Plan: FaultPlan{Seed: 2, DupProb: 0.2},
			Log:  &LogFuzz{Entries: 4, Depth: 4, Batch: 2, PayloadBytes: 16},
		},
		"scenario": {
			N: 24, Seed: 1, Model: "async", Adversary: AdversaryAdaptiveDegree,
			CorruptFrac: 0.1, KnowFrac: 1,
			Plan: FaultPlan{Seed: 2},
			Scenario: &Scenario{
				Topology: TopologyWS, Degree: 6, Rewire: 0.3, ZipfS: 1.0,
				Latency: LatencyLongTail, TailProb: 0.1, TailDelay: 4, Loss: 0.02, Seed: 5,
			},
		},
		// The one fixture with a swept, kind-restricted chaos plan: no
		// campaign samples Sweep or Kinds.
		"chaos-sweep": {
			N: 8, Seed: 3, CorruptFrac: 0.1, KnowFrac: 1,
			Plan:  FaultPlan{Seed: 4, DupProb: 0.1},
			Log:   &LogFuzz{Entries: 4, Depth: 2, Batch: 2, PayloadBytes: 16},
			Chaos: &ChaosFuzz{Seed: 5, Strikes: 6, Kinds: []string{"blackhole", "close"}, Sweep: true},
		},
	}
}

// TestFuzzSampleStreamGolden pins the fuzzer's PRNG streams and its shrink
// candidates without executing a case: the SHA-256 of the canonical JSON
// of the first 2 000 sampled cases (and of their shrink candidates) under
// five campaigns, and of shrinkCandidates for every corpus case and every
// fixture. A refactor of the samplers or the shrinker must leave every
// digest unchanged.
//
// Regenerate (only after an intentional stream change) with:
//
//	go test -run TestFuzzSampleStreamGolden -update .
func TestFuzzSampleStreamGolden(t *testing.T) {
	digest := func(write func(enc *json.Encoder)) string {
		h := sha256.New()
		write(json.NewEncoder(h))
		return hex.EncodeToString(h.Sum(nil))
	}
	encode := func(enc *json.Encoder, v any) {
		if err := enc.Encode(v); err != nil {
			t.Fatal(err)
		}
	}
	got := map[string]string{}
	for _, cp := range []struct {
		name string
		fc   FuzzConfig
	}{
		{"default", FuzzConfig{}},
		{"logfrac-0.25", FuzzConfig{LogFrac: 0.25}},
		{"log-restart", FuzzConfig{LogFrac: 1, RestartFrac: 1}},
		{"log-chaos", FuzzConfig{LogFrac: 1, ChaosFrac: 1}},
		{"scenariofrac-0.5", FuzzConfig{ScenarioFrac: 0.5}},
	} {
		fc := cp.fc
		fc.Seed, fc.Runs = 1, 2000
		if err := fc.defaults(); err != nil {
			t.Fatal(err)
		}
		cases := make([]FuzzCase, fc.Runs)
		for i := range cases {
			cases[i] = sampleCase(fc, i)
		}
		got["campaign/"+cp.name+"/cases"] = digest(func(enc *json.Encoder) {
			for _, c := range cases {
				encode(enc, c)
			}
		})
		got["campaign/"+cp.name+"/shrink"] = digest(func(enc *json.Encoder) {
			for _, c := range cases {
				encode(enc, shrinkCandidates(c))
			}
		})
	}
	paths, err := filepath.Glob(filepath.Join("testdata", "fuzz_corpus", "*.json"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("corpus: %d files, %v", len(paths), err)
	}
	for _, path := range paths {
		c, err := LoadFuzzCase(path)
		if err != nil {
			t.Fatal(err)
		}
		got["corpus/"+filepath.Base(path)] = digest(func(enc *json.Encoder) { encode(enc, shrinkCandidates(c)) })
	}
	for name, c := range fuzzFixtures() {
		got["fixture/"+name] = digest(func(enc *json.Encoder) { encode(enc, shrinkCandidates(c)) })
	}
	data, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, '\n')
	path := filepath.Join("testdata", "fuzz_stream_golden.json")
	if *updateGolden {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	var want map[string]string
	raw, err := os.ReadFile(path)
	if err == nil {
		err = json.Unmarshal(raw, &want)
	}
	if err != nil {
		t.Fatal(err)
	}
	for key, w := range want {
		if got[key] != w {
			t.Errorf("%s: digest %s, golden %s", key, got[key], w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("%d digests computed, golden holds %d (run with -update after an intentional change)", len(got), len(want))
	}
}

// TestReplayCaseDeterministic: the single-case form of the same contract,
// for a case with every fault dimension active.
func TestReplayCaseDeterministic(t *testing.T) {
	c := fuzzFixtures()["every-fault"]
	a, err := ReplayCase(c)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ReplayCase(c)
	if err != nil {
		t.Fatal(err)
	}
	if a.Digest != b.Digest {
		t.Fatalf("digests diverge: %s vs %s", a.Digest, b.Digest)
	}
}

// TestFuzzLogCaseDeterministic: a pipelined-log case with lossless faults
// replays to a byte-identical digest — the committed (seq, value)
// sequence is a pure function of the case even on the concurrent fabric.
func TestFuzzLogCaseDeterministic(t *testing.T) {
	c := FuzzCase{
		N: 16, Seed: 33, CorruptFrac: 0.1, KnowFrac: 1,
		Plan: FaultPlan{Seed: 5, DupProb: 0.2, DelayProb: 0.3, MaxDelay: 2},
		Log:  &LogFuzz{Entries: 3, Depth: 4, Batch: 2, PayloadBytes: 16},
	}
	a, err := ReplayCase(c)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ReplayCase(c)
	if err != nil {
		t.Fatal(err)
	}
	if a.Digest != b.Digest {
		t.Fatalf("log digests diverge: %s vs %s", a.Digest, b.Digest)
	}
	if !a.Report.OK() {
		t.Fatalf("log case violates: %s", a.Report)
	}
	found := false
	for _, name := range a.Report.Checked {
		if name == OracleTermination {
			found = true
		}
	}
	if !found {
		t.Fatalf("lossless log case skipped termination: %+v", a.Report)
	}
}

// TestFuzzLogCampaign: a log-only campaign samples, executes and passes
// the pipelined-log family.
func TestFuzzLogCampaign(t *testing.T) {
	logCases := 0
	res, err := SimFuzz(context.Background(), FuzzConfig{
		Seed:    13,
		Runs:    5,
		Ns:      []int{16},
		LogFrac: 1,
		OnRun: func(r FuzzRun) {
			if r.Case.Log != nil {
				logCases++
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Executed != 5 || logCases != 5 {
		t.Fatalf("executed %d cases, %d from the log family; want 5/5", res.Executed, logCases)
	}
	for _, f := range res.Failures {
		t.Errorf("log campaign failure: %s: %v", f.Case, f.Violations)
	}
}

// TestFuzzLogShrinkCandidates: log cases shrink along log dimensions
// without aliasing the parent's Log.
func TestFuzzLogShrinkCandidates(t *testing.T) {
	c := fuzzFixtures()["log"]
	cands := shrinkCandidates(c)
	if len(cands) == 0 {
		t.Fatal("no candidates for a shrinkable log case")
	}
	sawEntries, sawDepth := false, false
	for _, cand := range cands {
		if cand.Log == nil {
			t.Fatal("candidate lost its log shape")
		}
		if cand.Log == c.Log && (cand.Log.Entries != c.Log.Entries || cand.Log.Depth != c.Log.Depth || cand.Log.Batch != c.Log.Batch) {
			t.Fatal("candidate aliases the parent's Log")
		}
		if cand.Log.Entries < c.Log.Entries {
			sawEntries = true
		}
		if cand.Log.Depth == 1 && c.Log.Depth > 1 {
			sawDepth = true
		}
	}
	if !sawEntries || !sawDepth {
		t.Fatalf("missing log shrink dimensions (entries=%t depth=%t)", sawEntries, sawDepth)
	}
	// Mutating a candidate's Log must not touch the parent.
	cands[0].Log.Entries = 99
	if c.Log.Entries == 99 {
		t.Fatal("candidate Log aliases the parent")
	}
}

// TestFuzzScenarioCampaign: a scenario-only campaign samples, executes and
// passes the hostile-internet family — topologies, latency models, gossip
// relay and (occasionally) adaptive adversaries.
func TestFuzzScenarioCampaign(t *testing.T) {
	scenCases := 0
	res, err := SimFuzz(context.Background(), FuzzConfig{
		Seed:         21,
		Runs:         5,
		Ns:           []int{16, 24},
		ScenarioFrac: 1,
		OnRun: func(r FuzzRun) {
			if r.Case.Scenario != nil {
				scenCases++
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Executed != 5 || scenCases != 5 {
		t.Fatalf("executed %d cases, %d from the scenario family; want 5/5", res.Executed, scenCases)
	}
	for _, f := range res.Failures {
		t.Errorf("scenario campaign failure: %s: %v", f.Case, f.Violations)
	}
}

// TestFuzzScenarioShrinkCandidates: scenario cases shrink along topology
// and adversary dimensions without aliasing the parent's Scenario, and
// dropping the scenario also drops an adaptive adversary (which cannot run
// without one).
func TestFuzzScenarioShrinkCandidates(t *testing.T) {
	c := fuzzFixtures()["scenario"]
	cands := shrinkCandidates(c)
	if len(cands) == 0 {
		t.Fatal("no candidates for a shrinkable scenario case")
	}
	sawDrop, sawFull, sawNoLoss, sawNoLatency := false, false, false, false
	for _, cand := range cands {
		if cand.Scenario == nil {
			if adaptiveKind(cand.Adversary) != "" {
				t.Fatalf("dropping the scenario kept adaptive adversary %q", cand.Adversary)
			}
			sawDrop = true
			continue
		}
		if cand.Scenario == c.Scenario && *cand.Scenario != *c.Scenario {
			t.Fatal("candidate aliases the parent's Scenario")
		}
		if cand.Scenario.Topology == TopologyFull {
			sawFull = true
		}
		if cand.Scenario.Loss == 0 && cand.Scenario.Topology == c.Scenario.Topology {
			sawNoLoss = true
		}
		if cand.Scenario.Latency == "" {
			sawNoLatency = true
		}
	}
	if !sawDrop || !sawFull || !sawNoLoss || !sawNoLatency {
		t.Fatalf("missing scenario shrink dimensions (drop=%t full=%t noLoss=%t noLatency=%t)",
			sawDrop, sawFull, sawNoLoss, sawNoLatency)
	}
	// Mutating a candidate's Scenario must not touch the parent.
	for _, cand := range cands {
		if cand.Scenario != nil {
			cand.Scenario.Degree = 99
			break
		}
	}
	if c.Scenario.Degree == 99 {
		t.Fatal("candidate Scenario aliases the parent")
	}
}

// TestFuzzCorpusReplay: every committed corpus case must pass its oracles
// — the corpus is the fuzzer's regression suite.
func TestFuzzCorpusReplay(t *testing.T) {
	runs, failures, err := ReplayCorpus(filepath.Join("testdata", "fuzz_corpus"))
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) == 0 {
		t.Fatal("corpus is empty")
	}
	for _, f := range failures {
		t.Errorf("corpus case %s now violates: %v", f.Case, f.Violations)
	}
}

// TestFuzzFailurePersistRoundTrip: a persisted failure loads back as its
// shrunk reproducer case.
func TestFuzzFailurePersistRoundTrip(t *testing.T) {
	dir := t.TempDir()
	failure := FuzzFailure{
		Case: FuzzCase{N: 16, Seed: 3, Model: "async", Adversary: "silent",
			CorruptFrac: 0.1, KnowFrac: 0.85, Plan: FaultPlan{Seed: 4, DropProb: 0.2}},
		Original:   FuzzCase{N: 16, Seed: 3, Model: "async", Adversary: "flood"},
		Violations: []Violation{{Oracle: OracleAgreement, Detail: "synthetic"}},
		Digest:     "0123456789abcdef0123456789abcdef",
	}
	path, err := persistFailure(dir, failure)
	if err != nil {
		t.Fatal(err)
	}
	got, err := LoadFuzzCase(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, failure.Case) {
		t.Fatalf("round trip mangled the case: %+v vs %+v", got, failure.Case)
	}
	// A bare FuzzCase file loads too (the handwritten corpus format).
	bare := filepath.Join(dir, "bare.json")
	if err := os.WriteFile(bare, []byte(`{"n":16,"seed":5,"model":"async","adversary":"silent","corruptFrac":0.1,"knowFrac":1,"plan":{}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if got, err := LoadFuzzCase(bare); err != nil || got.Seed != 5 {
		t.Fatalf("bare case load: %+v, %v", got, err)
	}
}

// TestShrinkCandidates: candidates are strictly simpler and never alias
// the parent's plan slices.
func TestShrinkCandidates(t *testing.T) {
	c := fuzzFixtures()["plan"]
	cands := shrinkCandidates(c)
	if len(cands) == 0 {
		t.Fatal("no candidates for a maximally faulty case")
	}
	for i, cand := range cands {
		if reflect.DeepEqual(cand, c) {
			t.Errorf("candidate %d did not simplify anything", i)
		}
	}
	// Mutating a candidate's partitions must not touch the parent.
	for _, cand := range cands {
		if len(cand.Plan.Partitions) == len(c.Plan.Partitions) && len(cand.Plan.Partitions) > 0 {
			cand.Plan.Partitions[0].From = 99
			if c.Plan.Partitions[0].From == 99 {
				t.Fatal("candidate aliases the parent plan")
			}
			break
		}
	}
}

// TestShrinkCandidatesShareNoMemory: a clone, and every shrink candidate,
// can be overwritten through every slice and pointer it holds without the
// parent changing — for each fixture, one with per-link faults, and the
// sampled cases of every family.
func TestShrinkCandidatesShareNoMemory(t *testing.T) {
	poison := func(v *FuzzCase) {
		for i := range v.Plan.Partitions {
			v.Plan.Partitions[i].From = -1
			for j := range v.Plan.Partitions[i].A {
				v.Plan.Partitions[i].A[j] = -1
			}
		}
		for i := range v.Plan.Crashes {
			v.Plan.Crashes[i].At = -1
		}
		for i := range v.Plan.Links {
			v.Plan.Links[i].Delay = -1
		}
		if v.Scenario != nil {
			v.Scenario.Degree = -1
		}
		if v.Log != nil {
			v.Log.Entries = -1
		}
		if v.Chaos != nil {
			v.Chaos.Strikes = -1
			for i := range v.Chaos.Kinds {
				v.Chaos.Kinds[i] = "poison"
			}
		}
	}
	var cases []FuzzCase
	for _, c := range fuzzFixtures() {
		cases = append(cases, c)
	}
	links := fuzzFixtures()["plan"]
	links.Plan.Links = []LinkFault{{From: 0, To: 1, Delay: 2}, {From: 1, To: 0, Loss: 0.1}}
	cases = append(cases, links)
	fc := FuzzConfig{Seed: 1, Runs: 1, LogFrac: 0.3, RestartFrac: 0.5, ChaosFrac: 0.5, ScenarioFrac: 0.5}
	if err := fc.defaults(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		cases = append(cases, sampleCase(fc, i))
	}
	for _, c := range cases {
		before, err := json.Marshal(c)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range append(shrinkCandidates(c), c.clone()) {
			poison(&v)
			if after, _ := json.Marshal(c); string(after) != string(before) {
				t.Fatalf("candidate %d of %s shares memory with its parent:\n%s\nbecame\n%s", i, c, before, after)
			}
		}
	}
}

// TestReplayCaseRejectsSingleShotFieldsOnLogCases: a log case runs none of
// Scenario, Model and Adversary, so a case that sets one is rejected rather
// than replayed without it.
func TestReplayCaseRejectsSingleShotFieldsOnLogCases(t *testing.T) {
	for name, set := range map[string]func(*FuzzCase){
		"scenario":  func(c *FuzzCase) { c.Scenario = &Scenario{Topology: TopologyRing} },
		"model":     func(c *FuzzCase) { c.Model = "async" },
		"adversary": func(c *FuzzCase) { c.Adversary = "flood" },
	} {
		c := FuzzCase{N: 8, Seed: 1, KnowFrac: 1, Log: &LogFuzz{Entries: 1, Depth: 1, Batch: 1, PayloadBytes: 8}}
		set(&c)
		if _, err := ReplayCase(c); err == nil {
			t.Errorf("log case setting %s replayed", name)
		}
	}
}

// TestFuzzConfigRejectsFractions: every family fraction must lie in [0, 1].
func TestFuzzConfigRejectsFractions(t *testing.T) {
	for _, bad := range []FuzzConfig{
		{Runs: 1, LogFrac: -0.1},
		{Runs: 1, RestartFrac: 1.5},
		{Runs: 1, ChaosFrac: 2},
		{Runs: 1, ScenarioFrac: math.NaN()},
	} {
		if err := bad.defaults(); err == nil {
			t.Errorf("campaign %+v accepted", bad)
		}
	}
}

// TestSweepFaultAxis: fault plans are a first-class sweep dimension —
// cells are labeled per plan, records carry oracle verdicts, and a
// lossless plan keeps full agreement.
func TestSweepFaultAxis(t *testing.T) {
	rep, err := RunSuite(context.Background(), Suite{
		Name: "faults",
		Sweep: Sweep{
			Ns:    []int{16},
			Seeds: Seeds(2),
			Faults: []FaultPlan{
				{},
				{Seed: 3, DupProb: 0.2, DelayProb: 0.3, MaxDelay: 2},
				{Seed: 4, DropProb: 0.15},
			},
		},
		Workers:      1,
		CheckOracles: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Cells) != 3 {
		t.Fatalf("want 3 fault cells, got %d", len(rep.Cells))
	}
	wantLabels := []string{"none", "dup0.2+delay0.3×2#3", "drop0.15#4"}
	for i, cr := range rep.Cells {
		if cr.Cell.Fault != wantLabels[i] {
			t.Errorf("cell %d fault label = %q, want %q", i, cr.Cell.Fault, wantLabels[i])
		}
		if cr.OracleViolations != 0 {
			t.Errorf("cell %q has %d oracle violations: %+v", cr.Cell.Fault, cr.OracleViolations, cr.Records)
		}
	}
	// The lossless cells must reach full agreement; the lossy one may
	// legitimately lose liveness but its safety verdicts were checked
	// above.
	for _, cr := range rep.Cells[:2] {
		if cr.AgreementRate != 1 {
			t.Errorf("lossless cell %q agreement rate %.2f", cr.Cell.Fault, cr.AgreementRate)
		}
	}
}

// TestFaultPlanValidationAtConfig: invalid plans are rejected at the same
// place every other configuration error is.
func TestFaultPlanValidationAtConfig(t *testing.T) {
	for _, plan := range []FaultPlan{
		{DropProb: 1.5},
		{Partitions: []Partition{{A: []NodeID{99}}}},
		{Crashes: []Crash{{Node: 0, At: 5, RecoverAt: 2}}},
	} {
		if _, err := RunAER(NewConfig(16, WithFaults(plan))); err == nil {
			t.Errorf("plan %+v accepted", plan)
		}
	}
}
