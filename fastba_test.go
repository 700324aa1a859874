package fastba

import (
	"strings"
	"testing"
)

func TestRunAERDefaultsAgree(t *testing.T) {
	res, err := RunAER(NewConfig(96, WithSeed(2), WithCorruptFrac(0.05), WithKnowFrac(0.92)))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Agreement {
		t.Fatalf("no agreement: %+v", res)
	}
	if res.Time > 8 {
		t.Fatalf("sync run took %d rounds", res.Time)
	}
	if res.GString == "" || res.MeanBitsPerNode <= 0 || res.TotalMessages <= 0 {
		t.Fatalf("degenerate metrics: %+v", res)
	}
	if len(res.DecisionTimes) != res.Decided {
		t.Fatalf("decision times %d vs decided %d", len(res.DecisionTimes), res.Decided)
	}
}

func TestRunAERNoFaultAlwaysSucceeds(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		res, err := RunAER(NewConfig(64, WithSeed(seed), WithAdversary(AdversaryNone), WithKnowFrac(0.9)))
		if err != nil {
			t.Fatal(err)
		}
		if !res.Agreement {
			t.Fatalf("seed %d: t = 0 run failed: %+v", seed, res)
		}
	}
}

func TestRunAERModels(t *testing.T) {
	for _, model := range []Model{SyncNonRushing, Async, AsyncAdversarial, Goroutines} {
		t.Run(model.String(), func(t *testing.T) {
			res, err := RunAER(NewConfig(64, WithSeed(3), WithModel(model),
				WithCorruptFrac(0.05), WithKnowFrac(0.92)))
			if err != nil {
				t.Fatal(err)
			}
			if !res.Agreement {
				t.Fatalf("%v: no agreement: %+v", model, res)
			}
		})
	}
}

func TestRunAERDeterministic(t *testing.T) {
	cfg := NewConfig(64, WithSeed(9), WithModel(Async), WithCorruptFrac(0.05), WithKnowFrac(0.92))
	a, err := RunAER(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunAER(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.GString != b.GString || a.MeanBitsPerNode != b.MeanBitsPerNode || a.Time != b.Time {
		t.Fatal("async run not deterministic for fixed seed")
	}
}

func TestRunAERAdversaries(t *testing.T) {
	for _, adv := range []Adversary{AdversarySilent, AdversaryFlood, AdversaryEquivocate, AdversaryCorner} {
		t.Run(adv.String(), func(t *testing.T) {
			res, err := RunAER(NewConfig(96, WithSeed(4), WithAdversary(adv),
				WithCorruptFrac(0.05), WithKnowFrac(0.92)))
			if err != nil {
				t.Fatal(err)
			}
			if res.DecidedOther > 0 {
				t.Fatalf("%v: adversary string decided by %d nodes", adv, res.DecidedOther)
			}
			if !res.Agreement {
				t.Fatalf("%v: no agreement: %+v", adv, res)
			}
		})
	}
}

func TestRunAERCornerRushingUnderSyncRushing(t *testing.T) {
	res, err := RunAER(NewConfig(128, WithSeed(11), WithModel(SyncRushing),
		WithAdversary(AdversaryCornerRushing), WithCorruptFrac(0.1), WithKnowFrac(0.9),
		WithAnswerBudget(33)))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Agreement {
		t.Fatalf("rushing corner broke agreement: %+v", res)
	}
	if res.AnswersDeferred == 0 {
		t.Fatal("rushing corner caused no deferrals")
	}
}

func TestRunBAEndToEnd(t *testing.T) {
	res, err := RunBA(NewConfig(256, WithSeed(1), WithCorruptFrac(0.05)))
	if err != nil {
		t.Fatal(err)
	}
	if res.AE.KnowFrac < 0.75 {
		t.Fatalf("AE phase below AER precondition: %v", res.AE.KnowFrac)
	}
	if !res.AER.Agreement {
		t.Fatalf("BA failed: %+v", res.AER)
	}
	if res.GString == "" || res.GString != res.AER.GString {
		t.Fatalf("gstring mismatch: %q vs %q", res.GString, res.AER.GString)
	}
	if res.TotalMeanBitsPerNode <= res.AER.MeanBitsPerNode {
		t.Fatal("total bits do not include the AE phase")
	}
	if res.TotalTime <= res.AER.Time {
		t.Fatal("total time does not include the AE phase")
	}
}

func TestRunBAWithPoisonAdversary(t *testing.T) {
	res, err := RunBA(NewConfig(256, WithSeed(2), WithAdversary(AdversaryEquivocate), WithCorruptFrac(0.05)))
	if err != nil {
		t.Fatal(err)
	}
	if res.AER.DecidedOther > 0 {
		t.Fatalf("adversary string decided: %+v", res.AER)
	}
	if !res.AER.Agreement {
		t.Fatalf("BA under equivocation failed: %+v", res.AER)
	}
}

func TestRunBaselines(t *testing.T) {
	cfg := NewConfig(96, WithSeed(3), WithCorruptFrac(0.05), WithKnowFrac(0.92))
	for _, b := range []Baseline{BaselineKLST11, BaselineFlood, BaselineRabin} {
		t.Run(b.String(), func(t *testing.T) {
			res, err := RunBaseline(cfg, b)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Agreement {
				t.Fatalf("%v failed: %+v", b, res)
			}
			if res.MeanBitsPerNode <= 0 {
				t.Fatalf("%v: degenerate metrics", b)
			}
		})
	}
}

func TestConfigValidation(t *testing.T) {
	tests := []struct {
		name string
		cfg  Config
		want string
	}{
		{"tiny n", NewConfig(4), "too small"},
		{"bad model", NewConfig(64, WithModel(Model(99))), "unknown model"},
		{"bad adversary", NewConfig(64, WithAdversary(Adversary(99))), "unknown adversary"},
		{"too corrupt", NewConfig(64, WithCorruptFrac(0.5)), "corrupt fraction"},
		{"bad quorum", NewConfig(64, WithQuorumSize(-1)), "QuorumSize"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := RunAER(tt.cfg)
			if err == nil || !strings.Contains(err.Error(), tt.want) {
				t.Fatalf("error = %v, want substring %q", err, tt.want)
			}
			if _, err := RunBA(tt.cfg); err == nil {
				t.Fatal("RunBA accepted invalid config")
			}
			if _, err := RunBaseline(tt.cfg, BaselineFlood); err == nil {
				t.Fatal("RunBaseline accepted invalid config")
			}
		})
	}
}

func TestRunBaselineUnknown(t *testing.T) {
	if _, err := RunBaseline(NewConfig(64), Baseline(42)); err == nil {
		t.Fatal("unknown baseline accepted")
	}
}

func TestStringers(t *testing.T) {
	if SyncNonRushing.String() != "sync-nonrushing" || Model(99).String() == "" {
		t.Fatal("Model.String broken")
	}
	if AdversaryFlood.String() != "flood" || Adversary(99).String() == "" {
		t.Fatal("Adversary.String broken")
	}
	if BaselineRabin.String() != "rabin" || Baseline(99).String() == "" {
		t.Fatal("Baseline.String broken")
	}
}

// TestModelTable: every Model value has a name ParseModel maps back, passes
// validation, and answers the determinism guard the fuzzer relies on; the
// values on either side of the range are rejected.
func TestModelTable(t *testing.T) {
	table := []struct {
		model         Model
		name          string
		deterministic bool
	}{
		{SyncNonRushing, "sync-nonrushing", true},
		{SyncRushing, "sync-rushing", true},
		{Async, "async", true},
		{AsyncAdversarial, "async-adversarial", true},
		{Goroutines, "goroutines", false},
		{TCP, "tcp", false},
	}
	if len(table) != len(models) {
		t.Fatalf("table covers %d models, the package declares %d", len(table), len(models))
	}
	for i, tt := range table {
		if models[i] != tt.model || tt.model.String() != tt.name {
			t.Fatalf("model %d: %v named %q, want %q", i, models[i], tt.model.String(), tt.name)
		}
		if got, err := ParseModel(tt.name); err != nil || got != tt.model {
			t.Fatalf("ParseModel(%q) = %v, %v", tt.name, got, err)
		}
		if err := NewConfig(16, WithModel(tt.model)).validate(); err != nil {
			t.Fatalf("%v rejected by validation: %v", tt.model, err)
		}
		if tt.model.deterministic() != tt.deterministic {
			t.Fatalf("%v.deterministic() = %v", tt.model, !tt.deterministic)
		}
		_, caseErr := FuzzCase{N: 16, Model: tt.name, Adversary: "none", KnowFrac: 1}.options()
		campaignErr := (&FuzzConfig{Runs: 1, Models: []Model{tt.model}}).defaults()
		if (caseErr == nil) != tt.deterministic || (campaignErr == nil) != tt.deterministic {
			t.Fatalf("%v: fuzz case error %v, campaign error %v, deterministic %v", tt.model, caseErr, campaignErr, tt.deterministic)
		}
		if asyncOnly := tt.model == Async || tt.model == AsyncAdversarial; asyncOnly !=
			(NewConfig(16, WithModel(tt.model), WithScheduler(func(int, uint64) Scheduler { return NewFIFOScheduler() })).validate() == nil) {
			t.Fatalf("%v: WithScheduler acceptance is wrong", tt.model)
		}
	}
	for _, bad := range []Model{0, TCP + 1} {
		if err := NewConfig(16, WithModel(bad)).validate(); err == nil {
			t.Fatalf("Model(%d) passed validation", int(bad))
		}
		if _, err := ParseModel(bad.String()); err == nil {
			t.Fatalf("ParseModel accepted %q", bad.String())
		}
	}
}

func TestAdversaryNoneZeroesCorruption(t *testing.T) {
	cfg := NewConfig(64, WithCorruptFrac(0.2), WithAdversary(AdversaryNone))
	if cfg.corruptFrac != 0 {
		t.Fatal("AdversaryNone did not clear corruption")
	}
}

func TestConfigAccessors(t *testing.T) {
	cfg := NewConfig(128, WithSeed(7), WithModel(Async))
	if cfg.N() != 128 || cfg.Seed() != 7 || cfg.Model() != Async {
		t.Fatal("accessors broken")
	}
}
