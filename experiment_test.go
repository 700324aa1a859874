package fastba

import (
	"bytes"
	"context"
	"math"
	"strings"
	"sync/atomic"
	"testing"
)

func TestSeedsHelper(t *testing.T) {
	s := Seeds(3)
	if len(s) != 3 || s[0] != 1 || s[2] != 3 {
		t.Fatalf("Seeds(3) = %v", s)
	}
	if len(Seeds(0)) != 0 {
		t.Fatal("Seeds(0) not empty")
	}
}

func TestSweepExpansion(t *testing.T) {
	sw := Sweep{
		Ns:          []int{64, 128},
		Seeds:       []uint64{1, 2, 3},
		Models:      []Model{SyncNonRushing, Async},
		Adversaries: []string{"silent", "flood"},
		Variants: []Variant{
			{Name: "plain"},
			{Name: "relay", Options: []Option{WithDeferredRelay()}},
		},
		Options: []Option{WithCorruptFrac(0.05), WithKnowFrac(0.92)},
	}
	runs, err := sw.expand()
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * 3 * 2 * 2 * 2; len(runs) != want {
		t.Fatalf("expanded %d runs, want %d", len(runs), want)
	}
	// Axis nesting: n outermost, seeds innermost.
	first := runs[0]
	if first.cell.N != 64 || first.cell.Model != "sync-nonrushing" ||
		first.cell.Adversary != "silent" || first.cell.Variant != "plain" || first.seed != 1 {
		t.Fatalf("unexpected first run: %+v", first.cell)
	}
	if runs[1].seed != 2 || runs[1].cell != first.cell {
		t.Fatalf("seeds must vary within a cell: %+v", runs[1])
	}
	// Cells resolve to the values the runs actually use.
	if first.cell.CorruptFrac != 0.05 || first.cell.KnowFrac != 0.92 {
		t.Fatalf("cell did not pick up base options: %+v", first.cell)
	}
	if first.cfg.Seed() != 1 || runs[2].cfg.Seed() != 3 {
		t.Fatal("config seeds not threaded through")
	}
}

func TestSweepExpansionDefaultsAndErrors(t *testing.T) {
	runs, err := Sweep{Ns: []int{64}}.expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 || runs[0].seed != 1 {
		t.Fatalf("empty axes must degenerate to one default run: %+v", runs)
	}
	if runs[0].cell.Adversary != "silent" || runs[0].cell.CorruptFrac != 0.10 {
		t.Fatalf("cell must reflect NewConfig defaults: %+v", runs[0].cell)
	}

	if _, err := (Sweep{}).expand(); err == nil {
		t.Fatal("empty Ns accepted")
	}
	_, err = Sweep{Ns: []int{64}, Adversaries: []string{"no-such-strategy"}}.expand()
	if err == nil || !strings.Contains(err.Error(), "unknown adversary") {
		t.Fatalf("bad adversary not rejected: %v", err)
	}
	_, err = Sweep{Ns: []int{4}}.expand()
	if err == nil || !strings.Contains(err.Error(), "too small") {
		t.Fatalf("invalid cell config not rejected: %v", err)
	}
}

func TestSweepExpansionDedupesCollidingCells(t *testing.T) {
	// "none" forces corruptFrac to 0, so both CorruptFracs points resolve
	// to the same cell for it; the duplicate must expand only once.
	runs, err := Sweep{
		Ns:           []int{64},
		Seeds:        []uint64{1, 2},
		Adversaries:  []string{"none", "silent"},
		CorruptFracs: []float64{0.05, 0.10},
	}.expand()
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 + 2*2; len(runs)/2 != want/2 || len(runs) != 2*3 {
		t.Fatalf("expanded %d runs, want 6 (2 none + 4 silent)", len(runs))
	}
	perCell := map[Cell]int{}
	for _, r := range runs {
		perCell[r.cell]++
	}
	for cell, count := range perCell {
		if count != 2 {
			t.Fatalf("cell %v has %d runs, want one per seed", cell, count)
		}
	}
}

func suiteFixture() Suite {
	return Suite{
		Name:    "fixture",
		Workers: 4,
		Sweep: Sweep{
			Ns:     []int{64},
			Seeds:  Seeds(3),
			Models: []Model{SyncNonRushing, Async},
			Options: []Option{
				WithCorruptFrac(0.05), WithKnowFrac(0.92),
			},
		},
	}
}

func TestRunSuiteAggregates(t *testing.T) {
	rep, err := RunSuite(context.Background(), suiteFixture())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Cells) != 2 {
		t.Fatalf("want 2 cells, got %d", len(rep.Cells))
	}
	for _, cr := range rep.Cells {
		if cr.Runs != 3 || cr.Failures != 0 || len(cr.Records) != 3 {
			t.Fatalf("cell %v: bad counts %+v", cr.Cell, cr)
		}
		if cr.AgreementRate != float64(cr.AgreeRuns)/3 {
			t.Fatalf("cell %v: agreement rate mismatch", cr.Cell)
		}
		if cr.ValidityViolations != 0 {
			t.Fatalf("cell %v: validity violation", cr.Cell)
		}
		if cr.Time.Max < cr.Time.Mean || cr.MeanBits.Mean <= 0 {
			t.Fatalf("cell %v: degenerate stats %+v", cr.Cell, cr.Time)
		}
		if cr.Record(2).Seed != 2 {
			t.Fatalf("cell %v: Record(2) lookup failed", cr.Cell)
		}
	}
	async := rep.Find(func(c Cell) bool { return c.Model == Async.String() })
	if len(async) != 1 {
		t.Fatalf("Find returned %d cells", len(async))
	}
}

func TestRunSuiteDeterministicAcrossWorkerCounts(t *testing.T) {
	render := func(workers int) []byte {
		s := suiteFixture()
		s.Workers = workers
		rep, err := RunSuite(context.Background(), s)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := rep.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	serial, parallel := render(1), render(8)
	if !bytes.Equal(serial, parallel) {
		t.Fatal("report depends on worker count")
	}
	if !bytes.Equal(parallel, render(8)) {
		t.Fatal("report not deterministic across calls")
	}
}

func TestRunSuiteCancellationMidSweep(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var seen atomic.Int64
	s := Suite{
		Sweep: Sweep{
			Ns:      []int{96},
			Seeds:   Seeds(64), // far more work than a cancelled sweep should do
			Options: []Option{WithCorruptFrac(0.05), WithKnowFrac(0.92)},
		},
		OnResult: func(RunRecord) {
			if seen.Add(1) == 1 {
				cancel()
			}
		},
	}
	rep, err := RunSuite(ctx, s)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if rep != nil {
		t.Fatal("cancelled suite returned a report")
	}
	if n := seen.Load(); n >= 64 {
		t.Fatalf("sweep ran to completion (%d results) despite cancellation", n)
	}
}

func TestRunContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := NewConfig(64, WithCorruptFrac(0.05), WithKnowFrac(0.92))
	if _, err := RunAERContext(ctx, cfg); err != context.Canceled {
		t.Fatalf("RunAERContext err = %v", err)
	}
	if _, err := RunBAContext(ctx, cfg); err != context.Canceled {
		t.Fatalf("RunBAContext err = %v", err)
	}
	if _, err := RunSuite(ctx, suiteFixture()); err != context.Canceled {
		t.Fatalf("RunSuite err = %v", err)
	}
}

func TestRunSuiteBAAndBaselineKinds(t *testing.T) {
	base := Sweep{
		Ns:      []int{64},
		Seeds:   Seeds(2),
		Options: []Option{WithCorruptFrac(0.05), WithKnowFrac(0.92)},
	}
	ba, err := RunSuite(context.Background(), Suite{Kind: KindBA, Sweep: base})
	if err != nil {
		t.Fatal(err)
	}
	rec := ba.Cells[0].Records[0]
	if rec.AEKnowFrac <= 0 || rec.TotalTime <= rec.Time || rec.TotalMeanBitsPerNode <= rec.MeanBitsPerNode {
		t.Fatalf("BA record missing phase metrics: %+v", rec)
	}

	bl, err := RunSuite(context.Background(), Suite{Kind: KindBaseline, Baseline: BaselineFlood, Sweep: base})
	if err != nil {
		t.Fatal(err)
	}
	if cr := bl.Cells[0]; cr.AgreeRuns != cr.Runs || cr.MeanBits.Mean <= 0 {
		t.Fatalf("baseline cell degenerate: %+v", cr)
	}
}

func TestRunSuiteRenderAndKindStrings(t *testing.T) {
	rep, err := RunSuite(context.Background(), Suite{Name: "render", Sweep: Sweep{
		Ns: []int{64}, Options: []Option{WithCorruptFrac(0.05), WithKnowFrac(0.92)},
	}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	rep.Render(&buf)
	out := buf.String()
	if !strings.Contains(out, "render (aer)") || !strings.Contains(out, "sync-nonrushing") {
		t.Fatalf("render output missing pieces:\n%s", out)
	}
	for kind, want := range map[RunKind]string{KindAER: "aer", KindBA: "ba", KindBaseline: "baseline", KindLog: "log"} {
		if kind.String() != want {
			t.Fatalf("RunKind(%d).String() = %q", kind, kind.String())
		}
	}
}

func TestOptionRoundTrips(t *testing.T) {
	sched := func(n int, seed uint64) Scheduler { return NewFIFOScheduler() }
	obs := func(Event) {}
	cfg := NewConfig(64,
		WithSeed(9),
		WithModel(Async),
		WithAdversaryName("flood"),
		WithCorruptFrac(0.07),
		WithKnowFrac(0.91),
		WithMaxRounds(17),
		WithScheduler(sched),
		WithObserver(obs),
	)
	if cfg.Seed() != 9 || cfg.Model() != Async || cfg.AdversaryName() != "flood" {
		t.Fatalf("accessors: %+v", cfg)
	}
	if cfg.CorruptFrac() != 0.07 || cfg.KnowFrac() != 0.91 || cfg.MaxRounds() != 17 {
		t.Fatalf("accessors: %+v", cfg)
	}
	if cfg.schedMaker == nil || cfg.observer == nil {
		t.Fatal("scheduler/observer options not stored")
	}
	if err := cfg.validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateNewRules(t *testing.T) {
	tests := []struct {
		name string
		cfg  Config
		want string
	}{
		{"know too high", NewConfig(64, WithKnowFrac(1.5)), "know fraction"},
		{"know negative", NewConfig(64, WithKnowFrac(-0.1)), "know fraction"},
		{"zero rounds", NewConfig(64, WithMaxRounds(0)), "maxRounds"},
		{"negative rounds", NewConfig(64, WithMaxRounds(-3)), "maxRounds"},
		{"scheduler needs async", NewConfig(64, WithScheduler(func(int, uint64) Scheduler { return NewFIFOScheduler() })), "WithScheduler"},
		{"unknown adversary name", NewConfig(64, WithAdversaryName("bogus")), "unknown adversary"},
		{"NaN know", NewConfig(64, WithKnowFrac(math.NaN())), "know fraction"},
		{"NaN corrupt", NewConfig(64, WithCorruptFrac(math.NaN())), "corrupt fraction"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.cfg.validate()
			if err == nil || !strings.Contains(err.Error(), tt.want) {
				t.Fatalf("err = %v, want substring %q", err, tt.want)
			}
		})
	}
}
