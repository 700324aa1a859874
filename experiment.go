package fastba

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"
)

// Variant names a bundle of extra options applied together as one sweep
// axis — the escape hatch for dimensions without a dedicated Sweep field
// (answer budgets, quorum sizes, the deferred-relay toggle, paired
// model+adversary settings, ...).
type Variant struct {
	// Name labels the variant in cells and reports.
	Name string
	// Options are applied after the Sweep's base Options.
	Options []Option
}

// Sweep declares a matrix of run dimensions. Every listed axis is crossed
// with every other; an empty axis contributes a single "inherit the
// configured default" point, so only the dimensions under study need
// listing. Ns is mandatory. Seeds vary within a report cell (they are the
// statistical repetitions); all other axes define the cells.
type Sweep struct {
	// Ns are the system sizes.
	Ns []int
	// Seeds are the master seeds per cell (default {1}). See Seeds for
	// the common 1..k range.
	Seeds []uint64
	// Models are the timing models to cross.
	Models []Model
	// Adversaries are Byzantine strategy registry names — built-ins or
	// anything added through RegisterAdversary.
	Adversaries []string
	// CorruptFracs and KnowFracs sweep the population shape.
	CorruptFracs []float64
	KnowFracs    []float64
	// Faults sweeps fault-injection plans (see WithFaults). Cells are
	// labeled with each plan's compact Label plus its schedule seed;
	// identically-labeled distinct plans are disambiguated by position.
	// The zero plan labels as "none".
	Faults []FaultPlan
	// Scenarios sweeps network scenarios (see WithScenario): topology,
	// latency/loss model, relay fanout and adversary trigger. Cells are
	// labeled with each scenario's Label plus its seed; identically-
	// labeled distinct scenarios are disambiguated by position. The zero
	// scenario labels as "none".
	Scenarios []Scenario
	// Workloads sweeps sustained-load shapes (KindLog suites; see
	// Workload and RunLoad). Cells are labeled with each workload's
	// Label.
	Workloads []Workload
	// Variants is the free-form axis of named option bundles.
	Variants []Variant
	// Options applies to every cell, before any per-axis option. A
	// WithObserver here is shared by every run: RunSuite serializes its
	// calls across workers, but events from concurrently executing runs
	// interleave — use Suite.OnResult (or Workers: 1) for per-run streams.
	Options []Option
}

// Seeds returns the canonical seed range 1..k (nil when k ≤ 0, which a
// Sweep treats as the default single seed).
func Seeds(k int) []uint64 {
	if k <= 0 {
		return nil
	}
	s := make([]uint64, k)
	for i := range s {
		s[i] = uint64(i + 1)
	}
	return s
}

// Cell identifies one aggregation cell of a sweep: every dimension except
// the seed, resolved to the values the runs actually used.
type Cell struct {
	N           int     `json:"n"`
	Model       string  `json:"model"`
	Adversary   string  `json:"adversary"`
	CorruptFrac float64 `json:"corruptFrac"`
	KnowFrac    float64 `json:"knowFrac"`
	// Fault labels the cell's fault plan ("" = fault-free).
	Fault string `json:"fault,omitempty"`
	// Scenario labels the cell's network scenario ("" = direct mesh).
	Scenario string `json:"scenario,omitempty"`
	// Workload labels the cell's sustained-load shape (KindLog sweeps).
	Workload string `json:"workload,omitempty"`
	Variant  string `json:"variant,omitempty"`
}

// String renders a compact cell label.
func (c Cell) String() string {
	s := fmt.Sprintf("n=%d/%s/%s", c.N, c.Model, c.Adversary)
	if c.Fault != "" {
		s += "/" + c.Fault
	}
	if c.Scenario != "" {
		s += "/" + c.Scenario
	}
	if c.Workload != "" {
		s += "/" + c.Workload
	}
	if c.Variant != "" {
		s += "/" + c.Variant
	}
	return s
}

// plannedRun is one expanded (cell, seed) execution.
type plannedRun struct {
	cell Cell
	seed uint64
	cfg  Config
}

// expand materializes the sweep matrix into validated configurations,
// in deterministic order: cells in axis-nesting order (n outermost,
// variants innermost), seeds within each cell.
func (s Sweep) expand() ([]plannedRun, error) {
	if len(s.Ns) == 0 {
		return nil, fmt.Errorf("fastba: sweep needs at least one system size")
	}
	seeds := s.Seeds
	if len(seeds) == 0 {
		seeds = []uint64{1}
	}

	// Each empty axis degenerates to a single no-option point so the
	// cross product below needs no special cases.
	axis := func(k int) []int {
		if k == 0 {
			k = 1
		}
		idx := make([]int, k)
		for i := range idx {
			idx[i] = i
		}
		return idx
	}

	// Distinct axis combinations can resolve to the same cell — e.g. the
	// "none" adversary forces corruptFrac to 0 whatever the CorruptFracs
	// axis says — so identical (cell, seed) points are expanded once.
	type cellSeed struct {
		cell Cell
		seed uint64
	}
	seen := make(map[cellSeed]bool)

	faultLabels := faultAxisLabels(s.Faults)
	scenarioLabels := scenarioAxisLabels(s.Scenarios)

	var runs []plannedRun
	for _, n := range s.Ns {
		for _, mi := range axis(len(s.Models)) {
			for _, ai := range axis(len(s.Adversaries)) {
				for _, ci := range axis(len(s.CorruptFracs)) {
					for _, ki := range axis(len(s.KnowFracs)) {
						for _, fi := range axis(len(s.Faults)) {
							for _, si := range axis(len(s.Scenarios)) {
								for _, wi := range axis(len(s.Workloads)) {
									for _, vi := range axis(len(s.Variants)) {
										opts := append([]Option(nil), s.Options...)
										variant, fault, scen, workload := "", "", "", ""
										if len(s.Models) > 0 {
											opts = append(opts, WithModel(s.Models[mi]))
										}
										if len(s.Adversaries) > 0 {
											opts = append(opts, WithAdversaryName(s.Adversaries[ai]))
										}
										if len(s.CorruptFracs) > 0 {
											opts = append(opts, WithCorruptFrac(s.CorruptFracs[ci]))
										}
										if len(s.KnowFracs) > 0 {
											opts = append(opts, WithKnowFrac(s.KnowFracs[ki]))
										}
										if len(s.Faults) > 0 {
											fault = faultLabels[fi]
											opts = append(opts, WithFaults(s.Faults[fi]))
										}
										if len(s.Scenarios) > 0 {
											scen = scenarioLabels[si]
											opts = append(opts, WithScenario(s.Scenarios[si]))
										}
										if len(s.Workloads) > 0 {
											workload = s.Workloads[wi].Label()
											opts = append(opts, WithWorkload(s.Workloads[wi]))
										}
										if len(s.Variants) > 0 {
											variant = s.Variants[vi].Name
											opts = append(opts, s.Variants[vi].Options...)
										}
										for _, seed := range seeds {
											cfg := NewConfig(n, append(opts, WithSeed(seed))...)
											if err := cfg.validate(); err != nil {
												return nil, fmt.Errorf("fastba: sweep cell n=%d fault=%q scenario=%q variant=%q: %w", n, fault, scen, variant, err)
											}
											cell := Cell{
												N:           cfg.n,
												Model:       cfg.model.String(),
												Adversary:   cfg.advName,
												CorruptFrac: cfg.corruptFrac,
												KnowFrac:    cfg.knowFrac,
												Fault:       fault,
												Scenario:    scen,
												Workload:    workload,
												Variant:     variant,
											}
											if seen[cellSeed{cell, seed}] {
												continue
											}
											seen[cellSeed{cell, seed}] = true
											runs = append(runs, plannedRun{cell: cell, seed: seed, cfg: cfg})
										}
									}
								}
							}
						}
					}
				}
			}
		}
	}
	return runs, nil
}

// scenarioAxisLabels renders one distinct cell label per scenario: the
// scenario's compact Label plus its own seed, with positional suffixes
// for scenarios that would otherwise collide. The zero scenario labels
// as "none".
func scenarioAxisLabels(specs []Scenario) []string {
	labels := make([]string, len(specs))
	seen := make(map[string]int, len(specs))
	for i, sp := range specs {
		l := sp.Label()
		if l == "" {
			l = "none"
		}
		if sp.Seed != 0 {
			l = fmt.Sprintf("%s#%d", l, sp.Seed)
		}
		seen[l]++
		if n := seen[l]; n > 1 {
			l = fmt.Sprintf("%s(%d)", l, n)
		}
		labels[i] = l
	}
	return labels
}

// faultAxisLabels renders one distinct cell label per fault plan: the
// plan's compact Label plus its schedule seed, with positional suffixes
// for plans that would otherwise collide (e.g. two partition plans
// differing only in their windows). The zero plan labels as "none".
func faultAxisLabels(plans []FaultPlan) []string {
	labels := make([]string, len(plans))
	seen := make(map[string]int, len(plans))
	for i, p := range plans {
		l := p.Label()
		if l == "" {
			l = "none"
		}
		if p.Seed != 0 {
			l = fmt.Sprintf("%s#%d", l, p.Seed)
		}
		seen[l]++
		if n := seen[l]; n > 1 {
			l = fmt.Sprintf("%s(%d)", l, n)
		}
		labels[i] = l
	}
	return labels
}

// RunKind selects which entry point a suite drives.
type RunKind int

// Suite run kinds.
const (
	// KindAER sweeps RunAER (the default).
	KindAER RunKind = iota + 1
	// KindBA sweeps the full two-phase RunBA pipeline.
	KindBA
	// KindBaseline sweeps RunBaseline with Suite.Baseline.
	KindBaseline
	// KindLog sweeps RunLoad: every run drives a pipelined DecisionLog
	// under the cell's Workload (Sweep.Workloads) and reports committed
	// throughput and commit-latency percentiles. Time statistics are
	// wall-clock milliseconds; the cross-instance log oracles are always
	// evaluated.
	KindLog
)

// String implements fmt.Stringer.
func (k RunKind) String() string {
	switch k {
	case KindAER:
		return "aer"
	case KindBA:
		return "ba"
	case KindBaseline:
		return "baseline"
	case KindLog:
		return "log"
	default:
		return fmt.Sprintf("RunKind(%d)", int(k))
	}
}

// Suite is a declarative experiment: a sweep matrix, the entry point to
// drive, and execution knobs. Run it with RunSuite.
type Suite struct {
	// Name labels the report.
	Name string
	// Sweep is the run matrix.
	Sweep Sweep
	// Kind selects the entry point (default KindAER).
	Kind RunKind
	// Baseline selects the comparison protocol for KindBaseline.
	Baseline Baseline
	// Workers bounds run parallelism (default GOMAXPROCS). Runs are
	// deterministic per seed regardless of scheduling, and aggregation is
	// order-independent, so Reports do not depend on Workers.
	Workers int
	// OnResult, when set, streams every finished run's record as it
	// completes (calls are serialized). Completion order is
	// non-deterministic under parallelism; the Report is not.
	OnResult func(RunRecord)
	// CheckOracles evaluates the protocol-invariant safety oracles
	// (agreement, validity, certificates — see the Oracle* constants) on
	// every completed AER and BA run — a timed-out TCP run included, since
	// safety binds partial outcomes too — and records violations in
	// RunRecord.OracleViolations. Essential for sweeps with fault
	// dimensions, where the Agreement flag alone cannot distinguish "the
	// network destroyed liveness" from "safety broke". Termination is not
	// an oracle here — it is a w.h.p. guarantee, reported as the cell's
	// agreement rate; per-seed termination checking lives in
	// CheckInvariants and the SimFuzz campaign.
	CheckOracles bool
}

// RunRecord is the outcome of one (cell, seed) execution.
type RunRecord struct {
	Cell Cell   `json:"cell"`
	Seed uint64 `json:"seed"`
	// Err is set when the run failed; failed runs are excluded from cell
	// statistics. Most failures carry zero metrics, but a timed-out TCP
	// run keeps its partial outcome (who decided, bits so far) alongside
	// Err — check Err, not the metric fields, to classify a record.
	Err string `json:"err,omitempty"`

	Agreement        bool    `json:"agreement"`
	Correct          int     `json:"correct"`
	Decided          int     `json:"decided"`
	DecidedGString   int     `json:"decidedGString"`
	DecidedOther     int     `json:"decidedOther"`
	Time             int     `json:"time"`
	LastDecision     int     `json:"lastDecision"`
	MeanBitsPerNode  float64 `json:"meanBitsPerNode"`
	MaxBitsPerNode   int64   `json:"maxBitsPerNode"`
	TotalMessages    int64   `json:"totalMessages"`
	SumCandidates    int     `json:"sumCandidates"`
	AnswersDeferred  int     `json:"answersDeferred"`
	PushesPerCorrect float64 `json:"pushesPerCorrect"`
	// CandidateCoverage is the Lemma 5 probe (AER runs only).
	CandidateCoverage float64 `json:"candidateCoverage"`
	DecisionTimes     []int   `json:"decisionTimes,omitempty"`
	// DistinctDecisions counts distinct decided values among correct
	// nodes (0 = nobody decided; > 1 = agreement violation).
	DistinctDecisions int `json:"distinctDecisions"`
	// CertDeficits counts deciders without a strict poll-list majority
	// certificate (must stay 0 — see OracleCertificates).
	CertDeficits int `json:"certDeficits,omitempty"`
	// OracleViolations holds "oracle: detail" findings when
	// Suite.CheckOracles is set; empty means every checked invariant held.
	OracleViolations []string `json:"oracleViolations,omitempty"`

	// BA-only phase metrics.
	AEKnowFrac           float64 `json:"aeKnowFrac,omitempty"`
	TotalTime            int     `json:"totalTime,omitempty"`
	TotalMeanBitsPerNode float64 `json:"totalMeanBitsPerNode,omitempty"`

	// Decision-log metrics (KindLog runs only).
	Committed         int          `json:"committed,omitempty"`
	CommittedPayloads int          `json:"committedPayloads,omitempty"`
	EntriesPerSec     float64      `json:"entriesPerSec,omitempty"`
	PayloadsPerSec    float64      `json:"payloadsPerSec,omitempty"`
	CommitP50Ms       float64      `json:"commitP50Ms,omitempty"`
	CommitP99Ms       float64      `json:"commitP99Ms,omitempty"`
	LatencyHist       []HistBucket `json:"latencyHist,omitempty"`
}

// DecidedFrac returns the fraction of correct nodes that decided gstring,
// 0 when any correct node decided something else (a validity violation).
func (r RunRecord) DecidedFrac() float64 {
	if r.Correct == 0 || r.DecidedOther > 0 {
		return 0
	}
	return float64(r.DecidedGString) / float64(r.Correct)
}

// RunSuite expands the suite's sweep into configurations and executes them
// on a pool of Workers goroutines. It returns the aggregated Report, or
// ctx.Err() as soon as the context is cancelled — in-flight AER runs
// abandon at their next cancellation probe, so mid-sweep cancellation is
// prompt even with large cells. Runs without a probe finish first: an
// in-flight baseline run (cheap — their round structure is one or two
// rounds) and a BA run's almost-everywhere phase complete before the
// cancellation is observed.
//
// Reports are deterministic: for a fixed suite, every call returns the
// same Report regardless of worker count or completion order (TCP-model wall
// times and Goroutines-model traces excepted).
func RunSuite(ctx context.Context, s Suite) (*Report, error) {
	if s.Kind == 0 {
		s.Kind = KindAER
	}
	runs, err := s.Sweep.expand()
	if err != nil {
		return nil, err
	}
	workers := s.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(runs) {
		workers = len(runs)
	}

	// An observer configured through Sweep.Options is one closure shared
	// by every run; serialize its calls so parallel workers do not race
	// it (events from distinct runs still interleave — see Sweep.Options).
	var obsMu sync.Mutex
	for i := range runs {
		if inner := runs[i].cfg.observer; inner != nil && workers > 1 {
			runs[i].cfg.observer = func(ev Event) {
				obsMu.Lock()
				inner(ev)
				obsMu.Unlock()
			}
		}
	}

	records := make([]RunRecord, len(runs))
	jobs := make(chan int)
	var wg sync.WaitGroup
	var emitMu sync.Mutex
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				records[i] = s.runOne(ctx, runs[i])
				if s.OnResult != nil && ctx.Err() == nil {
					emitMu.Lock()
					s.OnResult(records[i])
					emitMu.Unlock()
				}
			}
		}()
	}
feed:
	for i := range runs {
		select {
		case jobs <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(jobs)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return aggregate(s, runs, records), nil
}

// runOne executes a single planned run through the suite's entry point.
func (s Suite) runOne(ctx context.Context, run plannedRun) RunRecord {
	rec := RunRecord{Cell: run.cell, Seed: run.seed}
	switch s.Kind {
	case KindAER:
		res, err := RunAERContext(ctx, run.cfg)
		if err != nil {
			rec.Err = err.Error()
			return rec
		}
		rec.fillAER(res)
		if s.CheckOracles {
			o := NewOracles(run.cfg)
			o.suiteMode = true
			rec.OracleViolations = o.Report(res).Strings()
		}
	case KindBA:
		res, err := RunBAContext(ctx, run.cfg)
		if err != nil {
			rec.Err = err.Error()
			return rec
		}
		rec.fillAER(&res.AER)
		rec.AEKnowFrac = res.AE.KnowFrac
		rec.TotalTime = res.TotalTime
		rec.TotalMeanBitsPerNode = res.TotalMeanBitsPerNode
		if s.CheckOracles {
			// The a.e. precondition of the AER phase is what the committee
			// phase actually achieved, not the configured knowFrac.
			o := NewOracles(run.cfg)
			o.suiteMode = true
			o.knowFrac = res.AE.KnowFrac
			rec.OracleViolations = o.Report(&res.AER).Strings()
		}
	case KindBaseline:
		if err := ctx.Err(); err != nil {
			rec.Err = err.Error()
			return rec
		}
		res, err := RunBaseline(run.cfg, s.Baseline)
		if err != nil {
			rec.Err = err.Error()
			return rec
		}
		rec.Agreement = res.Agreement
		rec.Correct = res.Correct
		rec.Decided = res.Decided
		rec.DecidedGString = res.Decided // baselines report decisions on gstring only
		rec.Time = res.Time
		rec.MeanBitsPerNode = res.MeanBitsPerNode
		rec.MaxBitsPerNode = res.MaxBitsPerNode
		rec.TotalMessages = res.TotalMessages
	case KindLog:
		res, err := RunLoad(ctx, run.cfg)
		if err != nil {
			rec.Err = err.Error()
			return rec
		}
		// Agreement for a log cell means: something committed and every
		// cross-instance oracle held. The oracles run unconditionally —
		// a log sweep without safety verdicts would be meaningless.
		rec.Agreement = res.Committed > 0 && res.Oracles.OK()
		rec.Time = int(res.Elapsed.Milliseconds())
		rec.Committed = res.Committed
		rec.CommittedPayloads = res.CommittedPayloads
		rec.EntriesPerSec = res.EntriesPerSec
		rec.PayloadsPerSec = res.PayloadsPerSec
		rec.CommitP50Ms = float64(res.CommitP50) / float64(time.Millisecond)
		rec.CommitP99Ms = float64(res.CommitP99) / float64(time.Millisecond)
		rec.LatencyHist = res.Hist
		rec.OracleViolations = res.Oracles.Strings()
		if res.Err != "" {
			rec.Err = res.Err
		}
	default:
		rec.Err = fmt.Sprintf("fastba: unknown run kind %v", s.Kind)
	}
	return rec
}

func (rec *RunRecord) fillAER(res *AERResult) {
	rec.Agreement = res.Agreement
	rec.Correct = res.Correct
	rec.Decided = res.Decided
	rec.DecidedGString = res.DecidedGString
	rec.DecidedOther = res.DecidedOther
	rec.Time = res.Time
	rec.LastDecision = res.LastDecision
	rec.MeanBitsPerNode = res.MeanBitsPerNode
	rec.MaxBitsPerNode = res.MaxBitsPerNode
	rec.TotalMessages = res.TotalMessages
	rec.SumCandidates = res.SumCandidates
	rec.AnswersDeferred = res.AnswersDeferred
	rec.PushesPerCorrect = res.PushesPerCorrect
	rec.CandidateCoverage = res.CandidateCoverage
	rec.DecisionTimes = res.DecisionTimes
	rec.DistinctDecisions = res.DistinctDecisions
	rec.CertDeficits = res.CertDeficits
	if res.TimedOut {
		rec.Err = "tcp run timed out before all correct nodes decided"
	}
}
