package fastba

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"time"

	"github.com/fastba/fastba/internal/prng"
)

// The scenario fuzzer. SimFuzz samples hostile cases — a FaultPlan crossed
// with a system size, timing model, Byzantine strategy and population
// shape, or a short pipelined log — and runs each under the oracles. Case i
// is a pure function of (FuzzConfig.Seed, i) on a deterministic runner, so
// a failing case replays bit-for-bit from its FuzzCase alone; it is shrunk
// and persisted as JSON for testdata/fuzz_corpus, the regression suite.

// FuzzCase is one fully-specified, reproducible fuzz scenario. It is the
// JSON corpus format of cmd/fuzzba.
type FuzzCase struct {
	// N is the system size.
	N int `json:"n"`
	// Seed is the run's master seed.
	Seed uint64 `json:"seed"`
	// Model is the timing model's String name. Deterministic models only:
	// the fuzzer needs bit-for-bit replays. Single-shot cases only.
	Model string `json:"model,omitempty"`
	// Adversary is the Byzantine strategy's registry name. Single-shot
	// cases only: log cases run fail-silent corruption.
	Adversary string `json:"adversary,omitempty"`
	// CorruptFrac and KnowFrac shape the population.
	CorruptFrac float64 `json:"corruptFrac"`
	KnowFrac    float64 `json:"knowFrac"`
	// Plan is the fault schedule under test.
	Plan FaultPlan `json:"plan"`
	// Scenario, when set, runs the case over a network scenario (see
	// WithScenario), which admits the adaptive adversaries. Single-shot only.
	Scenario *Scenario `json:"scenario,omitempty"`
	// Log, when set, makes this a pipelined decision-log case (see
	// replayLogCase).
	Log *LogFuzz `json:"log,omitempty"`
	// Chaos, when set (log cases only), runs the log over TCP while a
	// seeded chaos plan severs its real connections.
	Chaos *ChaosFuzz `json:"chaos,omitempty"`
	// Note is free-form provenance ("sampled: campaign seed 7, case 42").
	Note string `json:"note,omitempty"`
}

// LogFuzz shapes a pipelined decision-log fuzz case.
type LogFuzz struct {
	// Entries is the number of deterministic batches appended.
	Entries int `json:"entries"`
	// Depth is the instance pipelining depth.
	Depth int `json:"depth"`
	// Batch is the payload count per batch; PayloadBytes sizes each one.
	Batch        int `json:"batch"`
	PayloadBytes int `json:"payloadBytes"`
	// RestartAfter, when positive (and < Entries), crashes the durable log
	// after that many entries and appends the rest to the recovered one.
	RestartAfter int `json:"restartAfter,omitempty"`
}

// ChaosFuzz is the corpus form of a ChaosPlan: the live-socket chaos
// dimension of a log fuzz case.
type ChaosFuzz struct {
	// Seed keys the deterministic strike schedule (ChaosSchedule).
	Seed uint64 `json:"seed"`
	// Strikes bounds landed strikes; 0 with Sweep runs until every link
	// has been severed once.
	Strikes int `json:"strikes,omitempty"`
	// IntervalMs is the strike cadence in milliseconds (0: plan default).
	IntervalMs int `json:"intervalMs,omitempty"`
	// Kinds restricts the strike kinds (close, halfclose, blackhole; empty: all).
	Kinds []string `json:"kinds,omitempty"`
	// Sweep prioritizes live not-yet-severed links until full coverage.
	Sweep bool `json:"sweep,omitempty"`
}

// String renders a compact case label.
func (c FuzzCase) String() string {
	fault := c.Plan.Label()
	if fault == "" {
		fault = "none"
	}
	family := c.Model + "/" + c.Adversary
	if c.Log != nil {
		family = fmt.Sprintf("log[e=%d,d=%d,b=%d", c.Log.Entries, c.Log.Depth, c.Log.Batch)
		if c.Log.RestartAfter > 0 {
			family += fmt.Sprintf(",r@%d", c.Log.RestartAfter)
		}
		if c.Chaos != nil {
			family += fmt.Sprintf(",chaos=%d", c.Chaos.Seed)
		}
		family += "]"
	}
	label := fmt.Sprintf("n=%d seed=%d %s corrupt=%.2f know=%.2f faults=%s", c.N, c.Seed, family, c.CorruptFrac, c.KnowFrac, fault)
	if c.Scenario != nil {
		label += " scenario=" + c.Scenario.Label()
	}
	return label
}

// clone is the one deep copy of a case: the result shares no memory with c.
func (c FuzzCase) clone() FuzzCase {
	c.Plan.Partitions = slices.Clone(c.Plan.Partitions)
	for i := range c.Plan.Partitions {
		c.Plan.Partitions[i].A = slices.Clone(c.Plan.Partitions[i].A)
	}
	c.Plan.Crashes = slices.Clone(c.Plan.Crashes)
	c.Plan.Links = slices.Clone(c.Plan.Links)
	c.Scenario, c.Log, c.Chaos = copyOf(c.Scenario), copyOf(c.Log), copyOf(c.Chaos)
	if c.Chaos != nil {
		c.Chaos.Kinds = slices.Clone(c.Chaos.Kinds)
	}
	return c
}

// copyOf returns a pointer to a shallow copy of *p, or nil.
func copyOf[T any](p *T) *T {
	if p == nil {
		return nil
	}
	v := *p
	return &v
}

// options is the one validator of a case: it checks every cross-dimension
// rule and returns the options its single-shot run or pipelined log uses.
func (c FuzzCase) options() ([]Option, error) {
	opts := []Option{WithSeed(c.Seed), WithCorruptFrac(c.CorruptFrac), WithKnowFrac(c.KnowFrac), WithFaults(c.Plan)}
	if c.Log == nil {
		if c.Chaos != nil {
			return nil, fmt.Errorf("fastba: chaos fuzz dimension requires a log case (single-shot runs have no long-lived connections)")
		}
		model, err := ParseModel(c.Model)
		if err != nil {
			return nil, err
		}
		if !model.deterministic() {
			return nil, fmt.Errorf("fastba: fuzz cases require a deterministic model, have %v", model)
		}
		opts = append(opts, WithModel(model), WithAdversaryName(c.Adversary))
		if c.Scenario != nil {
			opts = append(opts, WithScenario(*c.Scenario))
		}
		return opts, nil
	}
	lf := *c.Log
	switch {
	case c.Scenario != nil || c.Model != "" || c.Adversary != "":
		return nil, fmt.Errorf("fastba: log fuzz case sets a scenario, model or adversary — the log family runs none of them")
	case lf.Entries <= 0 || lf.Depth <= 0 || lf.Batch <= 0 || lf.PayloadBytes <= 0:
		return nil, fmt.Errorf("fastba: malformed log fuzz case: %+v", lf)
	case lf.RestartAfter >= lf.Entries:
		return nil, fmt.Errorf("fastba: log fuzz case restarts after entry %d of %d — nothing left to append", lf.RestartAfter, lf.Entries)
	case c.Chaos != nil && lf.RestartAfter > 0:
		return nil, fmt.Errorf("fastba: log fuzz case mixes chaos with restart — one hostile dimension per case")
	}
	opts = append(opts, WithLogDepth(lf.Depth), WithLogInstanceTimeout(30*time.Second))
	if c.Chaos == nil {
		return opts, nil
	}
	plan := ChaosPlan{Seed: c.Chaos.Seed, Strikes: c.Chaos.Strikes, Sweep: c.Chaos.Sweep}
	if c.Chaos.IntervalMs > 0 {
		plan.Interval = time.Duration(c.Chaos.IntervalMs) * time.Millisecond
	}
	for _, name := range c.Chaos.Kinds {
		k, err := ParseChaosKind(name)
		if err != nil {
			return nil, err
		}
		plan.Kinds = append(plan.Kinds, k)
	}
	return append(opts,
		WithLogRuntime(RuntimeTCP),
		// Commit below full attendance: a node behind a blackholed link
		// must not stall the head instance for the detector's whole window.
		WithLogCommitFraction(0.7),
		// Heal fast at fuzz scale — and never give up: every severed link
		// must come back, or the case wedges until the instance timeout.
		WithReconnect(ReconnectPolicy{Base: 2 * time.Millisecond, Cap: 50 * time.Millisecond, MaxAttempts: -1}),
		WithHeartbeat(HeartbeatPolicy{Every: 20 * time.Millisecond, SuspectAfter: 80 * time.Millisecond}),
		WithChaos(plan),
	), nil
}

// FuzzRun is the outcome of one executed case.
type FuzzRun struct {
	Case FuzzCase `json:"case"`
	// Digest canonically summarizes the run: equal cases, equal digests.
	Digest string `json:"digest"`
	// Report is the oracle verdict.
	Report OracleReport `json:"report"`
	// Result is the underlying run result (not serialized).
	Result *AERResult `json:"-"`
}

// ReplayCase executes one fuzz case with the oracles attached and returns
// the digested outcome: the unit the fuzzer, corpus and shrinker share.
func ReplayCase(c FuzzCase) (FuzzRun, error) {
	opts, err := c.options()
	if err != nil {
		return FuzzRun{}, err
	}
	if c.Log != nil {
		return replayLogCase(c, opts)
	}
	cfg := NewConfig(c.N, opts...)
	oracles := NewOracles(cfg)
	cfg.observer = oracles.Observer()
	res, err := RunAER(cfg)
	if err != nil {
		return FuzzRun{}, err
	}
	report := oracles.Report(res)
	return FuzzRun{Case: c, Digest: runDigest(res, report), Report: report, Result: res}, nil
}

// replayLogCase appends Entries deterministic batches at the case's depth
// and judges the log with the cross-instance oracles plus a termination
// check (lossless plans only; there the committed sequence, and so the
// digest, is a pure function of the case). The families differ in data:
//
//   - restart: the log runs on a store in a temporary directory. The first
//     RestartAfter entries are appended and awaited, pinning the persisted
//     frontier; the log hard-crashes and reopens, the durability oracle
//     judges the recovered prefix, and the rest is appended. Recovery must
//     not show in the digest.
//   - chaos: the log runs over TCP while the chaos controller severs its
//     real connections on the case's seeded schedule. Safety must hold on
//     whatever committed; frames die with a severed socket, so termination
//     is skipped and the digest covers the strike schedule, not the entries.
func replayLogCase(c FuzzCase, opts []Option) (FuzzRun, error) {
	lf := *c.Log
	crashAt := lf.Entries // no restart: one phase appends everything
	if lf.RestartAfter > 0 {
		dir, err := os.MkdirTemp("", "bastore-fuzz-*")
		if err != nil {
			return FuzzRun{}, err
		}
		defer os.RemoveAll(dir)
		opts = append(opts, WithLogStore(dir))
		crashAt = lf.RestartAfter
	}
	cfg := NewConfig(c.N, opts...)
	if err := cfg.validate(); err != nil {
		return FuzzRun{}, err
	}
	ctx := context.Background()
	log, err := OpenLog(ctx, cfg)
	if err != nil {
		return FuzzRun{}, err
	}
	// appendBatches appends batches [from, to) and returns the last seq.
	// Batch k is a pure function of (seed, k) on every runtime.
	appendBatches := func(from, to int) (seq uint64, err error) {
		for k := from; k < to && err == nil; k++ {
			batch := make([][]byte, lf.Batch)
			for i := range batch {
				src := prng.New(prng.DeriveKey(c.Seed, "fuzz/log/payload", uint64(k)<<16|uint64(i)))
				batch[i] = make([]byte, lf.PayloadBytes)
				for j := range batch[i] {
					batch[i][j] = byte(src.Uint64())
				}
			}
			seq, err = log.Append(ctx, batch)
		}
		return seq, err
	}
	lastSeq, appendErr := appendBatches(0, crashAt)
	restarted := crashAt < lf.Entries
	var durability []Violation
	if restarted {
		if appendErr == nil {
			// Await the whole first phase so the crash frontier is exactly
			// RestartAfter — the determinism the digest contract needs.
			_, appendErr = log.WaitSeq(ctx, lastSeq)
		}
		before := log.Committed()
		log.Crash()
		if log, err = OpenLog(ctx, cfg); err != nil {
			return FuzzRun{}, fmt.Errorf("fastba: log fuzz reopen after crash: %w", err)
		}
		durability = CheckLogDurability(before, log.Committed()).Violations
		if appendErr == nil {
			_, appendErr = appendBatches(crashAt, lf.Entries)
		}
	}
	// Close and append errors are liveness outcomes: the termination check
	// reports them where it applies; the oracles judge whatever committed.
	closeErr := log.Close()
	entries := log.Committed()
	report := CheckLogInvariants(entries, cfg.knowFrac)
	if restarted {
		report.Checked = append(report.Checked, OracleLogDurability)
		report.Violations = append(report.Violations, durability...)
	}
	switch {
	case c.Chaos != nil:
		skipTermination(&report, "chaos plan severs live sockets (lossy by construction)")
	case !c.Plan.Lossless():
		skipTermination(&report, "fault plan can destroy messages (drops, partitions or crashes)")
	default:
		report.Checked = append(report.Checked, OracleTermination)
		if len(entries) < lf.Entries {
			detail := fmt.Sprintf("%d of %d planned entries committed under a lossless plan", len(entries), lf.Entries)
			if closeErr != nil {
				detail += ": " + closeErr.Error()
			} else if appendErr != nil {
				detail += ": " + appendErr.Error()
			}
			report.Violations = append(report.Violations, Violation{Oracle: OracleTermination, Detail: detail})
		}
	}
	sort.Strings(report.Checked)
	// Only order-independent fields enter the digest: never latencies or
	// delivery counts, which the concurrent runtimes do not reproduce.
	return FuzzRun{Case: c, Report: report, Digest: digest(report, func(h io.Writer) {
		if c.Chaos != nil {
			plan := cfg.net.Chaos
			fmt.Fprintf(h, "chaos seed=%d sweep=%t strikes=%d\n", plan.Seed, plan.Sweep, plan.Strikes)
			for _, s := range ChaosSchedule(plan, c.N) {
				fmt.Fprintf(h, "strike kind=%s from=%d to=%d\n", s.Kind, s.From, s.To)
			}
			return
		}
		fmt.Fprintf(h, "committed=%d\n", len(entries))
		for _, e := range entries {
			fmt.Fprintf(h, "seq=%d value=%s payloads=%d distinct=%d certdef=%d proposal=%t\n",
				e.Seq, e.Value, e.PayloadCount, e.DistinctValues, e.CertDeficits, e.MatchesProposal)
		}
	})}, nil
}

// skipTermination records why the termination oracle does not apply.
func skipTermination(report *OracleReport, why string) {
	if report.Skipped == nil {
		report.Skipped = map[string]string{}
	}
	report.Skipped[OracleTermination] = why
}

// digest hashes a canonical summary: write's lines, then the verdicts.
func digest(report OracleReport, write func(h io.Writer)) string {
	h := sha256.New()
	write(h)
	fmt.Fprintf(h, "oracles checked=%v violations=%v\n", report.Checked, report.Strings())
	return fmt.Sprintf("%x", h.Sum(nil))
}

// runDigest canonically summarizes a single-shot run. Every field written
// here is deterministic under the deterministic runners.
func runDigest(res *AERResult, report OracleReport) string {
	return digest(report, func(h io.Writer) {
		fmt.Fprintf(h, "gstring=%s correct=%d decided=%d onG=%d other=%d distinct=%d certdef=%d\n",
			res.GString, res.Correct, res.Decided, res.DecidedGString, res.DecidedOther,
			res.DistinctDecisions, res.CertDeficits)
		fmt.Fprintf(h, "time=%d last=%d msgs=%d meanBits=%.6f maxBits=%d deferred=%d\n",
			res.Time, res.LastDecision, res.TotalMessages, res.MeanBitsPerNode,
			res.MaxBitsPerNode, res.AnswersDeferred)
		kinds := make([]string, 0, len(res.MessagesByKind))
		for k := range res.MessagesByKind {
			kinds = append(kinds, k)
		}
		sort.Strings(kinds)
		for _, k := range kinds {
			fmt.Fprintf(h, "kind %s=%d\n", k, res.MessagesByKind[k])
		}
		fmt.Fprintf(h, "decisions=%v\n", res.DecisionTimes)
	})
}

// FuzzFailure is a persisted oracle violation: the shrunk reproducer
// (Case), the case as sampled (Original), and the shrunk case's oracle
// findings and run digest.
type FuzzFailure struct {
	Case       FuzzCase    `json:"case"`
	Original   FuzzCase    `json:"original"`
	Violations []Violation `json:"violations"`
	Digest     string      `json:"digest"`
}

// FuzzConfig parameterizes a SimFuzz campaign. Every zero field has a
// usable default, but Runs or Budget must bound the campaign.
type FuzzConfig struct {
	// Seed keys the campaign: case i is a pure function of (Seed, i).
	Seed uint64
	// Runs bounds the number of sampled cases and Budget the wall-clock
	// time (0 = unbounded). Cases run in deterministic order, so a larger
	// budget strictly extends a smaller one's coverage.
	Runs   int
	Budget time.Duration
	// Ns are the candidate system sizes (default 16, 24, 32).
	Ns []int
	// Models are the candidate timing models — deterministic ones only
	// (default all four: sync non-rushing/rushing, async, async-adversarial).
	Models []Model
	// Adversaries are the candidate strategy registry names (default: all
	// built-ins including the *-then-silent fault flavours).
	Adversaries []string
	// KnowFracs are the candidate knowledge fractions (default 0.85, 1.0).
	KnowFracs []float64
	// CorruptFracs are the candidate corruption fractions (default 0, 0.1, 0.2).
	CorruptFracs []float64

	// The four family fractions default to 0 — off. A family that is off
	// consumes no PRNG draw, so existing campaign digests stay stable.
	//
	// LogFrac is the fraction of cases drawn from the pipelined-log family:
	// short logs on the fabric runtime with fail-silent corruption and
	// lossless plans, judged by the cross-instance oracles.
	LogFrac float64
	// RestartFrac is the fraction of log-family cases that crash and
	// restart a durable log mid-run (LogFuzz.RestartAfter).
	RestartFrac float64
	// ChaosFrac is the fraction of non-restart log-family cases that run
	// over TCP under a seeded live-socket chaos plan.
	ChaosFrac float64
	// ScenarioFrac is the fraction of single-shot cases that run over a
	// sampled network scenario: topology, latency/loss model, gossip relay,
	// and occasionally an adaptive adversary.
	ScenarioFrac float64
	// PersistDir, when set, receives one JSON FuzzFailure file per failing
	// case (after shrinking), named fail_<digest prefix>.json.
	PersistDir string
	// OnRun, when set, observes every executed case (sampled campaign
	// cases only, not shrink replays), in order.
	OnRun func(FuzzRun)
}

func (fc *FuzzConfig) defaults() error {
	if fc.Runs <= 0 && fc.Budget <= 0 {
		return fmt.Errorf("fastba: fuzz campaign needs a Runs or Budget bound")
	}
	if len(fc.Ns) == 0 {
		fc.Ns = []int{16, 24, 32}
	}
	if len(fc.Models) == 0 {
		fc.Models = []Model{SyncNonRushing, SyncRushing, Async, AsyncAdversarial}
	}
	for _, m := range fc.Models {
		if !m.deterministic() {
			return fmt.Errorf("fastba: fuzz campaigns require deterministic models, have %v", m)
		}
	}
	if len(fc.Adversaries) == 0 {
		fc.Adversaries = []string{"none", "silent", "flood", "equivocate", "corner", "corner-rushing",
			"flood-then-silent", "equivocate-then-silent"}
	}
	if len(fc.KnowFracs) == 0 {
		fc.KnowFracs = []float64{0.85, 1.0}
	}
	if len(fc.CorruptFracs) == 0 {
		fc.CorruptFracs = []float64{0, 0.10, 0.20}
	}
	for _, f := range []struct {
		name string
		frac float64
	}{{"LogFrac", fc.LogFrac}, {"RestartFrac", fc.RestartFrac}, {"ChaosFrac", fc.ChaosFrac}, {"ScenarioFrac", fc.ScenarioFrac}} {
		if !(f.frac >= 0 && f.frac <= 1) {
			return fmt.Errorf("fastba: fuzz %s %v outside [0, 1]", f.name, f.frac)
		}
	}
	return nil
}

// FuzzResult summarizes a campaign.
type FuzzResult struct {
	// Executed counts the sampled cases that ran.
	Executed int `json:"executed"`
	// Failures holds one shrunk reproducer per oracle-violating case.
	Failures []FuzzFailure `json:"failures,omitempty"`
	// ProbabilisticMisses counts termination-only findings whose fault-free
	// twin (same case, zero plan) also leaves stragglers: w.h.p. misses,
	// not failures. Safety violations are never downgraded this way.
	ProbabilisticMisses int `json:"probabilisticMisses,omitempty"`
	// Persisted lists the failure files written to PersistDir.
	Persisted []string `json:"persisted,omitempty"`
}

// OK reports whether the campaign found no violation.
func (r *FuzzResult) OK() bool { return len(r.Failures) == 0 }

// SimFuzz runs a campaign: sample case i from (Seed, i), replay it, and
// shrink (and, with PersistDir, persist) every violating case, until the
// Runs or Budget bound or ctx ends it. The error reports infrastructure
// problems; oracle findings land in FuzzResult.Failures.
func SimFuzz(ctx context.Context, fc FuzzConfig) (*FuzzResult, error) {
	if err := fc.defaults(); err != nil {
		return nil, err
	}
	res := &FuzzResult{}
	deadline := time.Now().Add(fc.Budget)
	for i := 0; (fc.Runs <= 0 || i < fc.Runs) && (fc.Budget <= 0 || time.Now().Before(deadline)); i++ {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		c := sampleCase(fc, i)
		run, err := ReplayCase(c)
		if err != nil {
			return res, fmt.Errorf("fastba: fuzz case %d (%s): %w", i, c, err)
		}
		res.Executed++
		if fc.OnRun != nil {
			fc.OnRun(run)
		}
		if run.Report.OK() {
			continue
		}
		if terminationOnly(run.Report) {
			twin := c
			twin.Plan = FaultPlan{}
			twinRun, err := ReplayCase(twin)
			if err == nil && !twinRun.Report.OK() && terminationOnly(twinRun.Report) {
				res.ProbabilisticMisses++
				continue
			}
		}
		shrunk, shrunkRun := shrinkCase(c, run)
		failure := FuzzFailure{Case: shrunk, Original: c, Violations: shrunkRun.Report.Violations, Digest: shrunkRun.Digest}
		res.Failures = append(res.Failures, failure)
		if fc.PersistDir != "" {
			path, err := persistFailure(fc.PersistDir, failure)
			if err != nil {
				return res, err
			}
			res.Persisted = append(res.Persisted, path)
		}
	}
	return res, nil
}

// terminationOnly reports whether the report has only termination findings.
func terminationOnly(rep OracleReport) bool {
	return len(rep.Violations) > 0 &&
		!slices.ContainsFunc(rep.Violations, func(v Violation) bool { return v.Oracle != OracleTermination })
}

// on flips a coin that lands true with probability frac. A frac of 0
// consumes no draw: a family turned off leaves the stream untouched.
func on(src *prng.Source, frac float64) bool {
	return frac > 0 && src.Float64() < frac
}

// sampleCase derives case i of the campaign, a pure function of (fc.Seed, i).
func sampleCase(fc FuzzConfig, i int) FuzzCase {
	src := prng.New(prng.DeriveKey(fc.Seed, "simfuzz/case", uint64(i)))
	n := fc.Ns[src.Intn(len(fc.Ns))]
	c, family := FuzzCase{}, ""
	switch {
	case on(src, fc.LogFrac):
		c, family = sampleLogCase(fc, src, n)
	case on(src, fc.ScenarioFrac):
		c, family = sampleScenarioCase(fc, src, n), " (scenario family)"
	default:
		c = FuzzCase{
			N:           n,
			Seed:        src.Uint64()>>1 | 1, // non-zero run seed
			Model:       fc.Models[src.Intn(len(fc.Models))].String(),
			Adversary:   fc.Adversaries[src.Intn(len(fc.Adversaries))],
			CorruptFrac: fc.CorruptFracs[src.Intn(len(fc.CorruptFracs))],
			KnowFrac:    fc.KnowFracs[src.Intn(len(fc.KnowFracs))],
			Plan:        samplePlan(src, n, singleShotPlan),
		}
	}
	c.Note = fmt.Sprintf("sampled: campaign seed %d, case %d%s", fc.Seed, i, family)
	return c
}

// sampleLogCase draws a short pipelined log with fail-silent corruption,
// full knowledge and a lossless plan — the envelope in which replay
// digests are exact — and the family's note suffix.
func sampleLogCase(fc FuzzConfig, src *prng.Source, n int) (FuzzCase, string) {
	c := FuzzCase{N: n, KnowFrac: 1, Plan: samplePlan(src, n, logPlan)}
	if src.Bool() {
		c.CorruptFrac = 0.1
	}
	c.Seed = src.Uint64()>>1 | 1
	c.Log = &LogFuzz{Entries: 2 + src.Intn(4), Depth: 1 + src.Intn(4), Batch: 1 + src.Intn(3), PayloadBytes: 8 << src.Intn(4)}
	if on(src, fc.RestartFrac) {
		c.Log.RestartAfter = 1 + src.Intn(c.Log.Entries-1)
		return c, " (log restart family)"
	}
	// Chaos and restart stay disjoint — one hostile dimension per case
	// keeps shrinking meaningful.
	if on(src, fc.ChaosFrac) {
		c.Chaos = &ChaosFuzz{Seed: src.Uint64(), Strikes: 1 + src.Intn(8), IntervalMs: 5 + src.Intn(16)}
		return c, " (log chaos family)"
	}
	return c, " (log family)"
}

// sampleScenarioCase draws a single-shot case over a network scenario: a
// ring or Watts–Strogatz topology, latency and loss models, the gossip
// relay, and for a third of the cases an adaptive adversary. The plan stays
// lossless; loss enters through the scenario's link model only.
func sampleScenarioCase(fc FuzzConfig, src *prng.Source, n int) FuzzCase {
	plan := samplePlan(src, n, scenarioPlan)
	sc := Scenario{Topology: TopologyRing}
	if src.Bool() {
		sc.Topology = TopologyWS
		sc.Degree = 4 + 2*src.Intn(2)
		sc.Rewire = src.Float64() * 0.5
	}
	if src.Bool() {
		sc.ZipfS = 0.5 + src.Float64()
	}
	switch src.Intn(4) {
	case 1:
		sc.Latency = LatencyFixed
		sc.BaseDelay = 1 + src.Intn(3)
	case 2:
		sc.Latency = LatencyUniform
		sc.BaseDelay = src.Intn(2)
		sc.MaxDelay = sc.BaseDelay + 1 + src.Intn(4)
	case 3:
		sc.Latency = LatencyLongTail
		sc.BaseDelay = src.Intn(2)
		sc.TailProb = src.Float64() * 0.2
		sc.TailDelay = 2 + src.Intn(6)
	}
	if on(src, 0.3) {
		sc.Loss = src.Float64() * 0.05
	}
	sc.Fanout = 2 + src.Intn(2)
	adversary := fc.Adversaries[src.Intn(len(fc.Adversaries))]
	corrupt := fc.CorruptFracs[src.Intn(len(fc.CorruptFracs))]
	if on(src, 1.0/3) {
		adversary = []string{AdversaryAdaptiveDegree, AdversaryAdaptiveTraffic, AdversaryAdaptiveOblivious}[src.Intn(3)]
		corrupt = 0.1
		sc.TriggerAt = src.Intn(5)
	}
	return FuzzCase{
		N:           n,
		Seed:        src.Uint64()>>1 | 1,
		Model:       fc.Models[src.Intn(len(fc.Models))].String(),
		Adversary:   adversary,
		CorruptFrac: corrupt,
		KnowFrac:    fc.KnowFracs[src.Intn(len(fc.KnowFracs))],
		Plan:        plan,
		Scenario:    &sc,
	}
}

// planShape is one family's fault-plan distribution: the chance of a dup
// and of a delay knob, the delay bound, and the share of lossless plans (1:
// all, without a draw); the rest add loss, partitions and crashes.
type planShape struct {
	dup, delay float64
	maxDelay   int
	lossless   float64
}

var (
	// About a third of single-shot plans are lossless, so the termination
	// oracle gets real coverage.
	singleShotPlan = planShape{dup: 0.5, delay: 0.6, maxDelay: 6, lossless: 1.0 / 3}
	logPlan        = planShape{dup: 0.6, delay: 0.6, maxDelay: 6, lossless: 1}
	scenarioPlan   = planShape{dup: 0.5, delay: 0.5, maxDelay: 4, lossless: 1}
)

// samplePlan draws a random fault plan of the given shape.
func samplePlan(src *prng.Source, n int, shape planShape) FaultPlan {
	p := FaultPlan{Seed: src.Uint64()}
	if on(src, shape.dup) {
		p.DupProb = src.Float64() * 0.3
	}
	if on(src, shape.delay) {
		p.DelayProb = src.Float64() * 0.5
		p.MaxDelay = 1 + src.Intn(shape.maxDelay)
	}
	if shape.lossless == 1 || on(src, shape.lossless) {
		return p
	}
	if on(src, 0.6) {
		p.DropProb = src.Float64() * 0.25
	}
	for k := src.Intn(3); k > 0; k-- { // 0..2 partitions
		side := 1 + src.Intn(n/2)
		a := src.Perm(n)[:side:side]
		from := src.Intn(8)
		until := 0
		if src.Bool() {
			until = from + 1 + src.Intn(8)
		}
		p.Partitions = append(p.Partitions, Partition{A: a, From: from, Until: until})
	}
	for k := src.Intn(3); k > 0; k-- { // 0..2 crashes
		at := src.Intn(8)
		recover := 0
		if src.Bool() {
			recover = at + 1 + src.Intn(8)
		}
		p.Crashes = append(p.Crashes, Crash{Node: src.Intn(n), At: at, RecoverAt: recover})
	}
	return p
}

// shrinkCase greedily simplifies a violating case: each round restarts
// from the first candidate that still violates (a replay error rejects a
// candidate). Returns the smallest still-violating case found and its run.
func shrinkCase(c FuzzCase, run FuzzRun) (FuzzCase, FuzzRun) {
	best, bestRun := c, run
	for rounds, improved := 0, true; improved && rounds < 8; rounds++ {
		improved = false
		for _, candidate := range shrinkCandidates(best) {
			if crun, err := ReplayCase(candidate); err == nil && !crun.Report.OK() {
				best, bestRun, improved = candidate, crun, true
				break // restart candidate generation from the smaller case
			}
		}
	}
	best.Note = fmt.Sprintf("shrunk from: %s", c.Note)
	return best, bestRun
}

// shrinkEdit is one simplification: whether it applies, and the change.
type shrinkEdit struct {
	applies bool
	edit    func(v *FuzzCase)
}

// shrinkCandidates proposes strictly simpler variants of a case, most
// aggressive first: every edit that applies, each on its own c.clone().
func shrinkCandidates(c FuzzCase) []FuzzCase {
	lf, cf, sc, p := orZero(c.Log), orZero(c.Chaos), orZero(c.Scenario), c.Plan
	// entries shortens the log, clamping RestartAfter below it (0: no restart).
	entries := func(e int) func(*FuzzCase) {
		return func(v *FuzzCase) { v.Log.Entries, v.Log.RestartAfter = e, min(v.Log.RestartAfter, e-1) }
	}
	edits := []shrinkEdit{
		// A shorter, shallower, thinner log beats any fault-plan change.
		{lf.RestartAfter > 0, func(v *FuzzCase) { v.Log.RestartAfter = 0 }},
		{lf.Entries > 1, entries(1)},
		{lf.Entries > 2, entries(lf.Entries / 2)},
		{lf.Depth > 1, func(v *FuzzCase) { v.Log.Depth = 1 }},
		{lf.Batch > 1, func(v *FuzzCase) { v.Log.Batch = 1 }},
		// Chaos: none (the fabric family), fewer strikes, the plainest kind.
		{c.Chaos != nil, func(v *FuzzCase) { v.Chaos = nil }},
		{cf.Sweep, func(v *FuzzCase) { v.Chaos.Sweep, v.Chaos.Strikes = false, 4 }},
		{cf.Strikes > 1, func(v *FuzzCase) { v.Chaos.Strikes /= 2 }},
		{c.Chaos != nil && !slices.Equal(cf.Kinds, []string{"close"}), func(v *FuzzCase) { v.Chaos.Kinds = []string{"close"} }},
		// Scenario: none at all (taking an adaptive adversary with it), then
		// a full mesh, no loss, no latency model, no rewiring, no Zipf skew.
		{c.Scenario != nil, func(v *FuzzCase) {
			v.Scenario = nil
			if adaptiveKind(v.Adversary) != "" {
				v.Adversary = "silent"
			}
		}},
		{sc.Topology != "" && sc.Topology != TopologyFull, func(v *FuzzCase) {
			v.Scenario.Topology, v.Scenario.Degree, v.Scenario.Rewire = TopologyFull, 0, 0
		}},
		{sc.Loss > 0, func(v *FuzzCase) { v.Scenario.Loss = 0 }},
		{sc.Latency != "", func(v *FuzzCase) {
			s := v.Scenario
			s.Latency, s.BaseDelay, s.MaxDelay, s.TailProb, s.TailDelay = "", 0, 0, 0, 0
		}},
		{sc.Rewire > 0, func(v *FuzzCase) { v.Scenario.Rewire = 0 }},
		{sc.ZipfS > 0, func(v *FuzzCase) { v.Scenario.ZipfS = 0 }},
		// Fault plan: clear whole dimensions, then drop single partitions
		// and crashes, then halve the drop rate and the delay bound.
		{p.DropProb > 0, func(v *FuzzCase) { v.Plan.DropProb = 0 }},
		{p.DupProb > 0, func(v *FuzzCase) { v.Plan.DupProb = 0 }},
		{p.DelayProb > 0, func(v *FuzzCase) { v.Plan.DelayProb, v.Plan.MaxDelay = 0, 0 }},
		{len(p.Partitions) > 0, func(v *FuzzCase) { v.Plan.Partitions = nil }},
		{len(p.Crashes) > 0, func(v *FuzzCase) { v.Plan.Crashes = nil }},
	}
	for i := range p.Partitions {
		i := i
		edits = append(edits, shrinkEdit{len(p.Partitions) > 1, func(v *FuzzCase) { v.Plan.Partitions = slices.Delete(v.Plan.Partitions, i, i+1) }})
	}
	for i := range p.Crashes {
		i := i
		edits = append(edits, shrinkEdit{len(p.Crashes) > 1, func(v *FuzzCase) { v.Plan.Crashes = slices.Delete(v.Plan.Crashes, i, i+1) }})
	}
	edits = append(edits,
		shrinkEdit{p.DropProb > 0.02, func(v *FuzzCase) { v.Plan.DropProb /= 2 }},
		shrinkEdit{p.MaxDelay > 1, func(v *FuzzCase) { v.Plan.MaxDelay /= 2 }},
		// Beyond the plan: the fault-free variant separates "faults did it"
		// from "violates on a clean network too", and the weakest adversary
		// isolates faults from Byzantine behaviour. ("none" is excluded: it
		// forces zero corruption, so "silent" would be MORE hostile.)
		shrinkEdit{!p.IsZero(), func(v *FuzzCase) { v.Plan = FaultPlan{} }},
		shrinkEdit{c.Log == nil && c.Adversary != "silent" && c.Adversary != "none" && c.CorruptFrac > 0,
			func(v *FuzzCase) { v.Adversary = "silent" }},
		// Log cases are fail-silent already: their adversary shrink is no corruption.
		shrinkEdit{c.Log != nil && c.CorruptFrac > 0, func(v *FuzzCase) { v.CorruptFrac = 0 }},
	)
	var out []FuzzCase
	for _, e := range edits {
		if e.applies {
			v := c.clone()
			e.edit(&v)
			out = append(out, v)
		}
	}
	return out
}

// orZero dereferences p, or returns the zero T for nil.
func orZero[T any](p *T) T {
	if p == nil {
		var zero T
		return zero
	}
	return *p
}

// persistFailure writes one failure as indented JSON into dir, named by
// its digest prefix.
func persistFailure(dir string, f FuzzFailure) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("fail_%s.json", f.Digest[:12]))
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// LoadFuzzCase reads one corpus file: either a bare FuzzCase or a
// persisted FuzzFailure (whose shrunk Case is taken).
func LoadFuzzCase(path string) (FuzzCase, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return FuzzCase{}, err
	}
	var file struct {
		FuzzCase
		Case *FuzzCase `json:"case"` // set in a FuzzFailure file
	}
	if err := json.Unmarshal(data, &file); err != nil {
		return FuzzCase{}, fmt.Errorf("fastba: corpus file %s: %w", path, err)
	}
	if file.Case != nil {
		return *file.Case, nil
	}
	return file.FuzzCase, nil
}

// ReplayCorpus replays every *.json case under dir (sorted by name) and
// returns the runs in order plus the cases whose oracles now fail. A
// missing directory is an error; an empty one is not.
func ReplayCorpus(dir string) ([]FuzzRun, []FuzzFailure, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, nil, err
	}
	if _, err := os.Stat(dir); err != nil {
		return nil, nil, err
	}
	sort.Strings(paths)
	var runs []FuzzRun
	var failures []FuzzFailure
	for _, path := range paths {
		c, err := LoadFuzzCase(path)
		if err != nil {
			return runs, failures, err
		}
		run, err := ReplayCase(c)
		if err != nil {
			return runs, failures, fmt.Errorf("fastba: corpus case %s: %w", path, err)
		}
		runs = append(runs, run)
		if !run.Report.OK() {
			failures = append(failures, FuzzFailure{Case: c, Original: c, Violations: run.Report.Violations, Digest: run.Digest})
		}
	}
	return runs, failures, nil
}
