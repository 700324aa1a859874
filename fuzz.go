package fastba

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"github.com/fastba/fastba/internal/prng"
)

// The scenario fuzzer: SimFuzz samples random hostile scenarios —
// a FaultPlan crossed with a system size, timing model, Byzantine
// strategy and population shape — runs each one, and checks the
// protocol-invariant oracles on the outcome. Campaigns are fully
// deterministic: case i of a campaign is a pure function of
// (FuzzConfig.Seed, i), every sampled case runs under a deterministic
// runner, and each run is summarized into a canonical digest — so a
// failing case replays bit-for-bit from its FuzzCase alone, and a fixed
// campaign seed reproduces identical digests across invocations (the
// regression tests lock this).
//
// When a case violates an oracle, the fuzzer shrinks it — greedily
// clearing and simplifying fault-plan dimensions while the violation
// persists — and persists the shrunk reproducer as JSON, ready for
// testdata/fuzz_corpus. The corpus is replayed by cmd/fuzzba (and CI) as
// a regression suite: every committed case must pass its oracles.

// FuzzCase is one fully-specified, reproducible fuzz scenario. It is the
// JSON corpus format of cmd/fuzzba.
type FuzzCase struct {
	// N is the system size.
	N int `json:"n"`
	// Seed is the run's master seed.
	Seed uint64 `json:"seed"`
	// Model is the timing model's String name. Deterministic models only:
	// the fuzzer needs bit-for-bit replays. Ignored for pipelined-log
	// cases (Log != nil), which run on the fabric runtime.
	Model string `json:"model,omitempty"`
	// Adversary is the Byzantine strategy's registry name. Pipelined-log
	// cases support only the log's fail-silent corruption model.
	Adversary string `json:"adversary,omitempty"`
	// CorruptFrac and KnowFrac shape the population.
	CorruptFrac float64 `json:"corruptFrac"`
	KnowFrac    float64 `json:"knowFrac"`
	// Plan is the fault schedule under test.
	Plan FaultPlan `json:"plan"`
	// Scenario, when set, runs the case over a network scenario (see
	// WithScenario): topology + latency/loss model + gossip relay, with
	// the adaptive adversaries admissible as Adversary. Single-shot cases
	// only.
	Scenario *Scenario `json:"scenario,omitempty"`
	// Log, when set, makes this a pipelined decision-log case: a short
	// log with deterministic batches replayed under the plan, judged by
	// the cross-instance oracles.
	Log *LogFuzz `json:"log,omitempty"`
	// Chaos, when set (log cases only), runs the log over the TCP runtime
	// with a live-socket chaos plan severing its real connections. Safety
	// oracles must hold; termination is skipped (chaos is lossy), and the
	// digest basis is the deterministic strike schedule plus the verdicts —
	// never entry counts, which real sockets under chaos do not reproduce.
	Chaos *ChaosFuzz `json:"chaos,omitempty"`
	// Note is free-form provenance ("sampled by campaign seed 7, case 42";
	// "shrunk from ...").
	Note string `json:"note,omitempty"`
}

// LogFuzz shapes a pipelined decision-log fuzz case.
type LogFuzz struct {
	// Entries is the number of deterministic batches appended.
	Entries int `json:"entries"`
	// Depth is the instance pipelining depth.
	Depth int `json:"depth"`
	// Batch is the payload count per batch; PayloadBytes sizes each
	// payload.
	Batch        int `json:"batch"`
	PayloadBytes int `json:"payloadBytes"`
	// RestartAfter, when positive (and < Entries), makes this a durable
	// restart-under-faults case: the log runs with a store, the first
	// RestartAfter entries are appended and awaited, the log hard-crashes
	// and reopens from its store directory (checked by the log-durability
	// oracle), and the remaining entries are appended to the recovered
	// log.
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
	// IntervalMs is the strike cadence in milliseconds (0: the plan
	// default).
	IntervalMs int `json:"intervalMs,omitempty"`
	// Kinds restricts the strike kinds ("close", "halfclose",
	// "blackhole"); empty allows all.
	Kinds []string `json:"kinds,omitempty"`
	// Sweep prioritizes live not-yet-severed links until full coverage.
	Sweep bool `json:"sweep,omitempty"`
}

// plan materializes the corpus form into a runnable ChaosPlan.
func (cf ChaosFuzz) plan() (ChaosPlan, error) {
	p := ChaosPlan{Seed: cf.Seed, Strikes: cf.Strikes, Sweep: cf.Sweep}
	if cf.IntervalMs > 0 {
		p.Interval = time.Duration(cf.IntervalMs) * time.Millisecond
	}
	for _, name := range cf.Kinds {
		k, err := ParseChaosKind(name)
		if err != nil {
			return ChaosPlan{}, err
		}
		p.Kinds = append(p.Kinds, k)
	}
	return p, nil
}

// String renders a compact case label.
func (c FuzzCase) String() string {
	fault := c.Plan.Label()
	if fault == "" {
		fault = "none"
	}
	if c.Log != nil {
		shape := fmt.Sprintf("e=%d,d=%d,b=%d", c.Log.Entries, c.Log.Depth, c.Log.Batch)
		if c.Log.RestartAfter > 0 {
			shape += fmt.Sprintf(",r@%d", c.Log.RestartAfter)
		}
		if c.Chaos != nil {
			shape += fmt.Sprintf(",chaos=%d", c.Chaos.Seed)
		}
		return fmt.Sprintf("n=%d seed=%d log[%s] corrupt=%.2f know=%.2f faults=%s",
			c.N, c.Seed, shape, c.CorruptFrac, c.KnowFrac, fault)
	}
	label := fmt.Sprintf("n=%d seed=%d %s/%s corrupt=%.2f know=%.2f faults=%s",
		c.N, c.Seed, c.Model, c.Adversary, c.CorruptFrac, c.KnowFrac, fault)
	if c.Scenario != nil {
		label += " scenario=" + c.Scenario.Label()
	}
	return label
}

// config materializes the case into a validated-on-use Config.
func (c FuzzCase) config() (Config, error) {
	model, err := ParseModel(c.Model)
	if err != nil {
		return Config{}, err
	}
	if !model.deterministic() {
		return Config{}, fmt.Errorf("fastba: fuzz cases require a deterministic model, have %v", model)
	}
	opts := []Option{
		WithSeed(c.Seed),
		WithModel(model),
		WithAdversaryName(c.Adversary),
		WithCorruptFrac(c.CorruptFrac),
		WithKnowFrac(c.KnowFrac),
		WithFaults(c.Plan),
	}
	if c.Scenario != nil {
		opts = append(opts, WithScenario(*c.Scenario))
	}
	return NewConfig(c.N, opts...), nil
}

// FuzzRun is the outcome of one executed case.
type FuzzRun struct {
	Case FuzzCase `json:"case"`
	// Digest canonically summarizes the run (decisions, traffic, oracle
	// verdicts). Equal cases produce equal digests — the reproducibility
	// contract the regression tests lock.
	Digest string `json:"digest"`
	// Report is the oracle verdict.
	Report OracleReport `json:"report"`
	// Result is the underlying run result (not serialized).
	Result *AERResult `json:"-"`
}

// ReplayCase executes one fuzz case — oracles wired into the run through
// the Observer stream plus the end-state check — and returns the digested
// outcome. It is the unit the fuzzer, the corpus replayer and the
// shrinker all share. Pipelined-log cases replay through the decision log
// instead of a single-shot run.
func ReplayCase(c FuzzCase) (FuzzRun, error) {
	if c.Chaos != nil && c.Log == nil {
		return FuzzRun{}, fmt.Errorf("fastba: chaos fuzz dimension requires a log case (single-shot runs have no long-lived connections)")
	}
	if c.Log != nil {
		return replayLogCase(c)
	}
	cfg, err := c.config()
	if err != nil {
		return FuzzRun{}, err
	}
	oracles := NewOracles(cfg)
	cfg.observer = oracles.Observer()
	res, err := RunAER(cfg)
	if err != nil {
		return FuzzRun{}, err
	}
	report := oracles.Report(res)
	return FuzzRun{Case: c, Digest: runDigest(res, report), Report: report, Result: res}, nil
}

// replayLogCase executes a pipelined decision-log case: Entries
// deterministic batches appended at the case's depth, under the case's
// fault plan and corruption, judged by the cross-instance oracles plus a
// termination check (all planned entries committed — applicable, like the
// single-shot termination oracle, only to lossless plans). The committed
// log and the verdicts are digested; both are pure functions of the case
// for lossless plans, because the committed (seq, value) sequence does not
// depend on delivery order. The families differ only in data:
//
//   - restart (RestartAfter > 0): the log runs with a write-ahead store in
//     a temporary directory; the first RestartAfter entries are appended
//     and awaited (pinning the committed — and therefore persisted —
//     frontier deterministically), the log hard-crashes (no final fsync)
//     and reopens from the store, the recovered prefix is judged by the
//     log-durability oracle, and the remaining entries are appended to the
//     recovered log. The digest basis is identical to the restart-free
//     case's for lossless plans — recovery must be invisible in it.
//   - chaos (Chaos != nil): the batches are appended over the TCP runtime
//     while the chaos controller severs the cluster's real connections on
//     the case's seeded schedule. The supervisors must heal the mesh and
//     the safety oracles must hold on whatever committed; termination is
//     skipped — frames buffered in a severed socket die with it, so
//     entry counts are not reproducible and the digest basis is the strike
//     schedule plus the verdicts (chaosDigest).
func replayLogCase(c FuzzCase) (FuzzRun, error) {
	lf := *c.Log
	if lf.Entries <= 0 || lf.Depth <= 0 || lf.Batch <= 0 || lf.PayloadBytes <= 0 {
		return FuzzRun{}, fmt.Errorf("fastba: malformed log fuzz case: %+v", lf)
	}
	var extra []Option
	digest := logDigest
	lossy := "" // why termination is skipped regardless of the plan
	if c.Chaos != nil {
		if lf.RestartAfter > 0 {
			return FuzzRun{}, fmt.Errorf("fastba: log fuzz case mixes chaos with restart — one hostile dimension per case")
		}
		plan, err := c.Chaos.plan()
		if err != nil {
			return FuzzRun{}, err
		}
		extra = append(extra,
			WithLogRuntime(RuntimeTCP),
			// Commit below full attendance: a node behind a blackholed link
			// must not stall the head instance for the detector's whole window.
			WithLogCommitFraction(0.7),
			// Heal fast at fuzz scale — and never give up: every severed link
			// must come back, or the case wedges until the instance timeout.
			WithReconnect(ReconnectPolicy{Base: 2 * time.Millisecond, Cap: 50 * time.Millisecond, MaxAttempts: -1}),
			WithHeartbeat(HeartbeatPolicy{Every: 20 * time.Millisecond, SuspectAfter: 80 * time.Millisecond}),
			WithChaos(plan),
		)
		digest = func(_ []LogEntry, report OracleReport) string { return chaosDigest(c, plan, report) }
		lossy = "chaos plan severs live sockets (lossy by construction)"
	}
	crashAt := lf.Entries // no restart: one phase appends everything
	if lf.RestartAfter > 0 {
		if lf.RestartAfter >= lf.Entries {
			return FuzzRun{}, fmt.Errorf("fastba: log fuzz case restarts after entry %d of %d — nothing left to append", lf.RestartAfter, lf.Entries)
		}
		dir, err := os.MkdirTemp("", "bastore-fuzz-*")
		if err != nil {
			return FuzzRun{}, err
		}
		defer os.RemoveAll(dir)
		extra = append(extra, WithLogStore(dir))
		crashAt = lf.RestartAfter
	}
	cfg, err := logFuzzConfig(c, lf, extra...)
	if err != nil {
		return FuzzRun{}, err
	}
	ctx := context.Background()
	log, err := OpenLog(ctx, cfg)
	if err != nil {
		return FuzzRun{}, err
	}
	lastSeq, appendErr := appendFuzzBatches(ctx, log, c.Seed, lf, 0, crashAt)
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
			_, appendErr = appendFuzzBatches(ctx, log, c.Seed, lf, crashAt, lf.Entries)
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
	case lossy != "":
		skipTermination(&report, lossy)
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
	return FuzzRun{Case: c, Digest: digest(entries, report), Report: report}, nil
}

// appendFuzzBatches appends batches [from, to) of a log case and returns
// the last assigned sequence number, stopping at the first error.
func appendFuzzBatches(ctx context.Context, log *DecisionLog, seed uint64, lf LogFuzz, from, to int) (uint64, error) {
	var last uint64
	for k := from; k < to; k++ {
		seq, err := log.Append(ctx, logFuzzBatch(seed, lf, k))
		if err != nil {
			return last, err
		}
		last = seq
	}
	return last, nil
}

// skipTermination records why the termination oracle does not apply.
func skipTermination(report *OracleReport, why string) {
	if report.Skipped == nil {
		report.Skipped = map[string]string{}
	}
	report.Skipped[OracleTermination] = why
}

// chaosDigest summarizes a chaos log case: the deterministic strike
// schedule and the oracle verdicts. Committed entry counts are excluded
// by design — real sockets under chaos do not reproduce them — so equal
// digests across replays mean "same schedule, same safety verdict".
func chaosDigest(c FuzzCase, plan ChaosPlan, report OracleReport) string {
	h := sha256.New()
	fmt.Fprintf(h, "chaos seed=%d sweep=%t strikes=%d\n", plan.Seed, plan.Sweep, plan.Strikes)
	for _, s := range ChaosSchedule(plan, c.N) {
		fmt.Fprintf(h, "strike kind=%s from=%d to=%d\n", s.Kind, s.From, s.To)
	}
	fmt.Fprintf(h, "oracles checked=%v violations=%v\n", report.Checked, report.Strings())
	return fmt.Sprintf("%x", h.Sum(nil))
}

// logFuzzConfig builds the validated Config a pipelined-log case runs
// under.
func logFuzzConfig(c FuzzCase, lf LogFuzz, extra ...Option) (Config, error) {
	opts := append([]Option{
		WithSeed(c.Seed),
		WithCorruptFrac(c.CorruptFrac),
		WithKnowFrac(c.KnowFrac),
		WithFaults(c.Plan),
		WithLogDepth(lf.Depth),
		WithLogInstanceTimeout(30 * time.Second),
	}, extra...)
	cfg := NewConfig(c.N, opts...)
	if err := cfg.validate(); err != nil {
		return Config{}, err
	}
	return cfg, nil
}

// logFuzzBatch derives batch k of a log case — a pure function of
// (seed, k), identical across restarts and runtimes.
func logFuzzBatch(seed uint64, lf LogFuzz, k int) [][]byte {
	batch := make([][]byte, lf.Batch)
	for i := range batch {
		src := prng.New(prng.DeriveKey(seed, "fuzz/log/payload", uint64(k)<<16|uint64(i)))
		p := make([]byte, lf.PayloadBytes)
		for j := range p {
			p[j] = byte(src.Uint64())
		}
		batch[i] = p
	}
	return batch
}

// logDigest canonically summarizes a committed log and its verdicts.
// Only order-independent fields enter: the committed (seq, value, payload
// count) sequence and the oracle verdicts — never latencies or delivery
// counts, which the concurrent runtime does not reproduce.
func logDigest(entries []LogEntry, report OracleReport) string {
	h := sha256.New()
	fmt.Fprintf(h, "committed=%d\n", len(entries))
	for _, e := range entries {
		fmt.Fprintf(h, "seq=%d value=%s payloads=%d distinct=%d certdef=%d proposal=%t\n",
			e.Seq, e.Value, e.PayloadCount, e.DistinctValues, e.CertDeficits, e.MatchesProposal)
	}
	fmt.Fprintf(h, "oracles checked=%v violations=%v\n", report.Checked, report.Strings())
	return fmt.Sprintf("%x", h.Sum(nil))
}

// runDigest renders the canonical summary of a run and hashes it. Every
// field written here is deterministic under the deterministic runners.
func runDigest(res *AERResult, report OracleReport) string {
	h := sha256.New()
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
	fmt.Fprintf(h, "oracles checked=%v violations=%v\n", report.Checked, report.Strings())
	return fmt.Sprintf("%x", h.Sum(nil))
}

// FuzzFailure is a persisted oracle violation: the shrunk reproducer, the
// originally sampled case it came from, and the findings.
type FuzzFailure struct {
	// Case is the shrunk (minimal found) reproducer.
	Case FuzzCase `json:"case"`
	// Original is the case as sampled, before shrinking.
	Original FuzzCase `json:"original"`
	// Violations are the shrunk case's oracle findings.
	Violations []Violation `json:"violations"`
	// Digest is the shrunk case's run digest.
	Digest string `json:"digest"`
}

// FuzzConfig parameterizes a SimFuzz campaign. The zero value of every
// field has a usable default; at least one of Runs and Budget must bound
// the campaign.
type FuzzConfig struct {
	// Seed keys the campaign: case i is a pure function of (Seed, i).
	Seed uint64
	// Runs bounds the number of sampled cases (0 = unbounded, Budget
	// bounds instead).
	Runs int
	// Budget bounds the campaign's wall-clock time (0 = unbounded, Runs
	// bounds instead). Cases run in deterministic order, so a larger
	// budget strictly extends a smaller one's coverage.
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
	// CorruptFracs are the candidate corruption fractions (default 0,
	// 0.10, 0.20).
	CorruptFracs []float64
	// LogFrac is the fraction of sampled cases drawn from the
	// pipelined-log family (default 0 — off, keeping legacy campaign
	// digests stable): short decision logs (2–5 entries, depth 1–4) on
	// the fabric runtime with fail-silent corruption and lossless fault
	// plans (duplication/delay — the envelope in which the committed log
	// is a pure function of the case), judged by the cross-instance
	// oracles.
	LogFrac float64
	// RestartFrac is the fraction of log-family cases that run durable
	// with a mid-log crash and restart (LogFuzz.RestartAfter; default 0 —
	// off, keeping existing campaign digests stable). Only meaningful
	// when LogFrac > 0.
	RestartFrac float64
	// ChaosFrac is the fraction of non-restart log-family cases that run
	// over the TCP runtime under a seeded live-socket chaos plan (default
	// 0 — off, keeping existing campaign digests stable). Only meaningful
	// when LogFrac > 0.
	ChaosFrac float64
	// ScenarioFrac is the fraction of single-shot cases that run over a
	// sampled network scenario — seeded topology (ring/WS, optional Zipf
	// load), latency/loss model, gossip relay, and occasionally an
	// adaptive adversary (default 0 — off, keeping existing campaign
	// digests stable).
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
		fc.Adversaries = []string{
			"none", "silent", "flood", "equivocate", "corner", "corner-rushing",
			"flood-then-silent", "equivocate-then-silent",
		}
	}
	if len(fc.KnowFracs) == 0 {
		fc.KnowFracs = []float64{0.85, 1.0}
	}
	if len(fc.CorruptFracs) == 0 {
		fc.CorruptFracs = []float64{0, 0.10, 0.20}
	}
	if fc.LogFrac < 0 || fc.LogFrac > 1 {
		return fmt.Errorf("fastba: fuzz LogFrac %v outside [0, 1]", fc.LogFrac)
	}
	if fc.RestartFrac < 0 || fc.RestartFrac > 1 {
		return fmt.Errorf("fastba: fuzz RestartFrac %v outside [0, 1]", fc.RestartFrac)
	}
	if fc.ChaosFrac < 0 || fc.ChaosFrac > 1 {
		return fmt.Errorf("fastba: fuzz ChaosFrac %v outside [0, 1]", fc.ChaosFrac)
	}
	if fc.ScenarioFrac < 0 || fc.ScenarioFrac > 1 {
		return fmt.Errorf("fastba: fuzz ScenarioFrac %v outside [0, 1]", fc.ScenarioFrac)
	}
	return nil
}

// FuzzResult summarizes a campaign.
type FuzzResult struct {
	// Executed counts the sampled cases that ran.
	Executed int `json:"executed"`
	// Failures holds one shrunk reproducer per oracle-violating case.
	Failures []FuzzFailure `json:"failures,omitempty"`
	// ProbabilisticMisses counts termination-only findings whose
	// fault-free twin (same case, zero plan) also fails to fully decide:
	// the protocol's guarantees are w.h.p., so at fuzzing sizes some seeds
	// legitimately leave nodes undecided even on a clean network. Those
	// are not fault-injection findings and are not treated as failures —
	// only faults that destroy liveness a clean run had are. Safety
	// violations are never downgraded this way.
	ProbabilisticMisses int `json:"probabilisticMisses,omitempty"`
	// Persisted lists the failure files written to PersistDir.
	Persisted []string `json:"persisted,omitempty"`
}

// OK reports whether the campaign found no violation.
func (r *FuzzResult) OK() bool { return len(r.Failures) == 0 }

// SimFuzz runs a fuzz campaign: sample case i from (Seed, i), execute it
// under its deterministic runner with the oracles attached, and on any
// violation shrink the case to a minimal reproducer and (when PersistDir
// is set) persist it. The campaign stops at the Runs bound, the Budget
// bound, or ctx cancellation — whichever comes first; the error reports
// infrastructure problems (invalid campaign, unwritable PersistDir), not
// oracle findings, which land in FuzzResult.Failures.
func SimFuzz(ctx context.Context, fc FuzzConfig) (*FuzzResult, error) {
	if err := fc.defaults(); err != nil {
		return nil, err
	}
	res := &FuzzResult{}
	var deadline time.Time
	if fc.Budget > 0 {
		deadline = time.Now().Add(fc.Budget)
	}
	for i := 0; ; i++ {
		if fc.Runs > 0 && i >= fc.Runs {
			break
		}
		if fc.Budget > 0 && !time.Now().Before(deadline) {
			break
		}
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
		failure := FuzzFailure{
			Case:       shrunk,
			Original:   c,
			Violations: shrunkRun.Report.Violations,
			Digest:     shrunkRun.Digest,
		}
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

// terminationOnly reports whether every violation in the report is a
// termination finding.
func terminationOnly(rep OracleReport) bool {
	if len(rep.Violations) == 0 {
		return false
	}
	for _, v := range rep.Violations {
		if v.Oracle != OracleTermination {
			return false
		}
	}
	return true
}

// sampleCase derives case i of the campaign — a pure function of
// (fc.Seed, i), independent of every other case.
func sampleCase(fc FuzzConfig, i int) FuzzCase {
	src := prng.New(prng.DeriveKey(fc.Seed, "simfuzz/case", uint64(i)))
	n := fc.Ns[src.Intn(len(fc.Ns))]
	if fc.LogFrac > 0 && src.Float64() < fc.LogFrac {
		return sampleLogCase(fc, src, n, i)
	}
	// The ScenarioFrac draw only happens when the family is enabled, so
	// ScenarioFrac 0 campaigns consume exactly the historical PRNG stream
	// and keep sampling the same cases.
	if fc.ScenarioFrac > 0 && src.Float64() < fc.ScenarioFrac {
		return sampleScenarioCase(fc, src, n, i)
	}
	c := FuzzCase{
		N:           n,
		Seed:        src.Uint64()>>1 | 1, // non-zero run seed
		Model:       fc.Models[src.Intn(len(fc.Models))].String(),
		Adversary:   fc.Adversaries[src.Intn(len(fc.Adversaries))],
		CorruptFrac: fc.CorruptFracs[src.Intn(len(fc.CorruptFracs))],
		KnowFrac:    fc.KnowFracs[src.Intn(len(fc.KnowFracs))],
		Plan:        samplePlan(src, n),
		Note:        fmt.Sprintf("sampled: campaign seed %d, case %d", fc.Seed, i),
	}
	return c
}

// sampleLogCase draws a pipelined-log case: short logs at depth 1–4 with
// small deterministic batches, fail-silent corruption, full knowledge and
// a lossless plan — the envelope in which replay digests are exact.
func sampleLogCase(fc FuzzConfig, src *prng.Source, n, i int) FuzzCase {
	plan := FaultPlan{Seed: src.Uint64()}
	if src.Float64() < 0.6 {
		plan.DupProb = src.Float64() * 0.3
	}
	if src.Float64() < 0.6 {
		plan.DelayProb = src.Float64() * 0.5
		plan.MaxDelay = 1 + src.Intn(6)
	}
	corrupt := 0.0
	if src.Bool() {
		corrupt = 0.1
	}
	seed := src.Uint64()>>1 | 1
	lf := &LogFuzz{
		Entries:      2 + src.Intn(4),
		Depth:        1 + src.Intn(4),
		Batch:        1 + src.Intn(3),
		PayloadBytes: 8 << src.Intn(4),
	}
	note := fmt.Sprintf("sampled: campaign seed %d, case %d (log family)", fc.Seed, i)
	// The RestartFrac draw only happens when the family is enabled, so
	// RestartFrac 0 campaigns consume exactly the historical PRNG stream
	// and keep sampling the same cases.
	if fc.RestartFrac > 0 && src.Float64() < fc.RestartFrac {
		lf.RestartAfter = 1 + src.Intn(lf.Entries-1)
		note = fmt.Sprintf("sampled: campaign seed %d, case %d (log restart family)", fc.Seed, i)
	}
	// Same guard for the chaos draw: ChaosFrac 0 campaigns keep the
	// historical stream untouched. Chaos and restart stay disjoint — one
	// hostile dimension per case keeps shrinking meaningful.
	var chaos *ChaosFuzz
	if fc.ChaosFrac > 0 && lf.RestartAfter == 0 && src.Float64() < fc.ChaosFrac {
		chaos = &ChaosFuzz{
			Seed:       src.Uint64(),
			Strikes:    1 + src.Intn(8),
			IntervalMs: 5 + src.Intn(16),
		}
		note = fmt.Sprintf("sampled: campaign seed %d, case %d (log chaos family)", fc.Seed, i)
	}
	return FuzzCase{
		N:           n,
		Seed:        seed,
		CorruptFrac: corrupt,
		KnowFrac:    1,
		Plan:        plan,
		Log:         lf,
		Chaos:       chaos,
		Note:        note,
	}
}

// sampleScenarioCase draws a single-shot case over a network scenario:
// a ring or Watts–Strogatz topology (optionally Zipf-loaded), a latency
// and/or loss model, the gossip relay, and — for a third of the cases —
// an adaptive adversary triggered early in the run. Fault plans stay in
// the lossless family (duplication/delay); loss enters through the
// scenario's own link model, where the oracles know to skip termination.
func sampleScenarioCase(fc FuzzConfig, src *prng.Source, n, i int) FuzzCase {
	plan := FaultPlan{Seed: src.Uint64()}
	if src.Float64() < 0.5 {
		plan.DupProb = src.Float64() * 0.3
	}
	if src.Float64() < 0.5 {
		plan.DelayProb = src.Float64() * 0.5
		plan.MaxDelay = 1 + src.Intn(4)
	}
	sc := Scenario{}
	if src.Bool() {
		sc.Topology = TopologyWS
		sc.Degree = 4 + 2*src.Intn(2)
		sc.Rewire = src.Float64() * 0.5
	} else {
		sc.Topology = TopologyRing
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
	if src.Float64() < 0.3 {
		sc.Loss = src.Float64() * 0.05
	}
	sc.Fanout = 2 + src.Intn(2)
	adversary := fc.Adversaries[src.Intn(len(fc.Adversaries))]
	corrupt := fc.CorruptFracs[src.Intn(len(fc.CorruptFracs))]
	if src.Float64() < 1.0/3 {
		adversary = []string{
			AdversaryAdaptiveDegree, AdversaryAdaptiveTraffic, AdversaryAdaptiveOblivious,
		}[src.Intn(3)]
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
		Note:        fmt.Sprintf("sampled: campaign seed %d, case %d (scenario family)", fc.Seed, i),
	}
}

// samplePlan draws a random fault plan. Roughly a third of the plans are
// lossless (delay/duplicate/reorder only) so the termination oracle gets
// real coverage; the rest mix message loss, partitions and crashes.
func samplePlan(src *prng.Source, n int) FaultPlan {
	p := FaultPlan{Seed: src.Uint64()}
	if src.Float64() < 0.5 {
		p.DupProb = src.Float64() * 0.3
	}
	if src.Float64() < 0.6 {
		p.DelayProb = src.Float64() * 0.5
		p.MaxDelay = 1 + src.Intn(6)
	}
	if lossless := src.Float64() < 1.0/3; lossless {
		return p
	}
	if src.Float64() < 0.6 {
		p.DropProb = src.Float64() * 0.25
	}
	for k := src.Intn(3); k > 0; k-- { // 0..2 partitions
		side := 1 + src.Intn(n/2)
		perm := src.Perm(n)
		a := make([]NodeID, side)
		copy(a, perm[:side])
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

// shrinkCase greedily simplifies a violating case while the violation
// persists: clear whole fault dimensions, then drop individual partitions
// and crashes, then shorten delays. Each candidate replays the run;
// replay errors just reject the candidate. Returns the smallest still-
// violating case found and its run.
func shrinkCase(c FuzzCase, run FuzzRun) (FuzzCase, FuzzRun) {
	best, bestRun := c, run
	improved := true
	for rounds := 0; improved && rounds < 8; rounds++ {
		improved = false
		for _, candidate := range shrinkCandidates(best) {
			crun, err := ReplayCase(candidate)
			if err != nil || crun.Report.OK() {
				continue
			}
			best, bestRun = candidate, crun
			improved = true
			break // restart candidate generation from the smaller case
		}
	}
	best.Note = fmt.Sprintf("shrunk from: %s", c.Note)
	return best, bestRun
}

// shrinkCandidates proposes strictly simpler variants of a case, most
// aggressive first.
func shrinkCandidates(c FuzzCase) []FuzzCase {
	var out []FuzzCase
	add := func(mut func(*FaultPlan)) {
		v := c
		v.Plan = clonePlan(c.Plan)
		v.Log = cloneLog(c.Log)
		mut(&v.Plan)
		out = append(out, v)
	}
	// Log-dimension shrinks first: a shorter, shallower, thinner log is
	// strictly simpler than any fault-plan change.
	if c.Log != nil {
		addLog := func(mut func(*LogFuzz)) {
			v := c
			v.Plan = clonePlan(c.Plan)
			v.Log = cloneLog(c.Log)
			mut(v.Log)
			out = append(out, v)
		}
		// clampRestart keeps RestartAfter < Entries when Entries shrinks
		// (0 degrades the candidate to the restart-free family, which is
		// strictly simpler).
		clampRestart := func(l *LogFuzz) {
			if l.RestartAfter >= l.Entries {
				l.RestartAfter = l.Entries - 1
			}
		}
		if c.Log.RestartAfter > 0 {
			addLog(func(l *LogFuzz) { l.RestartAfter = 0 })
		}
		if c.Log.Entries > 1 {
			addLog(func(l *LogFuzz) { l.Entries = 1; clampRestart(l) })
			if c.Log.Entries > 2 {
				addLog(func(l *LogFuzz) { l.Entries /= 2; clampRestart(l) })
			}
		}
		if c.Log.Depth > 1 {
			addLog(func(l *LogFuzz) { l.Depth = 1 })
		}
		if c.Log.Batch > 1 {
			addLog(func(l *LogFuzz) { l.Batch = 1 })
		}
	}
	// Chaos-dimension shrinks: no chaos at all (degrading to the fabric
	// family) is strictly simpler; then fewer strikes, then the least
	// exotic strike kind only.
	if c.Chaos != nil {
		addChaos := func(mut func(*FuzzCase)) {
			v := c
			v.Plan = clonePlan(c.Plan)
			v.Log = cloneLog(c.Log)
			v.Chaos = cloneChaos(c.Chaos)
			mut(&v)
			out = append(out, v)
		}
		addChaos(func(v *FuzzCase) { v.Chaos = nil })
		if c.Chaos.Sweep {
			addChaos(func(v *FuzzCase) { v.Chaos.Sweep = false; v.Chaos.Strikes = 4 })
		}
		if c.Chaos.Strikes > 1 {
			addChaos(func(v *FuzzCase) { v.Chaos.Strikes /= 2 })
		}
		if len(c.Chaos.Kinds) != 1 || c.Chaos.Kinds[0] != "close" {
			addChaos(func(v *FuzzCase) { v.Chaos.Kinds = []string{"close"} })
		}
	}
	// Scenario-dimension shrinks: no scenario at all is strictly simpler
	// (an adaptive adversary must shrink with it — it is invalid without
	// one); then a direct full mesh, a lossless link model, no latency
	// model, no rewiring, no Zipf skew.
	if c.Scenario != nil {
		addScen := func(mut func(*FuzzCase)) {
			v := c
			v.Plan = clonePlan(c.Plan)
			v.Log = cloneLog(c.Log)
			sc := *c.Scenario
			v.Scenario = &sc
			mut(&v)
			out = append(out, v)
		}
		addScen(func(v *FuzzCase) {
			v.Scenario = nil
			if adaptiveKind(v.Adversary) != "" {
				v.Adversary = "silent"
			}
		})
		if c.Scenario.Topology != "" && c.Scenario.Topology != TopologyFull {
			addScen(func(v *FuzzCase) { v.Scenario.Topology = TopologyFull; v.Scenario.Degree = 0; v.Scenario.Rewire = 0 })
		}
		if c.Scenario.Loss > 0 {
			addScen(func(v *FuzzCase) { v.Scenario.Loss = 0 })
		}
		if c.Scenario.Latency != "" {
			addScen(func(v *FuzzCase) {
				v.Scenario.Latency = ""
				v.Scenario.BaseDelay, v.Scenario.MaxDelay = 0, 0
				v.Scenario.TailProb, v.Scenario.TailDelay = 0, 0
			})
		}
		if c.Scenario.Rewire > 0 {
			addScen(func(v *FuzzCase) { v.Scenario.Rewire = 0 })
		}
		if c.Scenario.ZipfS > 0 {
			addScen(func(v *FuzzCase) { v.Scenario.ZipfS = 0 })
		}
	}
	if c.Plan.DropProb > 0 {
		add(func(p *FaultPlan) { p.DropProb = 0 })
	}
	if c.Plan.DupProb > 0 {
		add(func(p *FaultPlan) { p.DupProb = 0 })
	}
	if c.Plan.DelayProb > 0 {
		add(func(p *FaultPlan) { p.DelayProb = 0; p.MaxDelay = 0 })
	}
	if len(c.Plan.Partitions) > 0 {
		add(func(p *FaultPlan) { p.Partitions = nil })
	}
	if len(c.Plan.Crashes) > 0 {
		add(func(p *FaultPlan) { p.Crashes = nil })
	}
	for i := range c.Plan.Partitions {
		i := i
		if len(c.Plan.Partitions) > 1 {
			add(func(p *FaultPlan) { p.Partitions = append(p.Partitions[:i:i], p.Partitions[i+1:]...) })
		}
	}
	for i := range c.Plan.Crashes {
		i := i
		if len(c.Plan.Crashes) > 1 {
			add(func(p *FaultPlan) { p.Crashes = append(p.Crashes[:i:i], p.Crashes[i+1:]...) })
		}
	}
	if c.Plan.DropProb > 0.02 {
		add(func(p *FaultPlan) { p.DropProb /= 2 })
	}
	if c.Plan.MaxDelay > 1 {
		add(func(p *FaultPlan) { p.MaxDelay /= 2 })
	}
	// Beyond the plan: a fault-free variant separates "faults did it"
	// from "the scenario violates even on a clean network" (e.g. a
	// protocol mutation), and the weakest adversary isolates faults from
	// Byzantine behaviour.
	if !c.Plan.IsZero() {
		v := c
		v.Plan = FaultPlan{}
		out = append(out, v)
	}
	// ("none" is excluded: it forces zero corruption, so replacing it with
	// "silent" would re-activate the corrupt fraction — a strictly MORE
	// hostile case, not a simpler one.)
	if c.Log == nil && c.Adversary != "silent" && c.Adversary != "none" && c.CorruptFrac > 0 {
		v := c
		v.Adversary = "silent"
		out = append(out, v)
	}
	// Log cases are already fail-silent; dropping corruption entirely is
	// their adversary shrink.
	if c.Log != nil && c.CorruptFrac > 0 {
		v := c
		v.Plan = clonePlan(c.Plan)
		v.Log = cloneLog(c.Log)
		v.CorruptFrac = 0
		out = append(out, v)
	}
	return out
}

func clonePlan(p FaultPlan) FaultPlan {
	p.Partitions = append([]Partition(nil), p.Partitions...)
	p.Crashes = append([]Crash(nil), p.Crashes...)
	return p
}

func cloneLog(l *LogFuzz) *LogFuzz {
	if l == nil {
		return nil
	}
	v := *l
	return &v
}

func cloneChaos(cf *ChaosFuzz) *ChaosFuzz {
	if cf == nil {
		return nil
	}
	v := *cf
	v.Kinds = append([]string(nil), cf.Kinds...)
	return &v
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
	var failure struct {
		Case *FuzzCase `json:"case"`
	}
	if err := json.Unmarshal(data, &failure); err == nil && failure.Case != nil {
		return *failure.Case, nil
	}
	var c FuzzCase
	if err := json.Unmarshal(data, &c); err != nil {
		return FuzzCase{}, fmt.Errorf("fastba: corpus file %s: %w", path, err)
	}
	return c, nil
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
			failures = append(failures, FuzzFailure{
				Case: c, Original: c,
				Violations: run.Report.Violations,
				Digest:     run.Digest,
			})
		}
	}
	return runs, failures, nil
}
