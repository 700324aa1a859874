package fastba

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Protocol-invariant oracles. Each oracle states one guarantee the paper
// proves about AER and checks it on a finished run; together they separate
// "the network was hostile" from "the protocol is broken". Safety oracles
// (agreement, validity, certificates, single-decision) are checked under
// EVERY fault plan — no schedule of drops, duplicates, delays, partitions
// or crashes excuses a safety violation, because a correct node only
// decides on a strict answer majority of its authoritative poll list
// (Algorithm 1) and faults can only remove or repeat messages, never forge
// them. The termination oracle is different: it restates Lemmas 9/10,
// which assume reliable channels, so it applies only to lossless plans
// (delay, duplication and reordering — no drops, partitions or crashes).
const (
	// OracleAgreement: no two correct nodes decide different values
	// (Lemma 7 / the Agreement property of §2.1).
	OracleAgreement = "agreement"
	// OracleValidity: a correct node only ever decides gstring. Sound
	// when the almost-everywhere precondition holds (≥ 3/4 of correct
	// nodes start knowing gstring, §3.1); skipped below it, where a junk
	// majority is legitimately possible.
	OracleValidity = "validity"
	// OracleCertificates: every decision is backed by a re-derived quorum
	// certificate — a strict majority of the decider's authoritative poll
	// list J(x, r) recorded as answerers (Node.DecisionCert re-validates
	// membership against the shared sampler, independently of the
	// delivery-path checks).
	OracleCertificates = "certificates"
	// OracleSingleDecision: the decision-event stream is consistent with
	// the end state — exactly one decision event per decider (decisions are
	// irrevocable): no node emits two, no node the end state says never
	// decided emits one, and no decider is missing from the stream. Needs
	// the Oracles' Observer attached; every model streams decision events.
	OracleSingleDecision = "single-decision"
	// OracleTermination: every correct node decides. Applies only to
	// lossless fault plans; under lossy plans it is reported as skipped.
	// (No separate round-bound check: the synchronous runner caps
	// execution at MaxRounds by construction, so full decision within the
	// run is the bound.)
	OracleTermination = "termination"

	// Cross-instance decision-log oracles (CheckLogInvariants). Like the
	// single-shot safety oracles they hold under EVERY fault plan: faults
	// can stall instances or silence nodes, but a committed entry must
	// still be gap-free in sequence, agreed by its deciders, and backed by
	// re-derivable certificates.

	// OracleLogGapFree: committed sequence numbers are contiguous from 0 —
	// the in-order commit rule admits no holes.
	OracleLogGapFree = "log-gap-free"
	// OracleLogAgreement: within every committed instance, all correct
	// deciders decided the same value (the per-instance agreement
	// guarantee, lifted to the log).
	OracleLogAgreement = "log-agreement"
	// OracleLogCertificates: every decider of every committed instance
	// holds a re-derived strict poll-list majority certificate.
	OracleLogCertificates = "log-certificates"
	// OracleLogValidity: every committed value is the proposed batch
	// digest. Sound under the a.e. precondition (knowFrac ≥ 3/4);
	// skipped below it.
	OracleLogValidity = "log-validity"
	// OracleLogDurability: across a crash and restart, no committed entry
	// may regress — the post-restart log must extend the pre-crash
	// committed prefix, entry for entry (CheckLogDurability). This is the
	// store's contract: an entry surfaces only after it is persisted, so a
	// restart recovers at least everything any client observed.
	OracleLogDurability = "log-durability"
)

// Violation is one oracle finding on one run.
type Violation struct {
	// Oracle is the violated invariant's name (the Oracle* constants).
	Oracle string `json:"oracle"`
	// Detail describes the concrete violation.
	Detail string `json:"detail"`
}

// String implements fmt.Stringer.
func (v Violation) String() string { return v.Oracle + ": " + v.Detail }

// OracleReport is the verdict of all oracles on one run.
type OracleReport struct {
	// Checked lists the oracles that were evaluated, sorted.
	Checked []string `json:"checked"`
	// Skipped maps each non-applicable oracle to the reason it was not
	// evaluated (e.g. termination under a lossy plan).
	Skipped map[string]string `json:"skipped,omitempty"`
	// Violations holds the findings; empty means every checked invariant
	// held.
	Violations []Violation `json:"violations,omitempty"`
}

// OK reports whether every checked invariant held.
func (r OracleReport) OK() bool { return len(r.Violations) == 0 }

// Strings renders the violations as "oracle: detail" lines.
func (r OracleReport) Strings() []string {
	out := make([]string, len(r.Violations))
	for i, v := range r.Violations {
		out[i] = v.String()
	}
	return out
}

// String summarizes the report on one line.
func (r OracleReport) String() string {
	if r.OK() {
		return fmt.Sprintf("ok (%s)", strings.Join(r.Checked, ", "))
	}
	return strings.Join(r.Strings(), "; ")
}

// Oracles checks the protocol invariants on one run. Build one per run
// with NewOracles, optionally attach its Observer (through WithObserver)
// to stream-check decision events mid-run, and call Report with the run's
// result to obtain the verdict.
//
// The stream hook and the final check are complementary: the observer
// sees the execution as it happened, and Report cross-checks the two
// views (a node emitting two decision events, decision events for nodes
// the end state says never decided, deciders the stream lost) besides
// re-deriving the end-state invariants from node state — so oracles
// remain fully usable without an observer, which is how RunSuite applies
// them to every sweep cell.
type Oracles struct {
	n        int
	knowFrac float64
	plan     FaultPlan
	// scenarioLossy records that the run's scenario carries a link-loss
	// model, and adaptive that an adaptive adversary silences live nodes
	// mid-run — either one destroys messages, so the termination oracle
	// (which assumes reliable channels) is skipped exactly as for lossy
	// fault plans.
	scenarioLossy bool
	adaptive      bool
	// suiteMode skips the termination oracle: sweeps report liveness as
	// the cell's agreement rate (termination is a w.h.p. guarantee, not a
	// per-seed one), so only safety findings count as violations there.
	suiteMode bool
	// attached records that the stream hook was handed out, so Report can
	// distinguish "no observer" from "observer saw no decisions".
	attached bool

	mu        sync.Mutex
	decisions map[NodeID]int
	streamed  []Violation
}

// NewOracles builds the oracle set for one run of the given configuration.
func NewOracles(cfg Config) *Oracles {
	o := &Oracles{
		n:         cfg.n,
		knowFrac:  cfg.knowFrac,
		plan:      cfg.faults,
		adaptive:  adaptiveKind(cfg.advName) != "" && cfg.corruptFrac > 0,
		decisions: make(map[NodeID]int),
	}
	if cfg.scenario != nil {
		o.scenarioLossy = cfg.scenario.Loss > 0
	}
	return o
}

// aePrecondition reports whether the almost-everywhere precondition of
// §3.1 holds: at least 3/4 of correct nodes start out knowing gstring.
func (o *Oracles) aePrecondition() bool { return o.knowFrac >= 0.75 }

// Observer returns the stream hook: it watches EventDecision events and
// records single-decision violations live. Attach it with WithObserver;
// it is safe for the concurrent runtimes (which fan buffered events in at
// quiescence).
func (o *Oracles) Observer() Observer {
	o.attached = true
	return func(ev Event) {
		if ev.Type != EventDecision {
			return
		}
		o.mu.Lock()
		o.decisions[ev.To]++
		if n := o.decisions[ev.To]; n == 2 { // report once per node
			o.streamed = append(o.streamed, Violation{
				Oracle: OracleSingleDecision,
				Detail: fmt.Sprintf("node %d emitted a second decision event at time %d", ev.To, ev.Time),
			})
		}
		o.mu.Unlock()
	}
}

// Report evaluates every applicable oracle against the finished run and
// any stream observations, and returns the verdict.
func (o *Oracles) Report(res *AERResult) OracleReport {
	rep := OracleReport{Skipped: map[string]string{}}
	checked := map[string]bool{}
	check := func(name string, violated bool, detail string, args ...any) {
		checked[name] = true
		if violated {
			rep.Violations = append(rep.Violations, Violation{Oracle: name, Detail: fmt.Sprintf(detail, args...)})
		}
	}

	check(OracleAgreement, res.DistinctDecisions > 1,
		"%d distinct values decided by correct nodes (%d on gstring, %d on other values)",
		res.DistinctDecisions, res.DecidedGString, res.DecidedOther)

	if o.aePrecondition() {
		check(OracleValidity, res.DecidedOther > 0,
			"%d correct nodes decided a non-gstring value despite the a.e. precondition (knowFrac=%.2f)",
			res.DecidedOther, o.knowFrac)
	} else {
		rep.Skipped[OracleValidity] = fmt.Sprintf("knowFrac %.2f below the 3/4 a.e. precondition", o.knowFrac)
	}

	check(OracleCertificates, res.CertDeficits > 0,
		"%d deciders hold no strict poll-list majority certificate for their decision",
		res.CertDeficits)

	o.mu.Lock()
	streamed := append([]Violation(nil), o.streamed...)
	deciders := len(o.decisions)
	o.mu.Unlock()
	if o.attached {
		checked[OracleSingleDecision] = true
		rep.Violations = append(rep.Violations, streamed...)
		// Stream/state consistency: every runtime emits one decision event
		// per decider, so any difference is a finding.
		if deciders > res.Decided {
			check(OracleSingleDecision, true,
				"decision events for %d nodes but the end state records only %d deciders", deciders, res.Decided)
		} else if deciders < res.Decided {
			check(OracleSingleDecision, true,
				"only %d of %d deciders emitted a decision event — the stream lost decisions", deciders, res.Decided)
		}
	} else {
		rep.Skipped[OracleSingleDecision] = "no observer attached (stream oracle needs WithObserver)"
	}

	if o.suiteMode {
		rep.Skipped[OracleTermination] = "suite mode: liveness is reported as the cell's agreement rate"
	} else if !o.plan.Lossless() {
		rep.Skipped[OracleTermination] = "fault plan can destroy messages (drops, partitions or crashes)"
	} else if o.scenarioLossy {
		rep.Skipped[OracleTermination] = "scenario link model can destroy messages (loss > 0)"
	} else if o.adaptive {
		rep.Skipped[OracleTermination] = "adaptive adversary silences nodes mid-run"
	} else {
		check(OracleTermination, res.Decided < res.Correct,
			"%d of %d correct nodes never decided under a lossless plan",
			res.Correct-res.Decided, res.Correct)
	}

	for name := range checked {
		rep.Checked = append(rep.Checked, name)
	}
	sort.Strings(rep.Checked)
	if len(rep.Skipped) == 0 {
		rep.Skipped = nil
	}
	return rep
}

// CheckLogDurability evaluates the log-durability oracle across a crash
// boundary: before is the committed log observed before the crash (any
// prefix a client saw), after the log recovered on restart. The oracle
// holds iff after extends before — same length or longer, and identical
// on the common prefix (sequence, value, payload count). Violations mean
// the store surfaced a commit it had not made durable.
func CheckLogDurability(before, after []LogEntry) OracleReport {
	rep := OracleReport{Checked: []string{OracleLogDurability}}
	violate := func(detail string, args ...any) {
		rep.Violations = append(rep.Violations, Violation{Oracle: OracleLogDurability, Detail: fmt.Sprintf(detail, args...)})
	}

	if len(after) < len(before) {
		violate("restart regressed the committed log from %d to %d entries", len(before), len(after))
	}
	for i := range before {
		if i >= len(after) {
			break
		}
		b, a := before[i], after[i]
		switch {
		case a.Seq != b.Seq:
			violate("entry %d changed seq across restart: %d before, %d after", i, b.Seq, a.Seq)
		case a.Value != b.Value:
			violate("seq %d changed value across restart: %s before, %s after", b.Seq, b.Value, a.Value)
		case a.PayloadCount != b.PayloadCount:
			violate("seq %d changed payload count across restart: %d before, %d after", b.Seq, b.PayloadCount, a.PayloadCount)
		}
	}
	return rep
}

// CheckInvariants runs the end-state oracles on a finished run without a
// stream hook: the one-call form used by RunSuite (Suite.CheckOracles)
// and the scenario fuzzer's corpus replays.
func CheckInvariants(cfg Config, res *AERResult) OracleReport {
	return NewOracles(cfg).Report(res)
}

// CheckLogInvariants evaluates the cross-instance oracles on a committed
// decision log: sequence contiguity, per-instance decider agreement,
// certificate re-derivability and (under the a.e. precondition) batch-
// digest validity. knowFrac is the log's configured knowledge fraction,
// which gates the validity oracle exactly as in single-shot runs.
func CheckLogInvariants(entries []LogEntry, knowFrac float64) OracleReport {
	rep := OracleReport{Skipped: map[string]string{}}
	checked := map[string]bool{}
	check := func(name string, violated bool, detail string, args ...any) {
		checked[name] = true
		if violated {
			rep.Violations = append(rep.Violations, Violation{Oracle: name, Detail: fmt.Sprintf(detail, args...)})
		}
	}

	checked[OracleLogGapFree] = true
	checked[OracleLogAgreement] = true
	checked[OracleLogCertificates] = true
	validity := knowFrac >= 0.75
	if validity {
		checked[OracleLogValidity] = true
	} else {
		rep.Skipped[OracleLogValidity] = fmt.Sprintf("knowFrac %.2f below the 3/4 a.e. precondition", knowFrac)
	}
	for i, e := range entries {
		check(OracleLogGapFree, e.Seq != uint64(i),
			"entry %d carries seq %d — the committed sequence has a gap or a reorder", i, e.Seq)
		check(OracleLogAgreement, e.DistinctValues > 1,
			"seq %d committed with %d distinct decided values among %d deciders", e.Seq, e.DistinctValues, e.Deciders)
		check(OracleLogCertificates, e.CertDeficits > 0,
			"seq %d has %d deciders without a strict poll-list majority certificate", e.Seq, e.CertDeficits)
		if validity {
			check(OracleLogValidity, !e.MatchesProposal,
				"seq %d committed a value that is not the proposed batch digest", e.Seq)
		}
	}

	for name := range checked {
		rep.Checked = append(rep.Checked, name)
	}
	sort.Strings(rep.Checked)
	if len(rep.Skipped) == 0 {
		rep.Skipped = nil
	}
	return rep
}
