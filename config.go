// Package fastba is a from-scratch Go implementation of "Fast Byzantine
// Agreement" (Braud-Santoni, Guerraoui, Huc — PODC 2013): the AER
// almost-everywhere-to-everywhere agreement protocol (push/pull over
// sampler-defined quorums, Algorithms 1–3 of the paper) and its composition
// with a KSSV06-style almost-everywhere committee protocol into BA, the
// first Byzantine Agreement protocol with poly-logarithmic communication
// and time.
//
// The package simulates the paper's model — a fully connected message-
// passing network of n nodes, authenticated reliable channels, a
// non-adaptive Byzantine adversary controlling t < (1/3−ε)n nodes — under
// synchronous (rushing or non-rushing), asynchronous and goroutine-backed
// runtimes, with per-node communication metering, and can execute the same
// protocol nodes over real loopback TCP sockets (the TCP model).
//
// Quick start — one run:
//
//	res, err := fastba.RunBA(fastba.NewConfig(256, fastba.WithSeed(1)))
//	if err != nil { ... }
//	fmt.Println(res.AER.Agreement, res.GString)
//
// Experiment suites — the paper's claims are sweep-shaped (bits and time
// versus n, seeds, timing models and adversaries), so the package's main
// surface is the declarative Suite: a Sweep expands a matrix of dimensions
// into configurations, RunSuite executes them on a worker pool with
// context cancellation, and the aggregated Report carries per-cell
// means/percentiles, agreement rates and JSON output:
//
//	rep, err := fastba.RunSuite(ctx, fastba.Suite{
//		Name: "scaling",
//		Sweep: fastba.Sweep{
//			Ns:     []int{64, 128, 256},
//			Seeds:  fastba.Seeds(5),
//			Models: []fastba.Model{fastba.SyncNonRushing, fastba.Async},
//		},
//	})
//	rep.Render(os.Stdout)
//
// Extension points — Byzantine strategies and delivery orders plug in
// from outside the module: RegisterAdversary adds a named strategy built
// from public types (ProtocolNode, NodeContext, Message), selectable via
// WithAdversaryName and sweepable via Sweep.Adversaries; WithScheduler
// substitutes a custom asynchronous delivery order; WithObserver streams
// per-delivery, per-round and per-decision events from any runtime.
//
// Everything is deterministic given the configuration's seed, except under
// the Goroutines and TCP models, where scheduling is up to the runtime.
package fastba

import (
	"fmt"
	"time"

	"github.com/fastba/fastba/internal/core"
	"github.com/fastba/fastba/internal/netrun"
	"github.com/fastba/fastba/internal/scenario"
)

// Model selects the network/adversary timing model of §2.1.
type Model int

// Timing models.
const (
	// SyncNonRushing is the synchronous model where the adversary picks
	// its round-r messages independently of correct round-r messages
	// (Lemmas 8–9: constant expected time).
	SyncNonRushing Model = iota + 1
	// SyncRushing lets Byzantine nodes observe the correct nodes' round
	// messages before sending their own (Lemma 6's setting).
	SyncRushing
	// Async delivers messages in seeded-random order; time is causal
	// depth (Lemma 10: O(log n / log log n)).
	Async
	// AsyncAdversarial delivers messages in an adversary-chosen order
	// (Byzantine traffic first) within an eventual-delivery age bound.
	AsyncAdversarial
	// Goroutines runs one goroutine per node over unbounded mailboxes;
	// scheduling is up to the Go runtime, so only outcome properties are
	// deterministic, not traces.
	Goroutines
	// TCP runs the same nodes over real loopback sockets: one listener per
	// node, length-prefixed binary frames, a lazily dialed supervised mesh
	// (WithReconnect, WithHeartbeat, WithChaos tune it). The kernel schedules
	// delivery; bits are framed wire bytes, AERResult.Time is elapsed wall
	// milliseconds and decision times are per-node delivery counts. Custom
	// message types without a wire codec are dropped, and rushing
	// behaviours degrade to their non-rushing form.
	TCP
)

// models lists every Model value, in declaration order.
var models = []Model{SyncNonRushing, SyncRushing, Async, AsyncAdversarial, Goroutines, TCP}

// String implements fmt.Stringer.
func (m Model) String() string {
	switch m {
	case SyncNonRushing:
		return "sync-nonrushing"
	case SyncRushing:
		return "sync-rushing"
	case Async:
		return "async"
	case AsyncAdversarial:
		return "async-adversarial"
	case Goroutines:
		return "goroutines"
	case TCP:
		return "tcp"
	default:
		return fmt.Sprintf("Model(%d)", int(m))
	}
}

// ParseModel maps a model's String name back to its value.
func ParseModel(s string) (Model, error) {
	for _, m := range models {
		if s == m.String() {
			return m, nil
		}
	}
	return 0, fmt.Errorf("fastba: unknown model %q", s)
}

// deterministic reports whether a run under the model replays bit for bit
// from its seed. Goroutines and TCP leave delivery order to the Go scheduler
// and the kernel, so only outcome properties are reproducible there.
func (m Model) deterministic() bool { return m != Goroutines && m != TCP }

// Adversary selects a built-in Byzantine strategy. Every value is also
// registered under its String name, so WithAdversary(AdversaryFlood) and
// WithAdversaryName("flood") are equivalent; custom strategies join the
// same namespace through RegisterAdversary.
type Adversary int

// Byzantine strategies (see internal/adversary for their behaviour).
const (
	// AdversaryNone corrupts nobody (t = 0).
	AdversaryNone Adversary = iota + 1
	// AdversarySilent crashes the corrupted nodes from the start.
	AdversarySilent
	// AdversaryFlood floods the push phase with bogus candidates.
	AdversaryFlood
	// AdversaryEquivocate colludes on a bogus string and pushes
	// per-target variants.
	AdversaryEquivocate
	// AdversaryCorner plays the Lemma 6 answer-budget overload attack.
	AdversaryCorner
	// AdversaryCornerRushing is the rushing variant of the overload
	// attack (it observes honest poll lists first).
	AdversaryCornerRushing
)

// String implements fmt.Stringer.
func (a Adversary) String() string {
	switch a {
	case AdversaryNone:
		return "none"
	case AdversarySilent:
		return "silent"
	case AdversaryFlood:
		return "flood"
	case AdversaryEquivocate:
		return "equivocate"
	case AdversaryCorner:
		return "corner"
	case AdversaryCornerRushing:
		return "corner-rushing"
	default:
		return fmt.Sprintf("Adversary(%d)", int(a))
	}
}

// Config describes one run. Build it with NewConfig and options.
type Config struct {
	n           int
	seed        uint64
	model       Model
	advName     string
	corruptFrac float64
	knowFrac    float64
	sharedJunk  bool
	params      core.Params
	maxRounds   int
	schedMaker  SchedulerMaker
	observer    Observer
	faults      FaultPlan
	scenario    *Scenario

	// Decision-log knobs (log.go) and the load-harness workload (load.go).
	logRuntime    LogRuntime
	logDepth      int
	logBatch      int
	logLinger     time.Duration
	logCommitFrac float64
	logTimeout    time.Duration
	workload      Workload

	// Durable-store knobs (WithLogStore and friends) and the catch-up
	// source a restarted log fetches its missing committed prefix from.
	storeDir    string
	storeSync   time.Duration
	catchupAddr string
	catchupPeer *DecisionLog

	// TCP transport supervision knobs (net.go): dial/write deadlines,
	// redial policy, heartbeat detector, send-queue bounds and the chaos
	// plan. Zero values select the netrun defaults.
	net netrun.Options
}

// Option customizes a Config (functional options).
type Option interface {
	apply(*Config)
}

type optionFunc func(*Config)

func (f optionFunc) apply(c *Config) { f(c) }

// WithSeed sets the master seed (default 1). Runs are deterministic per
// seed under every model except Goroutines and TCP.
func WithSeed(seed uint64) Option {
	return optionFunc(func(c *Config) { c.seed = seed })
}

// WithModel sets the timing model (default SyncNonRushing).
func WithModel(m Model) Option {
	return optionFunc(func(c *Config) { c.model = m })
}

// WithAdversary selects a built-in Byzantine strategy (default
// AdversarySilent when corruptFrac > 0).
func WithAdversary(a Adversary) Option {
	return optionFunc(func(c *Config) { c.advName = a.String() })
}

// WithAdversaryName selects a Byzantine strategy by registry name: a
// built-in ("none", "silent", "flood", ...) or anything added through
// RegisterAdversary. Unknown names are rejected by validation at run time.
func WithAdversaryName(name string) Option {
	return optionFunc(func(c *Config) { c.advName = name })
}

// WithCorruptFrac sets t/n (default 0.10; the paper requires < 1/3 − ε).
func WithCorruptFrac(f float64) Option {
	return optionFunc(func(c *Config) { c.corruptFrac = f })
}

// WithKnowFrac sets the fraction of correct nodes that initially know
// gstring in AER-only runs (default 0.85); BA runs derive knowledge from
// the almost-everywhere phase instead.
func WithKnowFrac(f float64) Option {
	return optionFunc(func(c *Config) { c.knowFrac = f })
}

// WithIndependentJunk gives unknowing nodes individually random candidates
// instead of one shared bogus string (the default, harder case).
func WithIndependentJunk() Option {
	return optionFunc(func(c *Config) { c.sharedJunk = false })
}

// WithQuorumSize overrides the sampler quorum size d.
func WithQuorumSize(d int) Option {
	return optionFunc(func(c *Config) { c.params.QuorumSize = d })
}

// WithPollSize overrides the poll-list size.
func WithPollSize(d int) Option {
	return optionFunc(func(c *Config) { c.params.PollSize = d })
}

// WithAnswerBudget overrides the log² n answer budget (0 = unlimited, the
// load-balance ablation).
func WithAnswerBudget(b int) Option {
	return optionFunc(func(c *Config) { c.params.AnswerBudget = b })
}

// WithDeferredRelay enables the deferred-relay extension (see
// DESIGN.md "Faithfulness notes").
func WithDeferredRelay() Option {
	return optionFunc(func(c *Config) { c.params.DeferredRelay = true })
}

// WithMaxRounds caps synchronous executions (default 64).
func WithMaxRounds(r int) Option {
	return optionFunc(func(c *Config) { c.maxRounds = r })
}

// WithScheduler substitutes a custom asynchronous delivery order: the
// maker builds one fresh Scheduler per run. It requires the Async or
// AsyncAdversarial model (where it replaces the built-in order).
func WithScheduler(mk SchedulerMaker) Option {
	return optionFunc(func(c *Config) { c.schedMaker = mk })
}

// WithObserver streams execution events (deliveries, round advances,
// decisions) from the run to o. It covers the protocol under study: AER
// executions under every model. Baseline comparison runs and
// the BA pipeline's almost-everywhere phase do not stream events (only
// the BA run's AER phase does). The deterministic models invoke o live,
// per delivery; the concurrent runtimes (Goroutines, TCP) buffer events
// per node — retaining them for the whole run — and fan them in as one
// globally ordered pass at quiescence. Observers add measurable overhead
// and memory on hot runs; leave unset when only the aggregate result
// matters.
func WithObserver(o Observer) Option {
	return optionFunc(func(c *Config) { c.observer = o })
}

// NewConfig returns the default configuration for n nodes, customized by
// the options: synchronous non-rushing model, 10% silent corruption, 85%
// knowledgeable correct nodes, DESIGN.md §5 protocol geometry.
func NewConfig(n int, opts ...Option) Config {
	c := Config{
		n:           n,
		seed:        1,
		model:       SyncNonRushing,
		advName:     AdversarySilent.String(),
		corruptFrac: 0.10,
		knowFrac:    0.85,
		sharedJunk:  true,
		params:      core.DefaultParams(n),
		maxRounds:   64,
	}
	for _, o := range opts {
		o.apply(&c)
	}
	if c.advName == AdversaryNone.String() {
		c.corruptFrac = 0
	}
	return c
}

// N returns the configured system size.
func (c Config) N() int { return c.n }

// Seed returns the master seed.
func (c Config) Seed() uint64 { return c.seed }

// Model returns the timing model.
func (c Config) Model() Model { return c.model }

// AdversaryName returns the selected Byzantine strategy's registry name.
func (c Config) AdversaryName() string { return c.advName }

// CorruptFrac returns t/n.
func (c Config) CorruptFrac() float64 { return c.corruptFrac }

// KnowFrac returns the initially-knowledgeable fraction of correct nodes.
func (c Config) KnowFrac() float64 { return c.knowFrac }

// MaxRounds returns the synchronous round cap.
func (c Config) MaxRounds() int { return c.maxRounds }

// Faults returns the configured fault plan (zero = fault-free).
func (c Config) Faults() FaultPlan { return c.faults }

// Scenario returns the configured network scenario (with its seed resolved
// against the run seed) and whether one is set.
func (c Config) Scenario() (Scenario, bool) {
	if c.scenario == nil {
		return Scenario{}, false
	}
	return c.resolvedScenario(), true
}

// resolvedScenario returns the scenario spec with a zero seed replaced by
// the run seed, so scenario draws are a pure function of the configuration
// regardless of option order (sweeps append WithSeed after WithScenario).
func (c Config) resolvedScenario() Scenario {
	spec := *c.scenario
	if spec.Seed == 0 {
		spec.Seed = c.seed
	}
	return spec
}

// validate checks the configuration.
func (c Config) validate() error {
	if c.n < 8 {
		return fmt.Errorf("fastba: n = %d too small (need ≥ 8)", c.n)
	}
	if c.model < SyncNonRushing || c.model > TCP {
		return fmt.Errorf("fastba: unknown model %d", int(c.model))
	}
	if _, err := lookupAdversary(c.advName); err != nil {
		return err
	}
	// The negated comparisons also reject NaN, which would otherwise pass
	// range checks and then poison Cell map keys (NaN != NaN).
	if !(c.corruptFrac >= 0 && c.corruptFrac < 1.0/3) {
		return fmt.Errorf("fastba: corrupt fraction %v outside [0, 1/3)", c.corruptFrac)
	}
	if !(c.knowFrac >= 0 && c.knowFrac <= 1) {
		return fmt.Errorf("fastba: know fraction %v outside [0, 1]", c.knowFrac)
	}
	if c.maxRounds <= 0 {
		return fmt.Errorf("fastba: maxRounds %d must be positive", c.maxRounds)
	}
	if c.schedMaker != nil && c.model != Async && c.model != AsyncAdversarial {
		return fmt.Errorf("fastba: WithScheduler requires the async or async-adversarial model, have %v", c.model)
	}
	if err := c.faults.Validate(c.n); err != nil {
		return err
	}
	if kind := adaptiveKind(c.advName); kind != "" && c.scenario == nil {
		return fmt.Errorf("fastba: adversary %q is adaptive and requires a scenario (WithScenario)", c.advName)
	}
	if c.scenario != nil {
		// Compilation here surfaces misconfigured scenarios — including
		// disconnected topologies that would hang the termination oracle —
		// at validate() time, with the compile cache making the later run
		// reuse of the artifact free.
		if _, err := scenario.Compile(c.resolvedScenario(), c.n); err != nil {
			return err
		}
	}
	if err := c.net.Validate(); err != nil {
		return err
	}
	return c.params.Validate()
}
