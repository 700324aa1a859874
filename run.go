package fastba

import (
	"context"
	"encoding/hex"
	"fmt"
	"sync"
	"time"

	"github.com/fastba/fastba/internal/ae"
	"github.com/fastba/fastba/internal/baseline"
	"github.com/fastba/fastba/internal/core"
	"github.com/fastba/fastba/internal/netrun"
	"github.com/fastba/fastba/internal/scenario"
	"github.com/fastba/fastba/internal/simnet"
)

// AERResult reports one almost-everywhere-to-everywhere run.
type AERResult struct {
	// Agreement is the Lemma 9/10 success condition: every correct node
	// decided, and all decisions equal gstring.
	Agreement bool
	// GString is the hex encoding of the global string.
	GString string
	// Correct / Decided / DecidedGString / DecidedOther count correct
	// nodes and their decisions.
	Correct        int
	Decided        int
	DecidedGString int
	DecidedOther   int
	// Time is the number of synchronous rounds, or the maximum causal
	// depth under asynchrony (the paper's time complexity measure). Under
	// the TCP model it is the elapsed wall-clock milliseconds until the run
	// completed, excluding the final drain.
	Time int
	// LastDecision is the time of the latest decision. Under TCP a node's
	// clock is the number of messages it has handled, so this is the
	// delivery count of the latest decider — the network analogue of the
	// round / causal-depth measure.
	LastDecision int
	// MeanBitsPerNode / MaxBitsPerNode are the communication metrics of
	// Figure 1(a): amortized and worst-case per-node sent bits. Under TCP
	// they count the wire-frame bits actually written.
	MeanBitsPerNode float64
	MaxBitsPerNode  int64
	// TotalMessages counts delivered messages; MessagesByKind breaks the
	// sent messages down by protocol message type.
	TotalMessages  int64
	MessagesByKind map[string]int64
	// SumCandidates is Σ|L_x| over correct nodes (Lemma 4).
	SumCandidates int
	// AnswersDeferred counts budget-deferred answers (Lemma 6 overload).
	AnswersDeferred int
	// DecisionTimes holds each correct decider's decision time.
	DecisionTimes []int
	// PushesPerCorrect is the mean number of push-phase messages sent per
	// correct node (the Lemma 3 probe).
	PushesPerCorrect float64
	// CandidateCoverage is the fraction of correct nodes whose candidate
	// list contains gstring at the end of the run (the Lemma 5 probe).
	CandidateCoverage float64
	// DistinctDecisions counts the distinct values decided by correct
	// nodes — the agreement oracle's input (> 1 is an agreement
	// violation; 0 means nobody decided).
	DistinctDecisions int
	// CertDeficits counts deciders whose re-derived quorum certificate
	// falls short of the strict poll-list majority — the certificate
	// oracle's input (must stay 0 under every fault schedule).
	CertDeficits int
	// TimedOut reports that a TCP run hit its 60s deadline before every
	// correct node decided (cancel the context to stop earlier); the other
	// fields describe the partial outcome. Under a plan that can destroy
	// messages — lossy faults, chaos, an adaptive adversary — the run ends
	// at network quiescence instead, so a partial outcome without TimedOut
	// means the plan destroyed liveness: the expected hostile-network
	// shape, which the safety oracles still police.
	TimedOut bool
	// Net carries a TCP run's connection-supervision counters: dial/redial
	// churn, failure-detector transitions, chaos strikes. Zero elsewhere.
	Net NetStats
}

// RunAER executes the core protocol on a synthetic almost-everywhere
// population (the paper's §3.1 preconditions, controlled by WithKnowFrac
// and WithCorruptFrac).
func RunAER(cfg Config) (*AERResult, error) {
	return RunAERContext(context.Background(), cfg)
}

// RunAERContext is RunAER with cancellation: the deterministic runners
// poll ctx between rounds (sync) and delivery batches (async) and abandon
// the execution once it is done, returning ctx.Err().
func RunAERContext(ctx context.Context, cfg Config) (*AERResult, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	sc, err := core.NewScenario(cfg.params, cfg.seed, core.ScenarioConfig{
		CorruptFrac: cfg.coreCorruptFrac(),
		KnowFrac:    cfg.knowFrac,
		SharedJunk:  cfg.sharedJunk,
		AdvBits:     1.0 / 3,
	})
	if err != nil {
		return nil, err
	}
	return runAEROnScenario(ctx, cfg, sc)
}

// coreCorruptFrac is the static corruption handed to the core population:
// adaptive adversaries spend the corruption budget online (the scenario
// relay silences their targets), so the core build stays uncorrupted.
func (c Config) coreCorruptFrac() float64 {
	if adaptiveKind(c.advName) != "" {
		return 0
	}
	return c.corruptFrac
}

// adaptiveBudget is the number of targets an adaptive adversary silences.
func (c Config) adaptiveBudget() int {
	return int(c.corruptFrac * float64(c.n))
}

func runAEROnScenario(ctx context.Context, cfg Config, sc *core.Scenario) (*AERResult, error) {
	mkByz, err := byzMaker(cfg, sc)
	if err != nil {
		return nil, err
	}
	nodes, correct := sc.Build(mkByz)
	m, timedOut, err := execute(ctx, cfg, nodes, sc.Corrupt, correct)
	if err != nil {
		return nil, err
	}
	res := summarize(sc, correct, m)
	res.TimedOut = timedOut
	return res, nil
}

// byzMaker resolves the configured adversary through the registry to a
// node factory for core.Scenario.Build (nil factory = silent nodes).
func byzMaker(cfg Config, sc *core.Scenario) (func(id int) simnet.Node, error) {
	maker, err := lookupAdversary(cfg.advName)
	if err != nil || maker == nil {
		return nil, err
	}
	env := newAdversaryEnv(sc)
	return func(id int) simnet.Node { return maker(env, id) }, nil
}

// execute runs the node vector under the configured model. timedOut is
// the TCP model's "stopped at the deadline, metrics are partial".
func execute(ctx context.Context, cfg Config, nodes []simnet.Node, corrupt []bool, correct []*core.Node) (m *simnet.Metrics, timedOut bool, err error) {
	nodes, plan, err := applyScenario(cfg, nodes)
	if err != nil {
		return nil, false, err
	}
	obs := streamObserver(cfg, correct)
	stop := func() bool { return ctx.Err() != nil }
	switch cfg.model {
	case SyncNonRushing, SyncRushing:
		// Rushing is a property of the Byzantine nodes (simnet.Rusher);
		// the runner honours it whenever such nodes are present, which
		// only the rushing strategies install.
		r := simnet.NewSync(nodes, corrupt)
		r.Observe(obs)
		r.StopWhen(stop)
		if !plan.IsZero() {
			r.InjectFaults(plan)
		}
		m = r.Run(cfg.maxRounds)
	case Async, AsyncAdversarial:
		r := simnet.NewAsync(nodes, asyncScheduler(cfg, corrupt))
		r.Observe(obs)
		r.StopWhen(stop)
		if !plan.IsZero() {
			r.InjectFaults(plan)
		}
		m = r.Run()
	case Goroutines:
		// The goroutine runner has no safe preemption point; it runs to
		// quiescence and cancellation is honoured on return.
		f := simnet.NewFabric(nodes, simnet.CausalClock, true)
		f.Observe(obs)
		if !plan.IsZero() {
			f.SetFaults(plan)
		}
		m = f.Run()
	case TCP:
		m, timedOut, err = runCluster(ctx, cfg, nodes, plan, obs, correct)
		if err != nil {
			return nil, false, err
		}
	default:
		return nil, false, fmt.Errorf("fastba: unknown model %v", cfg.model)
	}
	if err := ctx.Err(); err != nil {
		return nil, false, err
	}
	return m, timedOut, nil
}

// tcpDeadline bounds a TCP-model run that never reaches its stop condition.
const tcpDeadline = 60 * time.Second

// runCluster is execute's TCP arm: the node vector on a netrun.Cluster —
// the same Fabric the Goroutines model runs, with sockets as its Transport.
// It returns the Fabric's metrics with the framed bytes actually written as
// the per-node sent bytes and the elapsed wall milliseconds as Rounds.
func runCluster(ctx context.Context, cfg Config, nodes []simnet.Node, plan FaultPlan, obs simnet.Observer, correct []*core.Node) (*simnet.Metrics, bool, error) {
	netOpts := cfg.net
	if observer := cfg.observer; observer != nil {
		// Link state transitions stream live (unlike deliveries, which the
		// concurrent runtimes buffer and fan in at quiescence): a suspect
		// event is only useful while the run it describes is still going.
		// The supervisor goroutines fire concurrently; serialize them.
		var connMu sync.Mutex
		netOpts.OnConnEvent = func(ev netrun.ConnEvent) {
			var typ EventType
			switch ev.Kind {
			case netrun.ConnSuspected, netrun.ConnDown:
				typ = EventPeerSuspect
			case netrun.ConnRecovered:
				typ = EventPeerAlive
			case netrun.ConnRedialed:
				typ = EventReconnect
			default:
				return
			}
			connMu.Lock()
			defer connMu.Unlock()
			observer(Event{Type: typ, From: ev.From, To: ev.To, Kind: ev.Kind.String()})
		}
	}
	cluster, err := netrun.NewWithOptions(nodes, netOpts)
	if err != nil {
		return nil, false, err
	}
	defer cluster.Close()
	// Propagate cancellation into cluster shutdown directly: closing the
	// listeners and connections unblocks dials and read loops immediately,
	// so a cancelled long-lived run tears its goroutines down promptly
	// instead of waiting out RunUntil's next poll.
	stopWatch := context.AfterFunc(ctx, cluster.Close)
	defer stopWatch()
	if !plan.IsZero() {
		cluster.InjectFaults(plan)
	}
	if obs != nil {
		cluster.Observe(obs)
	}

	start := time.Now()
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
	// Under a plan that can destroy messages — a lossy fault plan, a chaos
	// plan severing live sockets, an adaptive adversary silencing nodes —
	// "all correct nodes decided" may never come true; network quiescence
	// is then the other legitimate end of the run (every surviving message
	// handled, nothing in flight).
	stop := allDecided
	adaptive := adaptiveKind(cfg.advName) != "" && cfg.corruptFrac > 0
	if !plan.Lossless() || cfg.net.Chaos.Active() || adaptive {
		stop = func() bool { return allDecided() || cluster.Quiesced() }
	}
	runErr := cluster.RunUntil(ctx, stop, tcpDeadline)
	if err := ctx.Err(); err != nil {
		return nil, false, err
	}
	wall := time.Since(start) // completion time, excluding the drain below
	// Drain the tail of the execution: deliveries (and the sends they
	// trigger) may still be in flight when the last node decides, and the
	// counters should cover them. Bounded in case a connection broke.
	cluster.AwaitQuiescence(2 * time.Second)
	// Close stops every worker and replays the buffered deliveries into the
	// observer, so node state and metrics are final from here on.
	cluster.Close()

	m := cluster.Metrics()
	for i, b := range cluster.SentBytes() {
		m.PerNode[i].SentBytes = b
	}
	m.Rounds = int(wall.Milliseconds())
	return m, runErr != nil, nil
}

// applyScenario lowers the configured scenario onto a run: it wraps the
// node vector in the gossip relay (carrying adaptive-adversary silencing)
// and merges the scenario's per-link latency/loss faults into the run's
// fault plan. Without a scenario it returns the inputs unchanged.
func applyScenario(cfg Config, nodes []simnet.Node) ([]simnet.Node, FaultPlan, error) {
	if cfg.scenario == nil {
		return nodes, cfg.faults, nil
	}
	spec := cfg.resolvedScenario()
	comp, err := scenario.Compile(spec, cfg.n)
	if err != nil {
		return nil, FaultPlan{}, err
	}
	kind := adaptiveKind(cfg.advName)
	if comp.Adj != nil || kind != "" {
		nodes = scenario.Wrap(nodes, comp, scenario.WrapConfig{
			AdaptiveKind: kind,
			Budget:       cfg.adaptiveBudget(),
			TriggerAt:    spec.TriggerAt,
		})
	}
	return nodes, mergeScenarioPlan(cfg.faults, comp, spec), nil
}

// mergeScenarioPlan appends the scenario's link faults to the configured
// plan. Scenario links come last, so an explicit WithFaults link override
// on the same directed link yields to the scenario's (the injector's
// sparse table keeps the last entry per link).
func mergeScenarioPlan(plan FaultPlan, comp *scenario.Compiled, spec Scenario) FaultPlan {
	if len(comp.Links) == 0 {
		return plan
	}
	merged := plan
	merged.Links = make([]LinkFault, 0, len(plan.Links)+len(comp.Links))
	merged.Links = append(merged.Links, plan.Links...)
	merged.Links = append(merged.Links, comp.Links...)
	if merged.Seed == 0 {
		merged.Seed = spec.Seed
	}
	return merged
}

// asyncScheduler picks the delivery order for the asynchronous models: a
// custom maker when configured, otherwise the model's built-in order.
func asyncScheduler(cfg Config, corrupt []bool) simnet.Scheduler {
	if cfg.schedMaker != nil {
		return cfg.schedMaker(len(corrupt), cfg.seed)
	}
	if cfg.model == AsyncAdversarial {
		pri := func(e simnet.Envelope) int {
			if corrupt[e.From] {
				return 0 // adversary traffic jumps the queue
			}
			return 1
		}
		return simnet.NewAdversarial(pri, uint64(len(corrupt))*8)
	}
	return simnet.NewRandom(cfg.seed ^ 0xA57)
}

// streamObserver adapts the configured public Observer to the runners'
// envelope hook, synthesizing round-advance and decision events. It
// returns nil when no observer is configured.
func streamObserver(cfg Config, correct []*core.Node) simnet.Observer {
	if cfg.observer == nil {
		return nil
	}
	observer := cfg.observer
	lastTime := 0
	decided := make([]bool, len(correct))
	return func(e simnet.Envelope) {
		if e.Depth > lastTime {
			lastTime = e.Depth
			observer(Event{Type: EventRound, Time: e.Depth, From: -1, To: -1})
		}
		observer(Event{
			Type: EventDeliver, Time: e.Depth,
			From: e.From, To: e.To,
			Kind: e.Msg.Kind(), Size: e.Msg.WireSize(),
		})
		// Decision detection: the delivery just handled by a correct node
		// may have completed its poll majority. The event time is the
		// node's recorded decision time rather than the current delivery's
		// depth: deterministic runners invoke observers live (the two
		// coincide at the majority-completing delivery), while the
		// concurrent runtimes replay buffered deliveries at quiescence —
		// when every node has long decided — so the depth guard plus
		// DecidedAt keep the emitted decision times exact there too.
		if e.To < len(correct) && correct[e.To] != nil && !decided[e.To] {
			if at := correct[e.To].DecidedAt(); at >= 0 && e.Depth >= at {
				decided[e.To] = true
				observer(Event{Type: EventDecision, Time: at, From: -1, To: e.To})
			}
		}
	}
}

func summarize(sc *core.Scenario, correct []*core.Node, m *simnet.Metrics) *AERResult {
	o := core.Evaluate(correct, sc.GString)
	res := &AERResult{
		Agreement:         o.Agreement(),
		GString:           hex.EncodeToString(sc.GString.Bytes()),
		Correct:           o.Correct,
		Decided:           o.Decided,
		DecidedGString:    o.DecidedG,
		DecidedOther:      o.DecidedOther,
		Time:              m.Rounds,
		LastDecision:      o.MaxDecisionAt,
		MeanBitsPerNode:   m.MeanSentBits(),
		MaxBitsPerNode:    m.MaxSentBits(),
		TotalMessages:     m.Delivered,
		MessagesByKind:    m.ByKind,
		SumCandidates:     o.SumCandidates,
		DistinctDecisions: o.DistinctDecisions,
		CertDeficits:      o.CertDeficits,
	}
	if m.Net != nil {
		res.Net = *m.Net
	}
	var pushes, covered float64
	for _, n := range correct {
		if n == nil {
			continue
		}
		res.AnswersDeferred += n.Stats().AnswersDeferred
		pushes += float64(n.Stats().PushesSent)
		if n.HasCandidate(sc.GString) {
			covered++
		}
		if at := n.DecidedAt(); at >= 0 {
			res.DecisionTimes = append(res.DecisionTimes, at)
		}
	}
	if o.Correct > 0 {
		res.PushesPerCorrect = pushes / float64(o.Correct)
		res.CandidateCoverage = covered / float64(o.Correct)
	}
	return res
}

// BAResult reports a full Byzantine Agreement run: the almost-everywhere
// phase (committee tree) followed by AER.
type BAResult struct {
	// AE summarizes the almost-everywhere phase.
	AE AEPhase
	// AER summarizes the everywhere phase.
	AER AERResult
	// GString is the hex encoding of the agreed string.
	GString string
	// TotalMeanBitsPerNode sums both phases' amortized communication —
	// the Figure 1(b) "Bits" entry for BA.
	TotalMeanBitsPerNode float64
	// TotalTime sums both phases' time.
	TotalTime int
}

// AEPhase summarizes the committee-tree phase.
type AEPhase struct {
	// KnowFrac is the fraction of correct nodes that learned gstring —
	// the almost-everywhere guarantee (AER needs > 3/4 of correct nodes).
	KnowFrac float64
	// MeanBitsPerNode is the phase's amortized communication.
	MeanBitsPerNode float64
	// Time is the phase's round count.
	Time int
}

// RunBA executes the composed protocol: the KSSV06-style committee tree
// generates and spreads gstring almost everywhere, then AER carries it to
// everyone. The almost-everywhere phase is synchronous (as in KSSV06); the
// AER phase runs under the configured model.
func RunBA(cfg Config) (*BAResult, error) {
	return RunBAContext(context.Background(), cfg)
}

// RunBAContext is RunBA with cancellation, checked before and between
// phases and inside the AER phase's runner.
func RunBAContext(ctx context.Context, cfg Config) (*BAResult, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	// An already-cancelled context must not pay for the committee phase,
	// which has no internal cancellation probe.
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Corruption pattern shared by both phases (the adversary is
	// non-adaptive and corrupts nodes once).
	seedSc, err := core.NewScenario(cfg.params, cfg.seed, core.ScenarioConfig{
		CorruptFrac: cfg.coreCorruptFrac(),
		KnowFrac:    1,
		SharedJunk:  true,
		AdvBits:     0,
	})
	if err != nil {
		return nil, err
	}
	corrupt := seedSc.Corrupt

	aeParams := ae.Params{
		N:             cfg.n,
		CommitteeSize: cfg.params.QuorumSize,
		Bins:          ae.DefaultParams(cfg.n).Bins,
		StringBits:    cfg.params.StringBits,
		Seed:          cfg.params.SamplerSeed,
	}
	var mkByz func(id int) simnet.Node
	// Adaptive adversaries corrupt online through the scenario relay (AER
	// phase); the committee phase runs uncorrupted under them.
	if cfg.advName != AdversaryNone.String() && cfg.advName != AdversarySilent.String() &&
		adaptiveKind(cfg.advName) == "" {
		mkByz, err = ae.Poison(aeParams, cfg.seed)
		if err != nil {
			return nil, err
		}
	}
	aeRes, err := ae.Run(aeParams, cfg.seed, corrupt, mkByz)
	if err != nil {
		return nil, err
	}
	if aeRes.GString.IsZero() {
		return nil, fmt.Errorf("fastba: almost-everywhere phase failed to elect a global string")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	sc, err := core.ScenarioFromBeliefs(cfg.params, cfg.seed, corrupt, aeRes.GString, aeRes.Beliefs)
	if err != nil {
		return nil, err
	}
	aerRes, err := runAEROnScenario(ctx, cfg, sc)
	if err != nil {
		return nil, err
	}

	return &BAResult{
		AE: AEPhase{
			KnowFrac:        aeRes.KnowFrac,
			MeanBitsPerNode: aeRes.Metrics.MeanSentBits(),
			Time:            aeRes.Metrics.Rounds,
		},
		AER:                  *aerRes,
		GString:              aerRes.GString,
		TotalMeanBitsPerNode: aeRes.Metrics.MeanSentBits() + aerRes.MeanBitsPerNode,
		TotalTime:            aeRes.Metrics.Rounds + aerRes.Time,
	}, nil
}

// Baseline selects one of the comparison protocols of Figure 1.
type Baseline int

// Comparison protocols.
const (
	// BaselineKLST11 is the stylized load-balanced Õ(√n) a.e.→e. protocol.
	BaselineKLST11 Baseline = iota + 1
	// BaselineFlood is the everyone-broadcasts yardstick.
	BaselineFlood
	// BaselineRabin is the Rabin'83/PR10-class quadratic randomized BA.
	BaselineRabin
)

// String implements fmt.Stringer.
func (b Baseline) String() string {
	switch b {
	case BaselineKLST11:
		return "klst11"
	case BaselineFlood:
		return "flood"
	case BaselineRabin:
		return "rabin"
	default:
		return fmt.Sprintf("Baseline(%d)", int(b))
	}
}

// BaselineResult reports a baseline run in the same units as AERResult.
type BaselineResult struct {
	Agreement       bool
	Correct         int
	Decided         int
	Time            int
	MeanBitsPerNode float64
	MaxBitsPerNode  int64
	TotalMessages   int64
}

// RunBaseline executes a comparison protocol on the same population a
// RunAER call with this configuration would use. Baselines are synchronous
// (their round structure is intrinsic); the model option is ignored.
func RunBaseline(cfg Config, b Baseline) (*BaselineResult, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	sc, err := core.NewScenario(cfg.params, cfg.seed, core.ScenarioConfig{
		CorruptFrac: cfg.corruptFrac,
		KnowFrac:    cfg.knowFrac,
		SharedJunk:  cfg.sharedJunk,
		AdvBits:     1.0 / 3,
	})
	if err != nil {
		return nil, err
	}
	var res *baseline.Result
	switch b {
	case BaselineKLST11:
		res = baseline.RunKLST11(sc)
	case BaselineFlood:
		res = baseline.RunFlood(sc)
	case BaselineRabin:
		res = baseline.RunRabin(sc, 0)
	default:
		return nil, fmt.Errorf("fastba: unknown baseline %v", b)
	}
	return &BaselineResult{
		Agreement:       res.Outcome.Agreement(),
		Correct:         res.Outcome.Correct,
		Decided:         res.Outcome.Decided,
		Time:            res.Outcome.MaxDecisionAt,
		MeanBitsPerNode: res.Metrics.MeanSentBits(),
		MaxBitsPerNode:  res.Metrics.MaxSentBits(),
		TotalMessages:   res.Metrics.Delivered,
	}, nil
}
