package fastba

import (
	"context"
	"encoding/hex"
	"sync"
	"time"

	"github.com/fastba/fastba/internal/core"
	"github.com/fastba/fastba/internal/netrun"
	"github.com/fastba/fastba/internal/simnet"
)

// TCPResult reports one AER execution over real loopback TCP sockets.
// Communication is metered in actually-framed wire bytes. Time is
// wall-clock, plus a per-node logical clock: each node counts the messages
// it has handled, so decision "times" are delivery counts.
type TCPResult struct {
	Agreement      bool
	GString        string
	Correct        int
	Decided        int
	DecidedGString int
	DecidedOther   int
	// MeanBitsPerNode / MaxBitsPerNode count wire-frame bits actually
	// written, per node.
	MeanBitsPerNode float64
	MaxBitsPerNode  int64
	// LastDecision is the largest per-node decision time: the number of
	// messages the latest-deciding node had handled when it decided (the
	// network analogue of the simulators' round / causal-depth measure).
	LastDecision int
	// Wall is the elapsed wall-clock time until completion (or timeout).
	Wall time.Duration
	// TimedOut reports that not every correct node decided within the
	// timeout; the remaining fields describe the partial outcome. With a
	// lossy fault plan installed the run instead ends at network
	// quiescence (no surviving message unhandled), so a partial outcome
	// without TimedOut means the plan destroyed liveness — the expected
	// hostile-network shape, which the safety oracles still police.
	TimedOut bool
	// DistinctDecisions / CertDeficits are the oracle inputs (see
	// AERResult).
	DistinctDecisions int
	CertDeficits      int
	// Net carries the run's connection-supervision counters: dial/redial
	// churn, failure-detector transitions, shed frames, chaos strikes.
	Net NetStats
}

// RunTCP executes the same AER nodes a RunAER call with this configuration
// would simulate, but over real loopback TCP: one OS-level listener per
// node, length-prefixed binary frames, a lazily dialed full mesh. The
// configured timing model is ignored (the kernel schedules delivery);
// Byzantine strategies participate through the same registry, though
// custom message types without a wire codec are silently dropped, and
// rushing behaviours degrade to their non-rushing form. A zero timeout
// defaults to 60s. WithObserver receives deliveries after the run drains
// (concurrent runtimes buffer observations per node and fan them in at
// quiescence); Event.Time is the receiving node's delivery count.
func RunTCP(ctx context.Context, cfg Config, timeout time.Duration) (*TCPResult, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if timeout <= 0 {
		timeout = 60 * time.Second
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
	mkByz, err := byzMaker(cfg, sc)
	if err != nil {
		return nil, err
	}
	nodes, correct := sc.Build(mkByz)
	// The scenario lowers onto TCP exactly as onto the simulators: the
	// relay wraps the node vector (so gossip hops ride real sockets as
	// RelayMsg frames) and the link latency/loss model joins the injected
	// fault plan.
	nodes, plan, err := applyScenario(cfg, nodes)
	if err != nil {
		return nil, err
	}

	netOpts := cfg.net
	if cfg.observer != nil {
		// Link state transitions stream live (unlike deliveries, which the
		// concurrent runtimes buffer and fan in at quiescence): a suspect
		// event is only useful while the run it describes is still going.
		// The supervisor goroutines fire concurrently; serialize them.
		observer := cfg.observer
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
		return nil, err
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
	if cfg.observer != nil {
		observer := cfg.observer
		cluster.Observe(func(e simnet.Envelope) {
			observer(Event{
				Type: EventDeliver, Time: e.Depth,
				From: e.From, To: e.To,
				Kind: e.Msg.Kind(), Size: e.Msg.WireSize(),
			})
		})
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
	// Under a plan that can destroy messages — a lossy fault plan, or a
	// chaos plan severing live sockets — "all correct nodes decided" may
	// never come true; network quiescence is then the other legitimate
	// end of the run (every surviving message handled, nothing in flight).
	stop := allDecided
	adaptive := adaptiveKind(cfg.advName) != "" && cfg.corruptFrac > 0
	if !plan.Lossless() || cfg.net.Chaos.Active() || adaptive {
		stop = func() bool { return allDecided() || cluster.Quiesced() }
	}
	runErr := cluster.RunUntil(ctx, stop, timeout)
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	wall := time.Since(start) // completion time, excluding the drain below
	// Drain the tail of the execution: deliveries (and the sends they
	// trigger) may still be in flight when the last node decides, and the
	// byte counters should cover them. Bounded in case a connection broke.
	cluster.AwaitQuiescence(2 * time.Second)
	netStats := cluster.NetStats()
	cluster.Close()

	o := core.Evaluate(correct, sc.GString)
	res := &TCPResult{
		Agreement:      o.Agreement(),
		GString:        hex.EncodeToString(sc.GString.Bytes()),
		Correct:        o.Correct,
		Decided:        o.Decided,
		DecidedGString: o.DecidedG,
		DecidedOther:   o.DecidedOther,
		LastDecision:   o.MaxDecisionAt,
		Wall:           wall,
		TimedOut:       runErr != nil,

		DistinctDecisions: o.DistinctDecisions,
		CertDeficits:      o.CertDeficits,
		Net:               netStats,
	}
	var total int64
	for _, b := range cluster.SentBytes() {
		bits := b * 8
		total += bits
		if bits > res.MaxBitsPerNode {
			res.MaxBitsPerNode = bits
		}
	}
	if len(nodes) > 0 {
		res.MeanBitsPerNode = float64(total) / float64(len(nodes))
	}
	return res, nil
}
