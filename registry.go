package fastba

import (
	"fmt"
	"sort"
	"sync"

	"github.com/fastba/fastba/internal/adversary"
	"github.com/fastba/fastba/internal/core"
	"github.com/fastba/fastba/internal/simnet"
)

// The aliases below are the node-level extension surface: they let code
// outside this module implement protocol actors (custom Byzantine
// strategies via RegisterAdversary) and delivery orders (custom Schedulers
// via WithScheduler) against the same interfaces the built-in protocols
// use, without reaching into internal/.

// NodeID identifies a node; nodes are numbered 0..n-1.
type NodeID = simnet.NodeID

// Message is a protocol message: immutable after sending, sized for bit
// metering, and named for per-kind accounting. Custom adversaries may send
// their own Message implementations through the simulation runners (the
// TCP runner silently drops message types it has no codec for).
type Message = simnet.Message

// NodeContext is handed to a node for every activation; it is only valid
// for the duration of the call.
type NodeContext = simnet.Context

// ProtocolNode is a protocol actor driven by the runners. Runners
// guarantee Init and Deliver calls on one node never overlap.
type ProtocolNode = simnet.Node

// Envelope is a message in flight, as seen by Schedulers and Rushers.
type Envelope = simnet.Envelope

// Rusher is implemented by Byzantine nodes that exploit the rushing
// synchronous model: after the correct nodes of a round have produced
// their messages, the runner shows them to each Rusher, which may then
// send its own messages within the same round.
type Rusher = simnet.Rusher

// Scheduler decides the delivery order of in-flight messages in an
// asynchronous execution.
type Scheduler = simnet.Scheduler

// NewFIFOScheduler returns a first-in-first-out scheduler: the most benign
// asynchronous network.
func NewFIFOScheduler() Scheduler { return simnet.NewFIFO() }

// SchedulerMaker builds a fresh Scheduler for one asynchronous run over n
// nodes. It must derive any randomness from seed so runs stay
// deterministic per configuration.
type SchedulerMaker func(n int, seed uint64) Scheduler

// AdversaryEnv is the full-information view handed to a Byzantine strategy
// for each of its nodes (§2.1: the adversary knows the whole network and
// coordinates all corrupted nodes). Fields are shared across nodes and
// must be treated as read-only.
type AdversaryEnv struct {
	// N is the system size.
	N int
	// Seed is the run's master seed; derive strategy randomness from it.
	Seed uint64
	// Corrupt marks the Byzantine nodes.
	Corrupt []bool
	// GString is the raw global string the correct nodes try to agree on.
	GString []byte
	// StringBits, QuorumSize and PollSize describe the protocol geometry.
	StringBits int
	QuorumSize int
	PollSize   int

	// env carries the internal full-information view (samplers included);
	// only built-in strategies can use it.
	env adversary.Env
}

// AdversaryMaker builds the Byzantine node with the given ID. One maker
// call per corrupted node per run.
type AdversaryMaker func(env AdversaryEnv, id int) ProtocolNode

var advRegistry = struct {
	sync.RWMutex
	m map[string]AdversaryMaker
}{m: make(map[string]AdversaryMaker)}

// RegisterAdversary adds a Byzantine strategy under the given name, making
// it selectable with WithAdversaryName and usable as a Sweep.Adversaries
// axis. Names must be non-empty and unused; "none" and "silent" are
// reserved for the built-in passive behaviours. Registration is
// concurrency-safe and usually done from init or main.
func RegisterAdversary(name string, maker AdversaryMaker) error {
	if name == "" || maker == nil {
		return fmt.Errorf("fastba: RegisterAdversary needs a name and a maker")
	}
	if name == AdversaryNone.String() || name == AdversarySilent.String() {
		return fmt.Errorf("fastba: adversary name %q is reserved", name)
	}
	advRegistry.Lock()
	defer advRegistry.Unlock()
	if _, dup := advRegistry.m[name]; dup {
		return fmt.Errorf("fastba: adversary %q already registered", name)
	}
	advRegistry.m[name] = maker
	return nil
}

// RegisteredAdversaries returns every selectable adversary name, sorted —
// the built-in enums, the parameterized built-ins and any custom
// registrations.
func RegisteredAdversaries() []string {
	advRegistry.RLock()
	names := []string{AdversaryNone.String(), AdversarySilent.String()}
	for name := range advRegistry.m {
		names = append(names, name)
	}
	advRegistry.RUnlock()
	sort.Strings(names)
	return names
}

// lookupAdversary resolves a name to its maker. Passive behaviours
// ("none", "silent") resolve to a nil maker; unknown names error.
func lookupAdversary(name string) (AdversaryMaker, error) {
	if name == AdversaryNone.String() || name == AdversarySilent.String() {
		return nil, nil
	}
	advRegistry.RLock()
	maker, ok := advRegistry.m[name]
	advRegistry.RUnlock()
	if !ok {
		return nil, fmt.Errorf("fastba: unknown adversary %q (registered: %v)", name, RegisteredAdversaries())
	}
	return maker, nil
}

// builtinMaker adapts an internal strategy to the public maker signature.
func builtinMaker(st adversary.Strategy) AdversaryMaker {
	return func(env AdversaryEnv, id int) ProtocolNode { return st.New(env.env, id) }
}

// FloodStrategy returns a parameterized variant of the built-in flooding
// adversary: each Byzantine node sprays strings bogus candidates at fanout
// targets each (0 = package defaults). Register it under a custom name to
// sweep flooding intensity.
func FloodStrategy(strings, fanout int) AdversaryMaker {
	return builtinMaker(adversary.Flood{Strings: strings, Fanout: fanout})
}

// CornerStrategy returns the Lemma 6 answer-budget overload attack,
// optionally in its rushing flavour.
func CornerStrategy(rushing bool) AdversaryMaker {
	return builtinMaker(adversary.Corner{Rushing: rushing})
}

// SilencedStrategy wraps any Byzantine strategy so its nodes fall silent
// from logical time `after` on: deliveries are still consumed (the
// adversary keeps observing the network) but nothing is sent anymore —
// Byzantine fail-silence mid-protocol, the attack shape where a node
// first does damage and then withholds the cooperation the protocol may
// be counting on (e.g. poll answers it is the recorded answerer for).
// Rushing behaviours of the inner strategy degrade to their non-rushing
// form. The built-ins "flood-then-silent" and "equivocate-then-silent"
// are registered through this combinator.
func SilencedStrategy(inner AdversaryMaker, after int) AdversaryMaker {
	return func(env AdversaryEnv, id int) ProtocolNode {
		return &silencedNode{inner: inner(env, id), after: after}
	}
}

type silencedNode struct {
	inner ProtocolNode
	after int
}

func (s *silencedNode) Init(ctx NodeContext) {
	s.inner.Init(&mutedCtx{NodeContext: ctx, after: s.after})
}

func (s *silencedNode) Deliver(ctx NodeContext, from NodeID, m Message) {
	s.inner.Deliver(&mutedCtx{NodeContext: ctx, after: s.after}, from, m)
}

// mutedCtx swallows sends once the silence window opens; Now and any
// other context behaviour pass through.
type mutedCtx struct {
	NodeContext
	after int
}

func (c *mutedCtx) Send(to NodeID, m Message) {
	if c.Now() < c.after {
		c.NodeContext.Send(to, m)
	}
}

func mustRegister(name string, maker AdversaryMaker) {
	if err := RegisterAdversary(name, maker); err != nil {
		panic(err)
	}
}

// The Adversary enum values register as built-in strategies under their
// String names, so the enum path and the registry path are one mechanism.
func init() {
	mustRegister(AdversaryFlood.String(), builtinMaker(adversary.Flood{}))
	mustRegister(AdversaryEquivocate.String(), builtinMaker(adversary.Equivocate{}))
	mustRegister(AdversaryCorner.String(), CornerStrategy(false))
	mustRegister(AdversaryCornerRushing.String(), CornerStrategy(true))
	// Fault-flavoured Byzantine behaviours for hostile-network testing:
	// do damage early (bogus pushes, equivocation), then withhold all
	// cooperation from time 2 on — past the push phase, before most polls
	// resolve.
	mustRegister("flood-then-silent", SilencedStrategy(builtinMaker(adversary.Flood{}), 2))
	mustRegister("equivocate-then-silent", SilencedStrategy(builtinMaker(adversary.Equivocate{}), 2))
}

// newAdversaryEnv builds the public view over a scenario.
func newAdversaryEnv(sc *core.Scenario) AdversaryEnv {
	return AdversaryEnv{
		N:          sc.Params.N,
		Seed:       sc.Seed,
		Corrupt:    sc.Corrupt,
		GString:    sc.GString.Bytes(),
		StringBits: sc.Params.StringBits,
		QuorumSize: sc.Params.QuorumSize,
		PollSize:   sc.Params.PollSize,
		env:        adversary.FromScenario(sc),
	}
}
