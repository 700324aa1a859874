package fastba

import (
	"github.com/fastba/fastba/internal/simnet"
)

// Fault injection. The paper's model (§2.1) assumes authenticated reliable
// channels; a FaultPlan deliberately steps outside that envelope — message
// loss, duplication, extra latency and reordering, link partitions with
// heal times, node crash/recover windows — so experiments can probe where
// the protocol's guarantees actually bend and the invariant Oracles can
// check which ones must never break (safety holds under every plan;
// termination is only promised for lossless ones — see OracleTermination).
//
// Plans are deterministic: every probabilistic verdict is a pure hash of
// (plan seed, sender, receiver, per-link send index), so under the
// deterministic runners a configuration plus a plan reproduces the exact
// same fault schedule on every run. Under the concurrent runtimes
// (Goroutines, TCP) the per-link send indices follow real scheduling
// order, so — like the delivery order itself — the schedule varies between
// runs and only outcome properties are comparable.

// FaultPlan is a deterministic, seed-driven fault schedule applied on the
// send path of every runtime. The zero value injects no faults. Attach one
// to a run with WithFaults, sweep them with Sweep.Faults, or sample them
// with SimFuzz.
type FaultPlan = simnet.FaultPlan

// Partition cuts the links between a node set and the rest of the system
// for a window of logical time (see FaultPlan.Partitions).
type Partition = simnet.Partition

// LinkFault is a per-directed-link latency/loss override (see
// FaultPlan.Links): fixed delay, uniform jitter, long-tail spikes, and a
// drop rate, judged per message on the same deterministic hash chain as
// the plan's global knobs. The scenario generator (WithScenario) lowers
// its latency models onto these.
type LinkFault = simnet.LinkFault

// Crash makes a node fail-silent for a window of logical time; a recovery
// models a process restart with protocol state intact (see
// FaultPlan.Crashes).
//
// A Crash window is a *transport* fault: the node's in-memory protocol
// state survives the window untouched, which models a stall or a brief
// disconnect, not a process death. Real restart scenarios — the process
// killed mid-run, its memory gone, its durable state reopened from disk
// — are a property of the decision log, not of a single run's fault
// plan: give the log a store (WithLogStore), hard-crash it
// (DecisionLog.Crash — no final fsync, kill -9 semantics), and reopen
// it from the same directory. Workload.Restarts drives that cycle under
// sustained load, LogFuzz.RestartAfter fuzzes it under fault plans, and
// OracleLogDurability (CheckLogDurability) is the invariant that holds
// across every such boundary: the recovered log extends everything that
// had committed before the crash.
type Crash = simnet.Crash

// WithFaults installs a fault plan on the run's delivery path. The plan
// applies under every model; invalid plans (probabilities
// outside [0, 1], malformed windows, unknown nodes) are rejected by
// validation at run time. Time units for partition and crash windows
// follow the runtime's clock: synchronous rounds, asynchronous causal
// depth, or the sender's per-node delivery count under TCP.
func WithFaults(plan FaultPlan) Option {
	return optionFunc(func(c *Config) { c.faults = plan })
}

// WithDecideThreshold REPLACES the strict Poll List majority of
// Algorithm 1 with a fixed answer count — a deliberate protocol MUTATION,
// not a tuning knob. It exists to validate the invariant oracles: a run
// mutated this way (e.g. threshold 1) decides without a quorum
// certificate, splitting the system in exactly the way OracleAgreement
// and OracleCertificates must detect. The zero value keeps the paper's
// faithful rule. See TestOracleCatchesBrokenQuorum and cmd/fuzzba
// -selftest.
func WithDecideThreshold(answers int) Option {
	return optionFunc(func(c *Config) { c.params.DecideThreshold = answers })
}
