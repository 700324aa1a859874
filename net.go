package fastba

import (
	"github.com/fastba/fastba/internal/netrun"
	"github.com/fastba/fastba/internal/simnet"
)

// Transport supervision for the TCP runtime (the TCP model and RuntimeTCP
// decision logs). Every directed connection gets a supervisor: a bounded
// send queue drained by a dedicated writer, jittered exponential-backoff
// redial when the socket breaks, write deadlines on every frame, and a
// heartbeat failure detector whose suspect/alive transitions surface as
// observer events (EventPeerSuspect/EventPeerAlive) and NetStats
// counters. A peer that stays unreachable past the redial budget degrades
// to dropped frames — never to stalled senders — so a run keeps
// committing while ≤f peers are dark, and a healed peer re-syncs through
// the catch-up path (WithCatchupPeer). See DESIGN.md §9 for the full
// failure model.

// ReconnectPolicy is the jittered-exponential-backoff redial schedule of
// a connection supervisor (base/cap/max-attempts; see the field docs).
type ReconnectPolicy = netrun.ReconnectPolicy

// HeartbeatPolicy is the TCP failure detector: ping frames on idle links,
// suspect on an unanswered ping or stalled write, alive again on the next
// pong or successful redial.
type HeartbeatPolicy = netrun.HeartbeatPolicy

// NetStats aggregates a TCP run's connection-supervision counters:
// dial/redial churn, failure-detector transitions, dropped frames, chaos
// strikes. Surfaced by AERResult.Net, LoadResult.Net, DecisionLog.NetStats
// and Cluster metrics.
type NetStats = simnet.NetStats

// ChaosPlan is a seeded schedule of live-socket strikes — close,
// half-close, blackhole-by-pausing-reads — applied to a TCP run's real
// connections mid-run. The strike sequence is deterministic per seed
// (ChaosSchedule); wall-clock placement follows the run. Attach one with
// WithChaos.
type ChaosPlan = netrun.ChaosPlan

// ChaosKind enumerates the strike kinds of a ChaosPlan.
type ChaosKind = netrun.ChaosKind

// Chaos strike kinds.
const (
	// ChaosClose closes both endpoints of a connection outright.
	ChaosClose = netrun.ChaosClose
	// ChaosHalfClose shuts the dialer's read side: data still flows, but
	// heartbeat answers die, forcing the failure detector to act.
	ChaosHalfClose = netrun.ChaosHalfClose
	// ChaosBlackhole pauses the accepting side's reads, backing frames up
	// into kernel buffers until the window expires or the detector fires.
	ChaosBlackhole = netrun.ChaosBlackhole
)

// ChaosStrike is one scheduled strike on a directed link.
type ChaosStrike = netrun.ChaosStrike

// ChaosSchedule returns a plan's deterministic strike sequence for an
// n-node cluster — a pure function of (plan seed, n), the artifact the
// fuzzer's chaos digests and the seeded replay tests lock in.
func ChaosSchedule(p ChaosPlan, n int) []ChaosStrike {
	return netrun.ChaosSchedule(p, n)
}

// ParseChaosKind parses a chaos kind name: close, halfclose, blackhole.
func ParseChaosKind(s string) (ChaosKind, error) {
	return netrun.ParseChaosKind(s)
}

// WithReconnect sets the redial policy for broken TCP connections
// (default: base 25ms, cap 1s, 8 attempts before the link goes down).
func WithReconnect(p ReconnectPolicy) Option {
	return optionFunc(func(c *Config) { c.net.Reconnect = p })
}

// WithHeartbeat tunes the TCP failure detector (default: ping every
// 500ms, suspect after 2s; Disable turns it off).
func WithHeartbeat(p HeartbeatPolicy) Option {
	return optionFunc(func(c *Config) { c.net.Heartbeat = p })
}

// WithChaos installs a live-socket chaos plan on the TCP runtime. It
// applies to TCP-model runs and to RuntimeTCP decision logs (OpenLog rejects it
// on the fabric runtime); safety oracles must hold under any plan, while
// termination accounting treats chaos runs as lossy — frames buffered in
// a severed socket die with it.
func WithChaos(p ChaosPlan) Option {
	return optionFunc(func(c *Config) { c.net.Chaos = p })
}
