package netrun

import (
	"fmt"
	"time"
)

// Options shape the cluster's connection supervision layer: dial and
// write deadlines, the redial policy, the heartbeat failure detector, the
// bounded per-peer send queues and their overload policy, and an optional
// chaos plan. The zero value selects the defaults listed on each field.
type Options struct {
	// DialTimeout bounds every connect attempt, for both mesh links and
	// catch-up fetches. Default 2s.
	DialTimeout time.Duration
	// WriteTimeout bounds every frame write — the backstop that unwedges a
	// writer stuck on a dead socket even with the heartbeat detector
	// disabled. Default 10s.
	WriteTimeout time.Duration
	// Reconnect is the redial policy for broken links.
	Reconnect ReconnectPolicy
	// Heartbeat is the failure-detector policy.
	Heartbeat HeartbeatPolicy
	// Chaos, when active, severs live connections mid-run on a seeded
	// schedule. See ChaosPlan.
	Chaos ChaosPlan
	// OnConnEvent, when non-nil, observes link state transitions. It is
	// called from supervisor goroutines — implementations must be fast and
	// concurrency-safe.
	OnConnEvent func(ConnEvent)
	// Hosted, when non-nil, marks which node ids this process hosts: the
	// cluster listens only for hosted nodes (at their Addrs entries) and
	// treats the rest as remote peers reached through Addrs — the
	// multi-process daemon topology (internal/server). nil (the default)
	// hosts every node in-process on ephemeral loopback ports.
	Hosted []bool
	// Addrs are the full per-node addresses of a partially hosted cluster,
	// required exactly when Hosted is set: hosted entries are this
	// process's fixed listen addresses, remote entries the peers'
	// advertised ones. Cross-process sends leak the fabric's in-flight
	// quiescence count (the remote delivery is invisible here), so
	// partially hosted clusters must not await quiescence.
	Addrs []string
}

// ReconnectPolicy is the jittered-exponential-backoff redial schedule of
// a link supervisor: after a failed dial the writer sleeps a uniformly
// jittered backoff in [b/2, b], doubling b from Base up to Cap, until a
// dial succeeds or MaxAttempts consecutive attempts failed — at which
// point the link drops its queued frames and goes down for a Cap-long
// cooldown (frames sent meanwhile are dropped immediately, so a
// fail-silent peer never stalls its senders). The next frame after the
// cooldown probes the peer again.
type ReconnectPolicy struct {
	// Base is the first backoff (default 25ms); Cap bounds the growth and
	// sets the down-state cooldown (default 1s).
	Base, Cap time.Duration
	// MaxAttempts bounds consecutive failed dials before the link goes
	// down. 0 means the default (8); negative means never give up.
	MaxAttempts int
	// Disable restores single-shot dialing: one failed dial drops the
	// frame with no retry and no down state.
	Disable bool
}

// HeartbeatPolicy is the failure detector: the dialing side of every
// established link sends a ping when it has heard no pong for Every, and
// suspects the link — closing the socket so the next frame redials — when
// a ping goes unanswered for SuspectAfter, or when a frame write has been
// stuck for SuspectAfter (a blackholed peer with deep kernel buffers).
// Suspect→alive transitions are surfaced through Options.OnConnEvent and
// counted in NetStats.
type HeartbeatPolicy struct {
	// Every is the detector period (default 500ms). SuspectAfter is the
	// unanswered-ping window (default 4×Every).
	Every, SuspectAfter time.Duration
	// Disable turns the detector off: no pings, no read deadlines on
	// accepted connections.
	Disable bool
}

// ConnEventKind enumerates link state transitions.
type ConnEventKind int

const (
	// ConnDialed: first successful dial of a link.
	ConnDialed ConnEventKind = iota + 1
	// ConnRedialed: successful re-establishment after a failure.
	ConnRedialed
	// ConnSuspected: heartbeat unanswered or write stalled; the socket was
	// recycled.
	ConnSuspected
	// ConnRecovered: a suspected or down link confirmed alive again.
	ConnRecovered
	// ConnDown: the redial budget ran out; queued frames were dropped.
	ConnDown
)

func (k ConnEventKind) String() string {
	switch k {
	case ConnDialed:
		return "dial"
	case ConnRedialed:
		return "redial"
	case ConnSuspected:
		return "suspect"
	case ConnRecovered:
		return "alive"
	case ConnDown:
		return "down"
	default:
		return fmt.Sprintf("ConnEventKind(%d)", int(k))
	}
}

// ConnEvent is one link state transition, identified by the directed link
// it happened on.
type ConnEvent struct {
	Kind     ConnEventKind
	From, To int
}

// withDefaults fills every unset knob.
func (o Options) withDefaults() Options {
	if o.DialTimeout <= 0 {
		o.DialTimeout = 2 * time.Second
	}
	if o.WriteTimeout <= 0 {
		o.WriteTimeout = 10 * time.Second
	}
	if o.Reconnect.Base <= 0 {
		o.Reconnect.Base = 25 * time.Millisecond
	}
	if o.Reconnect.Cap < o.Reconnect.Base {
		o.Reconnect.Cap = time.Second
		if o.Reconnect.Cap < o.Reconnect.Base {
			o.Reconnect.Cap = o.Reconnect.Base
		}
	}
	if o.Reconnect.MaxAttempts == 0 {
		o.Reconnect.MaxAttempts = 8
	}
	if o.Heartbeat.Every <= 0 {
		o.Heartbeat.Every = 500 * time.Millisecond
	}
	if o.Heartbeat.SuspectAfter <= 0 {
		o.Heartbeat.SuspectAfter = 4 * o.Heartbeat.Every
	}
	if o.Chaos.Active() {
		o.Chaos = o.Chaos.withDefaults()
	}
	return o
}

// Validate rejects malformed options (negative durations, unknown chaos
// kinds).
func (o Options) Validate() error {
	if o.DialTimeout < 0 || o.WriteTimeout < 0 {
		return fmt.Errorf("netrun: negative timeout")
	}
	if o.Reconnect.Base < 0 || o.Reconnect.Cap < 0 {
		return fmt.Errorf("netrun: negative reconnect backoff")
	}
	if o.Heartbeat.Every < 0 || o.Heartbeat.SuspectAfter < 0 {
		return fmt.Errorf("netrun: negative heartbeat window")
	}
	if (o.Hosted == nil) != (o.Addrs == nil) {
		return fmt.Errorf("netrun: Hosted and Addrs must be set together")
	}
	if o.Hosted != nil && len(o.Hosted) != len(o.Addrs) {
		return fmt.Errorf("netrun: Hosted has %d entries, Addrs %d", len(o.Hosted), len(o.Addrs))
	}
	return o.Chaos.Validate()
}
