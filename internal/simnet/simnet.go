// Package simnet is the message-passing substrate underneath every protocol
// in this repository. It models the paper's network (§2.1): a fully
// connected system of n nodes with authenticated, reliable channels and no
// transferable signatures.
//
// Three runners execute the same protocol code:
//
//   - SyncRunner: lock-step rounds — a message sent during round r is
//     delivered during round r+1 — with optional *rushing* adversaries that
//     observe the correct nodes' round-r messages before choosing their own
//     (§2.1 "Adversary").
//   - AsyncRunner: an event loop with a pluggable scheduler (FIFO, seeded
//     random, or adversarial with an eventual-delivery age bound). Time is
//     measured as *causal depth*: a message sent while handling a
//     depth-k delivery has depth k+1, so the completion time of a node is
//     the longest chain of dependent messages leading to its decision —
//     the standard asynchronous-round measure behind the paper's
//     O(log n / log log n) bound.
//   - Fabric.Run: worker goroutines draining unbounded mailboxes; it
//     demonstrates that protocol nodes are runtime-agnostic actors and
//     cross-checks the event-loop runners under real concurrency.
//
// All runners meter per-node sent/received messages and bytes, broken down
// by message kind, which is how the experiment harness measures the
// communication rows of Figure 1.
package simnet

import "fmt"

// NodeID identifies a node; nodes are numbered 0..n-1 (the paper's [n]).
type NodeID = int

// Message is a protocol message. Implementations must be immutable after
// sending, report their wire size for bit metering, and name their kind for
// per-kind accounting.
type Message interface {
	// WireSize returns the payload size in bytes as encoded on the wire.
	WireSize() int
	// Kind returns a short stable name ("push", "fw1", ...) for metrics.
	Kind() string
}

// envelopeOverhead is the per-message header charged by the meter:
// sender (4B) + recipient (4B) + kind tag (1B) — the authenticated-channel
// framing. The paper counts bits exchanged; we charge header + payload.
const envelopeOverhead = 9

// InstMsg is an instance-tagged message: the multiplexing envelope of the
// decision-log pipeline (internal/pipeline), which runs several agreement
// instances concurrently over one shared transport. The tag travels inside
// the message payload — 4 bytes of instance sequence plus the inner kind
// byte — so every existing transport (loopback Fabric, TCP frames) carries
// multiplexed traffic unchanged, and the wire codec (internal/wire) gives
// it a stable on-the-wire encoding.
type InstMsg struct {
	// Inst is the agreement-instance sequence number the inner message
	// belongs to.
	Inst uint32
	// Inner is the wrapped protocol message.
	Inner Message
}

// WireSize returns the encoded payload size: the 4-byte instance tag, the
// inner kind byte and the inner payload.
func (m InstMsg) WireSize() int { return 5 + m.Inner.WireSize() }

// Kind returns the inner message's kind, so per-kind metrics stay
// meaningful across a multiplexed run.
func (m InstMsg) Kind() string { return m.Inner.Kind() }

// RelayMsg is the gossip-relay hop envelope of the scenario subsystem
// (internal/scenario): a protocol message travelling from Origin to Dest
// across a multi-hop topology, forwarded by intermediate relay nodes along
// strictly distance-decreasing links. Seq is the origin's relay sequence
// number (dedup key together with Origin); TTL is the remaining hop budget,
// which at the origin equals the topology distance to Dest, so it is exact:
// every forwarding path consumes it precisely. The wire codec
// (internal/wire) gives it a stable encoding so the TCP cluster carries
// relayed traffic unchanged.
type RelayMsg struct {
	Origin NodeID
	Seq    uint32
	Dest   NodeID
	TTL    uint8
	// Inner is the wrapped protocol message. Relay and instance envelopes
	// must not nest.
	Inner Message
}

// WireSize returns the encoded payload size: origin (4B) + seq (4B) +
// dest (4B) + ttl (1B) + the inner kind byte + the inner payload.
func (m RelayMsg) WireSize() int { return 14 + m.Inner.WireSize() }

// Kind returns the constant "relay": per-kind metrics meter forwarding
// traffic separately from the protocol kinds it carries, and a constant
// avoids a per-send string allocation on the relay hot path.
func (m RelayMsg) Kind() string { return "relay" }

// Envelope is a message in flight.
type Envelope struct {
	From, To NodeID
	Msg      Message
	// Depth is the causal depth at which the envelope becomes deliverable:
	// 1 + the depth of the delivery during which it was sent (initial sends
	// have depth 1). The SyncRunner uses Depth as the delivery round.
	Depth int
	// Inst is the agreement-instance tag of a multiplexed decision-log
	// envelope, valid when Tagged is set. Carrying the tag in the envelope
	// header keeps the send path free of wrapper allocations; InstMsg is
	// the equivalent in-message representation (the wire format, and the
	// fallback for runners without tagged-send support).
	Inst   uint32
	Tagged bool
	// seq is the global send sequence number; schedulers use it for
	// deterministic tie-breaking and the age bound.
	seq uint64
}

// Context is handed to a node for every activation. It is only valid for
// the duration of the call.
type Context interface {
	// Now returns the current time: the delivery round (sync) or the causal
	// depth of the message being handled (async). During Init, Now is 0.
	Now() int
	// Send enqueues a message to the given node.
	Send(to NodeID, m Message)
}

// Node is a protocol actor. Implementations must be single-threaded per
// node: runners guarantee Init and Deliver calls on one node never overlap.
type Node interface {
	// Init is called exactly once before any delivery; initial protocol
	// messages (e.g. the AER push) are sent here.
	Init(ctx Context)
	// Deliver handles one message from an authenticated sender.
	Deliver(ctx Context, from NodeID, m Message)
}

// TaggedSender is implemented by runner contexts that can stamp an
// instance tag into the envelope header itself (the Fabric). Multiplexing
// senders probe for it and fall back to wrapping in InstMsg.
type TaggedSender interface {
	// SendTagged enqueues m with the instance tag, metered exactly like
	// Send(to, InstMsg{Inst: inst, Inner: m}) but without the wrapper
	// allocation.
	SendTagged(to NodeID, m Message, inst uint32)
}

// TaggedNode is a Node that consumes envelope instance tags. Runners that
// carry tags in the envelope header (the Fabric) route tagged deliveries
// to DeliverTagged; other runners deliver the InstMsg wrapper through
// plain Deliver.
type TaggedNode interface {
	Node
	// DeliverTagged handles one instance-tagged message.
	DeliverTagged(ctx Context, from NodeID, m Message, inst uint32)
}

// instTagOverhead is the extra metered bytes of a tagged envelope: the
// 4-byte instance tag plus the inner kind byte — identical to the InstMsg
// wire representation, so metering does not depend on which form carried
// the tag.
const instTagOverhead = 5

// Rusher is implemented by Byzantine nodes that exploit a rushing adversary
// model. After the correct nodes of a synchronous round have produced their
// messages, the SyncRunner shows them to each Rusher, which may then send
// additional messages *within the same round*.
type Rusher interface {
	Node
	// Rush observes the envelopes sent by correct nodes during the current
	// round and may send its own round messages through ctx.
	Rush(ctx Context, round int, correctSends []Envelope)
}

// NodeMetrics aggregates one node's traffic.
type NodeMetrics struct {
	SentMsgs  int64
	SentBytes int64
	RecvMsgs  int64
	RecvBytes int64
}

// Observer receives every delivered envelope, in delivery order, after the
// receiving node has handled it (so post-delivery node state is readable).
// The event-loop runners call it synchronously from the delivery path (the
// Fabric buffers per shard and replays in one ordered pass at Stop), so
// implementations must be fast and must not call back into the runner.
type Observer func(e Envelope)

// Metrics aggregates a run.
type Metrics struct {
	PerNode []NodeMetrics
	ByKind  map[string]int64 // message count per kind
	// Rounds is the number of synchronous rounds executed (sync runner) or
	// the maximum causal depth of any delivered message (async runners).
	Rounds int
	// Delivered is the total number of delivered messages.
	Delivered int64
	// Net carries the connection-supervision counters of a network
	// transport run (the TCP cluster); nil for in-process runners.
	Net *NetStats

	// kinds is the run of same-kind sends not yet folded into ByKind; the
	// runners fold it before they hand the metrics out.
	kinds kindRun
}

// kindRun counts sends per kind without hashing the kind string per message.
// Kinds arrive in long runs — a fan-out is one kind, a protocol phase mostly
// one — so the meter counts the current run in a field and touches the map
// only when the kind changes.
type kindRun struct {
	kind  string
	count int64
}

// add counts one send of the given kind, folding the previous run into
// byKind when the kind changes.
func (k *kindRun) add(byKind map[string]int64, kind string) {
	if kind != k.kind {
		k.fold(byKind)
		k.kind = kind
	}
	k.count++
}

// fold moves the current run into byKind.
func (k *kindRun) fold(byKind map[string]int64) {
	if k.count > 0 {
		byKind[k.kind] += k.count
		k.count = 0
	}
}

func newMetrics(n int) *Metrics {
	return &Metrics{PerNode: make([]NodeMetrics, n), ByKind: make(map[string]int64)}
}

// recordSend meters one send of size bytes (payload + envelope overhead).
func (m *Metrics) recordSend(from NodeID, size int64, kind string) {
	pm := &m.PerNode[from]
	pm.SentMsgs++
	pm.SentBytes += size
	m.kinds.add(m.ByKind, kind)
}

// recordDeliver meters one delivery of size bytes at the given time.
func (m *Metrics) recordDeliver(to NodeID, size int64, depth int) {
	pm := &m.PerNode[to]
	pm.RecvMsgs++
	pm.RecvBytes += size
	m.Delivered++
	if depth > m.Rounds {
		m.Rounds = depth
	}
}

// foldKinds completes ByKind; runners call it before returning the metrics.
func (m *Metrics) foldKinds() { m.kinds.fold(m.ByKind) }

// TotalSentBits returns the total number of bits sent by all nodes.
func (m *Metrics) TotalSentBits() int64 {
	var total int64
	for i := range m.PerNode {
		total += m.PerNode[i].SentBytes
	}
	return total * 8
}

// MeanSentBits returns the per-node average of sent bits — the paper's
// amortized communication complexity metric (§2.1 "Complexity").
func (m *Metrics) MeanSentBits() float64 {
	if len(m.PerNode) == 0 {
		return 0
	}
	return float64(m.TotalSentBits()) / float64(len(m.PerNode))
}

// MaxSentBits returns the worst per-node sent bits — the load-balance
// metric: for load-balanced protocols Max ≈ Mean, while AER deliberately
// relaxes this (Figure 1(a) "Load-Balanced" row).
func (m *Metrics) MaxSentBits() int64 {
	var max int64
	for i := range m.PerNode {
		if b := m.PerNode[i].SentBytes * 8; b > max {
			max = b
		}
	}
	return max
}

// validateSend panics on malformed addressing; protocols constructing
// bad destinations is a programming error we want loudly and early.
func validateSend(n int, to NodeID, m Message) {
	if to < 0 || to >= n {
		panic(fmt.Sprintf("simnet: send to invalid node %d (n=%d)", to, n))
	}
	if m == nil {
		panic("simnet: nil message")
	}
}
