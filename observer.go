package fastba

import (
	"io"
	"sync"

	"github.com/fastba/fastba/internal/trace"
)

// EventType classifies streaming execution events.
type EventType int

// Event types.
const (
	// EventDeliver fires for every delivered message.
	EventDeliver EventType = iota + 1
	// EventRound fires when execution time advances: the start of a new
	// synchronous round or the first delivery at a new causal depth.
	EventRound
	// EventDecision fires when a correct node decides (AER runs; the To
	// field names the decider).
	EventDecision
	// EventCommit fires when a decision log commits an entry: Time is the
	// entry's sequence number, Size the total payload bytes folded into
	// it. Full entries are available through DecisionLog.Committed.
	EventCommit
	// EventPeerSuspect fires when the TCP failure detector suspects the
	// link From → To (heartbeat unanswered or write stalled), or escalates
	// it to down after the redial budget runs out (Kind distinguishes:
	// "suspect" vs "down"). TCP runs only; streamed live, not buffered.
	EventPeerSuspect
	// EventPeerAlive fires when a suspected or down link From → To is
	// confirmed alive again (a pong arrived, or a redial succeeded).
	EventPeerAlive
	// EventReconnect fires when a broken link From → To is re-established
	// by the supervisor's backoff redial.
	EventReconnect
)

// String implements fmt.Stringer.
func (t EventType) String() string {
	switch t {
	case EventDeliver:
		return "deliver"
	case EventRound:
		return "round"
	case EventDecision:
		return "decision"
	case EventCommit:
		return "commit"
	case EventPeerSuspect:
		return "peer-suspect"
	case EventPeerAlive:
		return "peer-alive"
	case EventReconnect:
		return "reconnect"
	default:
		return "event"
	}
}

// Event is one streaming observation from a running execution.
type Event struct {
	Type EventType
	// Time is the synchronous round or asynchronous causal depth; under
	// the TCP model, the receiving node's delivery count.
	Time int
	// From and To address the delivery; for EventDecision, To is the
	// deciding node and From is -1.
	From, To NodeID
	// Kind is the message kind of a delivery ("push", "poll", ...).
	Kind string
	// Size is the delivered payload's wire size in bytes.
	Size int
}

// Observer receives execution events, in delivery order. Runners invoke it
// synchronously from the delivery path (concurrent runtimes serialize the
// calls), so implementations must be fast and must not call back into the
// run. Register one per run with WithObserver.
type Observer func(Event)

// Trace aggregates delivery events into the package's debugging views: a
// per-time message-kind timeline (the temporal version of the paper's
// Figure 2) and a most-loaded-nodes sketch for spotting hot spots under
// the cornering attack. It is safe for use with every runtime, including
// Goroutines and TCP runs.
type Trace struct {
	mu sync.Mutex
	tr *trace.Trace
}

// NewTrace returns a Trace for n nodes. Attach it to a run with
// WithObserver(t.Observer()) and render after the run returns.
func NewTrace(n int) *Trace {
	return &Trace{tr: trace.New(n)}
}

// Observer returns the hook to pass to WithObserver.
func (t *Trace) Observer() Observer {
	return func(ev Event) {
		if ev.Type != EventDeliver {
			return
		}
		t.mu.Lock()
		t.tr.Record(ev.Time, ev.Kind, ev.To)
		t.mu.Unlock()
	}
}

// Timeline renders deliveries per time step and kind, one line per step.
func (t *Trace) Timeline(w io.Writer) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.tr.Timeline(w)
}

// Hotspots renders the most-loaded nodes by deliveries received, up to
// limit entries.
func (t *Trace) Hotspots(w io.Writer, limit int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.tr.Hotspots(w, limit)
}

// MaxTime returns the largest delivery time observed.
func (t *Trace) MaxTime() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.tr.MaxTime()
}

// TotalDeliveries returns the number of observed deliveries.
func (t *Trace) TotalDeliveries() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.tr.TotalDeliveries()
}
