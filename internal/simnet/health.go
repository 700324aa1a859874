package simnet

// Transport health. Ping and Pong are the heartbeat frames of the TCP
// runtime's failure detector: the dialing side of an idle link sends a
// Ping, the accepting side answers with a Pong carrying the same nonce,
// and an unanswered Ping past the suspect window marks the link suspect.
// They are transport-internal — they travel on the wire like any other
// frame but are consumed by the connection supervisor and never delivered
// to a Node, never metered in Metrics, and never counted toward
// quiescence.

// Ping is a heartbeat probe on an idle link. Nonce is the sender's clock
// reading, echoed back by the matching Pong.
type Ping struct {
	Nonce uint64
}

func (Ping) WireSize() int { return 8 }
func (Ping) Kind() string  { return "ping" }

// Pong answers a Ping, echoing its nonce.
type Pong struct {
	Nonce uint64
}

func (Pong) WireSize() int { return 8 }
func (Pong) Kind() string  { return "pong" }

// NetStats aggregates the connection-supervision counters of a network
// run: dial/redial churn, the failure detector's suspect/recover
// transitions, the overload policy's shed count, and the chaos
// controller's strike tally. All fields are monotone counters; the struct
// is comparable, so a zero check is `stats == NetStats{}`.
type NetStats struct {
	// Dials counts first successful dials — i.e. distinct links that ever
	// carried traffic. Redials counts successful re-establishments after a
	// failure, FailedDials counts connect attempts that errored.
	Dials       int64 `json:"dials"`
	Redials     int64 `json:"redials"`
	FailedDials int64 `json:"failedDials"`
	// DroppedDown counts frames dropped because the peer's redial budget
	// was exhausted and the link is in its down cooldown.
	DroppedDown int64 `json:"droppedDown"`
	// Suspects and Recoveries are the failure detector's transitions;
	// DeadLinks counts links whose redial budget ran out (transitions into
	// the down state). PingsSent/PongsReceived meter the heartbeat traffic.
	Suspects      int64 `json:"suspects"`
	Recoveries    int64 `json:"recoveries"`
	DeadLinks     int64 `json:"deadLinks"`
	PingsSent     int64 `json:"pingsSent"`
	PongsReceived int64 `json:"pongsReceived"`
	// ChaosStrikes counts chaos-plan strikes that landed on a live socket,
	// ChaosSkips scheduled strikes that found no socket to sever, and
	// LinksSevered the distinct (from, to) links severed at least once.
	ChaosStrikes int64 `json:"chaosStrikes"`
	ChaosSkips   int64 `json:"chaosSkips"`
	LinksSevered int64 `json:"linksSevered"`
	// FramesSent counts data frames written to sockets; MessagesSent the
	// protocol messages they carried (a coalesced batch frame is one frame,
	// many messages, so FramesSent < MessagesSent proves batching engaged);
	// BatchFrames the subset of written frames that were batches. Heartbeat
	// frames count in none of the three.
	FramesSent   int64 `json:"framesSent"`
	MessagesSent int64 `json:"messagesSent"`
	BatchFrames  int64 `json:"batchFrames"`
}

// Add accumulates another run's counters (e.g. across the crash/recover
// legs of a load run).
func (s *NetStats) Add(o NetStats) {
	s.Dials += o.Dials
	s.Redials += o.Redials
	s.FailedDials += o.FailedDials
	s.DroppedDown += o.DroppedDown
	s.Suspects += o.Suspects
	s.Recoveries += o.Recoveries
	s.DeadLinks += o.DeadLinks
	s.PingsSent += o.PingsSent
	s.PongsReceived += o.PongsReceived
	s.ChaosStrikes += o.ChaosStrikes
	s.ChaosSkips += o.ChaosSkips
	s.LinksSevered += o.LinksSevered
	s.FramesSent += o.FramesSent
	s.MessagesSent += o.MessagesSent
	s.BatchFrames += o.BatchFrames
}
