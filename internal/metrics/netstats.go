package metrics

import "github.com/fastba/fastba/internal/simnet"

// LatencyBucketsMs are the shared commit-latency histogram edges
// (milliseconds): the load harness's result histograms and the daemon's
// /metrics latency series use the same edges, so their distributions are
// directly comparable.
var LatencyBucketsMs = []float64{1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000}

// LatencyBucketsSeconds returns the shared edges in seconds — the
// Prometheus convention for *_seconds histograms.
func LatencyBucketsSeconds() []float64 {
	out := make([]float64, len(LatencyBucketsMs))
	for i, ms := range LatencyBucketsMs {
		out[i] = ms / 1e3
	}
	return out
}

// netStatsCounters names every NetStats field in exposition order. One
// table keeps the registry bridge and the golden test in lockstep with
// the struct.
var netStatsCounters = []struct {
	name, help string
	get        func(s simnet.NetStats) int64
}{
	{"fastba_net_dials_total", "First successful dials of a supervised link.", func(s simnet.NetStats) int64 { return s.Dials }},
	{"fastba_net_redials_total", "Successful re-establishments after a link failure.", func(s simnet.NetStats) int64 { return s.Redials }},
	{"fastba_net_failed_dials_total", "Failed connect attempts.", func(s simnet.NetStats) int64 { return s.FailedDials }},
	{"fastba_net_dropped_down_total", "Frames dropped while their link was down.", func(s simnet.NetStats) int64 { return s.DroppedDown }},
	{"fastba_net_suspects_total", "Heartbeat suspect transitions.", func(s simnet.NetStats) int64 { return s.Suspects }},
	{"fastba_net_recoveries_total", "Suspected or down links confirmed alive again.", func(s simnet.NetStats) int64 { return s.Recoveries }},
	{"fastba_net_dead_links_total", "Links whose redial budget ran out.", func(s simnet.NetStats) int64 { return s.DeadLinks }},
	{"fastba_net_pings_sent_total", "Heartbeat pings sent.", func(s simnet.NetStats) int64 { return s.PingsSent }},
	{"fastba_net_pongs_received_total", "Heartbeat pongs received.", func(s simnet.NetStats) int64 { return s.PongsReceived }},
	{"fastba_net_chaos_strikes_total", "Chaos-plan connection strikes executed.", func(s simnet.NetStats) int64 { return s.ChaosStrikes }},
	{"fastba_net_chaos_skips_total", "Chaos strikes skipped (no live target).", func(s simnet.NetStats) int64 { return s.ChaosSkips }},
	{"fastba_net_links_severed_total", "Live connections severed by chaos.", func(s simnet.NetStats) int64 { return s.LinksSevered }},
	{"fastba_net_frames_sent_total", "Data frames written to sockets.", func(s simnet.NetStats) int64 { return s.FramesSent }},
	{"fastba_net_messages_sent_total", "Protocol messages carried by those frames.", func(s simnet.NetStats) int64 { return s.MessagesSent }},
	{"fastba_net_batch_frames_total", "Coalesced (batch) frames among frames sent.", func(s simnet.NetStats) int64 { return s.BatchFrames }},
}

// RegisterNetStats exposes a live NetStats source through the registry:
// one fastba_net_* counter family per field, read from get at exposition
// time. The supervision counters keep living in their atomic block — the
// registry is a view, not a second bookkeeping path.
func RegisterNetStats(r *Registry, get func() simnet.NetStats, labels ...string) {
	for _, c := range netStatsCounters {
		c := c
		r.CounterFunc(c.name, c.help, func() float64 { return float64(c.get(get())) }, labels...)
	}
}
