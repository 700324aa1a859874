package fastba

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/fastba/fastba/internal/metrics"
	"github.com/fastba/fastba/internal/prng"
)

// The sustained-load harness: drive a DecisionLog with concurrent clients
// for a fixed duration and report throughput and commit-latency
// percentiles. This is the workload family nothing single-shot can
// express — steady-state ingest, bursty open-loop rates, fault plans
// under load — and the Workload axis plugs it into the experiment suite
// (Sweep.Workloads, KindLog).

// Workload shapes one sustained-load run.
type Workload struct {
	// Clients is the number of concurrent proposers (default 4).
	Clients int `json:"clients"`
	// Rate is each client's open-loop proposal rate in payloads/second;
	// 0 runs closed-loop (propose as fast as backpressure admits).
	Rate float64 `json:"rate,omitempty"`
	// PayloadBytes sizes each proposed payload (default 32).
	PayloadBytes int `json:"payloadBytes"`
	// Duration bounds the proposing phase (default 2s); commits still in
	// the pipeline when it ends are drained by the log's Close.
	Duration time.Duration `json:"durationNs"`
	// Restarts crash-and-recovers the log this many times during the run,
	// splitting Duration into Restarts+1 equal legs: at each boundary the
	// log is hard-crashed (no final fsync), reopened from its store
	// directory, and the recovered log is checked against the pre-crash
	// committed prefix (OracleLogDurability). Requires WithLogStore.
	Restarts int `json:"restarts,omitempty"`
}

// withDefaults fills the zero fields.
func (w Workload) withDefaults() Workload {
	if w.Clients <= 0 {
		w.Clients = 4
	}
	if w.PayloadBytes <= 0 {
		w.PayloadBytes = 32
	}
	if w.Duration <= 0 {
		w.Duration = 2 * time.Second
	}
	return w
}

// Label renders the compact cell label of the workload axis.
func (w Workload) Label() string {
	w = w.withDefaults()
	rate := "max"
	if w.Rate > 0 {
		rate = fmt.Sprintf("%g/s", w.Rate)
	}
	label := fmt.Sprintf("c%d·%s·%dB·%s", w.Clients, rate, w.PayloadBytes, w.Duration)
	if w.Restarts > 0 {
		label += fmt.Sprintf("·r%d", w.Restarts)
	}
	return label
}

// WithWorkload sets the load-harness workload (RunLoad, Sweep.Workloads).
func WithWorkload(w Workload) Option {
	return optionFunc(func(c *Config) { c.workload = w })
}

// LatencyHistogramEdges returns the bounded commit-latency histogram
// edges, in milliseconds (renderers need them to label the unbounded
// final bucket). The edges are shared with the daemon's /metrics latency
// series (metrics.LatencyBucketsMs), so result histograms and scraped
// histograms are directly comparable.
func LatencyHistogramEdges() []float64 {
	return append([]float64(nil), metrics.LatencyBucketsMs...)
}

// HistBucket is one commit-latency histogram bucket.
type HistBucket struct {
	// UpToMs is the bucket's inclusive upper edge in milliseconds; the
	// final bucket has UpToMs 0, meaning unbounded.
	UpToMs float64 `json:"upToMs"`
	Count  int     `json:"count"`
}

// latencyHistogram buckets latencies (in ms) over the shared edges.
func latencyHistogram(ms []float64) []HistBucket {
	if len(ms) == 0 {
		return nil
	}
	edges := metrics.LatencyBucketsMs
	hist := make([]HistBucket, len(edges)+1)
	for i, edge := range edges {
		hist[i].UpToMs = edge
	}
	for _, v := range ms {
		placed := false
		for i, edge := range edges {
			if v <= edge {
				hist[i].Count++
				placed = true
				break
			}
		}
		if !placed {
			hist[len(hist)-1].Count++
		}
	}
	return hist
}

// LoadResult reports one sustained-load run.
type LoadResult struct {
	// Workload and Runtime identify the run; Depth is the pipelining
	// depth it ran at.
	Workload Workload `json:"workload"`
	Runtime  string   `json:"runtime"`
	Depth    int      `json:"depth"`
	// Proposed counts payloads accepted from clients; CommittedPayloads
	// of them reached a committed entry; Committed counts entries.
	Proposed          int `json:"proposed"`
	CommittedPayloads int `json:"committedPayloads"`
	Committed         int `json:"committed"`
	// Elapsed is the wall time from the first proposal to the end of the
	// drain (Close returning).
	Elapsed time.Duration `json:"elapsedNs"`
	// EntriesPerSec and PayloadsPerSec are committed throughput over
	// Elapsed.
	EntriesPerSec  float64 `json:"entriesPerSec"`
	PayloadsPerSec float64 `json:"payloadsPerSec"`
	// CommitP50/P99 are submit-to-commit latency percentiles over
	// committed payloads; Hist is the full histogram.
	CommitP50 time.Duration `json:"commitP50Ns"`
	CommitP99 time.Duration `json:"commitP99Ns"`
	Hist      []HistBucket  `json:"hist,omitempty"`
	// Restarts counts the crash/recover cycles performed; Recovered is the
	// total number of committed entries seeded back from the store across
	// all reopens. Zero for in-memory runs.
	Restarts  int `json:"restarts,omitempty"`
	Recovered int `json:"recovered,omitempty"`
	// Net accumulates the TCP transport's connection-supervision counters
	// across all restart legs (zero for fabric runs): dial/redial churn,
	// failure-detector transitions, shed frames, chaos strikes.
	Net NetStats `json:"net,omitempty"`
	// Oracles is the cross-instance invariant verdict on the committed
	// log, including the durability oracle when the run restarted.
	Oracles OracleReport `json:"oracles"`
	// Err carries the log's fatal error, if any (e.g. a lossy plan
	// stalling the head instance past the timeout). A run with Err can
	// still hold a useful committed prefix.
	Err string `json:"err,omitempty"`
}

// RunLoad drives a DecisionLog with the configured Workload: Clients
// concurrent proposers for Duration, then a draining Close, then
// invariant checking. The log's shape (runtime, depth, batch, linger,
// faults, population) comes from the same options every other entry
// point uses. With Workload.Restarts > 0 (and a log store configured)
// the run is split into restart legs: at each boundary the log hard-
// crashes, reopens from its store directory, and the recovered prefix
// is checked for durability before the next leg's clients start.
func RunLoad(ctx context.Context, cfg Config) (*LoadResult, error) {
	w := cfg.workload.withDefaults()
	legs := 1
	if w.Restarts > 0 {
		if cfg.storeDir == "" {
			return nil, fmt.Errorf("fastba: Workload.Restarts requires a durable log (WithLogStore)")
		}
		legs = w.Restarts + 1
	}
	log, err := OpenLog(ctx, cfg)
	if err != nil {
		return nil, err
	}
	depth := cfg.logDepth
	if depth <= 0 {
		depth = 1
	}
	res := &LoadResult{Workload: w, Runtime: log.Runtime().String(), Depth: depth}

	var (
		wg        sync.WaitGroup
		mu        sync.Mutex
		pending   []*Ticket // tickets still unresolved when their client stopped
		latencies []float64 // submit-to-commit, ms, harvested as tickets resolve
		committed int
		proposed  int
	)
	legDur := w.Duration / time.Duration(legs)
	runLeg := func(clientCtx context.Context, log *DecisionLog, leg int) {
		for c := 0; c < w.Clients; c++ {
			wg.Add(1)
			go func(client int) {
				defer wg.Done()
				// Leg 0 keeps the original per-client key so durable runs
				// replay the same leading proposal stream as in-memory ones;
				// later legs derive fresh streams.
				key := uint64(client)
				if leg > 0 {
					key = uint64(leg)<<32 | uint64(client)
				}
				src := prng.New(prng.DeriveKey(cfg.seed, "load/client", key))
				payload := make([]byte, w.PayloadBytes)
				var pacer *time.Timer
				if w.Rate > 0 {
					// One reused timer per client: a fresh time.After per
					// proposal would churn the timer heap inside the very
					// harness that measures latency.
					pacer = time.NewTimer(time.Duration(float64(time.Second) / w.Rate))
					defer pacer.Stop()
				}
				// Tickets are harvested as they resolve, so the client retains
				// only its in-flight window (bounded by depth × batch plus the
				// ingest buffer) instead of one Ticket per payload for the
				// whole run — the harness must not let measurement state
				// perturb the latencies it measures.
				var mine []*Ticket
				var lats []float64
				resolvedHits := 0
				harvest := func() {
					kept := mine[:0]
					for _, t := range mine {
						lat, done, err := t.poll()
						if !done {
							kept = append(kept, t)
						} else if err == nil { // one resolved with an error is dropped
							lats = append(lats, float64(lat)/float64(time.Millisecond))
							resolvedHits++
						}
					}
					mine = kept
				}
				count := 0
				for clientCtx.Err() == nil {
					for i := range payload {
						payload[i] = byte(src.Uint64())
					}
					t, err := log.Propose(clientCtx, append([]byte(nil), payload...))
					if err != nil {
						break
					}
					mine = append(mine, t)
					count++
					if len(mine) >= 64 {
						harvest()
					}
					if pacer != nil {
						select {
						case <-clientCtx.Done():
						case <-pacer.C:
							pacer.Reset(time.Duration(float64(time.Second) / w.Rate))
						}
					}
				}
				harvest()
				mu.Lock()
				pending = append(pending, mine...)
				latencies = append(latencies, lats...)
				committed += resolvedHits
				proposed += count
				mu.Unlock()
			}(c)
		}
		wg.Wait()
	}

	start := time.Now()
	var durability []Violation
	for leg := 0; leg < legs; leg++ {
		clientCtx, stopClients := context.WithTimeout(ctx, legDur)
		runLeg(clientCtx, log, leg)
		stopClients()
		if leg == legs-1 {
			break
		}
		// Restart boundary: hard-crash (no final fsync — kill -9
		// semantics), reopen from the same store directory, and require
		// the recovered log to extend everything committed before the
		// crash. Net counters die with the crashed cluster; bank them.
		before := log.Committed()
		log.Crash()
		res.Net.Add(log.NetStats()) // bank the dead cluster's counters
		log, err = OpenLog(ctx, cfg)
		if err != nil {
			return nil, fmt.Errorf("fastba: reopen after restart %d: %w", leg+1, err)
		}
		res.Restarts++
		res.Recovered += log.Recovered()
		if rep := CheckLogDurability(before, log.Committed()); !rep.OK() {
			durability = append(durability, rep.Violations...)
		}
	}
	closeErr := log.Close()
	res.Net.Add(log.NetStats()) // counters survive shutdown; read after the drain
	res.Elapsed = time.Since(start)
	res.Proposed = proposed
	if closeErr != nil && ctx.Err() != nil {
		return nil, ctx.Err()
	}
	if closeErr != nil {
		res.Err = closeErr.Error()
	}

	entries := log.Committed()
	res.Committed = len(entries)
	// Final sweep: tickets still outstanding when their client stopped
	// resolved (or failed) during the draining Close above.
	for _, t := range pending {
		if lat, done, err := t.poll(); done && err == nil {
			committed++
			latencies = append(latencies, float64(lat)/float64(time.Millisecond))
		}
	}
	res.CommittedPayloads = committed
	if secs := res.Elapsed.Seconds(); secs > 0 {
		res.EntriesPerSec = float64(res.Committed) / secs
		res.PayloadsPerSec = float64(res.CommittedPayloads) / secs
	}
	if len(latencies) > 0 {
		res.CommitP50 = time.Duration(metrics.Quantile(latencies, 0.5) * float64(time.Millisecond))
		res.CommitP99 = time.Duration(metrics.Quantile(latencies, 0.99) * float64(time.Millisecond))
		res.Hist = latencyHistogram(latencies)
	}
	res.Oracles = CheckLogInvariants(entries, cfg.knowFrac)
	if res.Restarts > 0 {
		res.Oracles.Checked = append(res.Oracles.Checked, OracleLogDurability)
		sort.Strings(res.Oracles.Checked)
		res.Oracles.Violations = append(res.Oracles.Violations, durability...)
	}
	exportLoadMetrics(cfg.metricsReg, res, latencies)
	return res, nil
}
