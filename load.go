package fastba

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/fastba/fastba/internal/metrics"
	"github.com/fastba/fastba/internal/prng"
)

// The sustained-load harness: drive a decision log with concurrent
// closed-loop clients for a fixed duration and report throughput and
// client-observed commit-latency percentiles. One client loop (driveLoad)
// serves both targets — the in-process DecisionLog (RunLoad, fabric or
// TCP) and a cluster of balogd processes (RunDaemonLoad) — so the two
// harnesses' numbers mean the same thing. The Workload axis plugs the
// in-process harness into the experiment suite (Sweep.Workloads, KindLog).

// Workload shapes one sustained-load run.
type Workload struct {
	// Clients is the number of concurrent client sessions (default 4).
	Clients int `json:"clients"`
	// Pipeline is how many appends each session keeps in flight (default
	// 1 — strictly closed-loop: each append waits for its ack before the
	// next is issued). The daemon's admission queue is per session, so a
	// Pipeline larger than its QueueMax is what forces ErrOverload.
	Pipeline int `json:"pipeline,omitempty"`
	// Rate is each client's open-loop proposal rate in payloads/second;
	// 0 runs closed-loop (propose as fast as acks return).
	Rate float64 `json:"rate,omitempty"`
	// PayloadBytes sizes each proposed payload (default 32).
	PayloadBytes int `json:"payloadBytes"`
	// Duration bounds the proposing phase (default 2s); appends in flight
	// when it ends are waited out and counted.
	Duration time.Duration `json:"durationNs"`
	// Restarts crash-and-recovers the log this many times during the run.
	// In-process (RunLoad, requires WithLogStore) Duration splits into
	// Restarts+1 equal legs: at each boundary the log is hard-crashed (no
	// final fsync) with appends in flight — those count as Lost — reopened
	// from its store directory, and checked against
	// the pre-crash committed prefix (OracleLogDurability). Against
	// daemons (RunDaemonLoad) the last daemon is SIGKILLed at
	// (2i+1)/(2R+1) of the run and restarted at (2i+2)/(2R+1).
	Restarts int `json:"restarts,omitempty"`
}

// withDefaults fills the zero fields.
func (w Workload) withDefaults() Workload {
	if w.Clients <= 0 {
		w.Clients = 4
	}
	if w.Pipeline <= 0 {
		w.Pipeline = 1
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
	if w.Pipeline > 1 {
		label += fmt.Sprintf("·p%d", w.Pipeline)
	}
	if w.Restarts > 0 {
		label += fmt.Sprintf("·r%d", w.Restarts)
	}
	return label
}

// WithWorkload sets the load-harness workload (RunLoad, Sweep.Workloads).
func WithWorkload(w Workload) Option {
	return optionFunc(func(c *Config) { c.workload = w })
}

// HistBucket is one commit-latency histogram bucket.
type HistBucket struct {
	// UpToMs is the bucket's inclusive upper edge in milliseconds; the
	// final bucket has UpToMs 0, meaning unbounded.
	UpToMs float64 `json:"upToMs"`
	Count  int     `json:"count"`
}

// latencyHistogram buckets latencies (in ms) over the edges the daemon's
// /metrics latency series uses (metrics.LatencyBucketsMs), so result and
// scraped histograms are directly comparable.
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
		// The first edge ≥ v; past the last edge, the unbounded bucket.
		hist[sort.SearchFloat64s(edges, v)].Count++
	}
	return hist
}

// LoadResult reports one sustained-load run, in-process or against a
// daemon cluster.
type LoadResult struct {
	// Workload and Runtime ("fabric", "tcp" or "daemon") identify the run;
	// Depth is the pipelining depth it ran at (0 on a daemon run: balogd's
	// default).
	Workload Workload `json:"workload"`
	Runtime  string   `json:"runtime"`
	Depth    int      `json:"depth"`
	// Proposed counts append attempts; CommittedPayloads of them were
	// acked; Overloads were shed by admission control (ErrOverload); Lost
	// failed otherwise (a session error, a failed or crashed log).
	// Committed counts entries; MaxAckedSeq is the highest sequence number
	// acked to a client.
	Proposed          int    `json:"proposed"`
	CommittedPayloads int    `json:"committedPayloads"`
	Overloads         int    `json:"overloads"`
	Lost              int    `json:"lost"`
	Committed         int    `json:"committed"`
	MaxAckedSeq       uint64 `json:"maxAckedSeq"`
	// Elapsed is the wall time from the first proposal to the end of the
	// drain (Close returning, or every daemon stopped).
	Elapsed time.Duration `json:"elapsedNs"`
	// EntriesPerSec and PayloadsPerSec are committed throughput over
	// Elapsed.
	EntriesPerSec  float64 `json:"entriesPerSec"`
	PayloadsPerSec float64 `json:"payloadsPerSec"`
	// CommitP50/P99 are client-observed append-to-ack latency percentiles
	// (timed from before the append call); Hist is the full histogram.
	CommitP50 time.Duration `json:"commitP50Ns"`
	CommitP99 time.Duration `json:"commitP99Ns"`
	Hist      []HistBucket  `json:"hist,omitempty"`
	// Restarts counts the crash/recover cycles performed; Recovered is the
	// total number of committed entries seeded back from the store across
	// all in-process reopens.
	Restarts  int `json:"restarts,omitempty"`
	Recovered int `json:"recovered,omitempty"`
	// Net accumulates the in-process TCP transport's connection-supervision
	// counters across all restart legs (zero for fabric runs): dial/redial
	// churn, failure-detector transitions, chaos strikes.
	Net NetStats `json:"net,omitempty"`
	// Frontiers is each daemon's post-shutdown store frontier (committed
	// entry count); CommonPrefix the length of the byte-identical common
	// prefix across every daemon's store. Daemon runs only.
	Frontiers    []uint64 `json:"frontiers,omitempty"`
	CommonPrefix int      `json:"commonPrefix,omitempty"`
	// Scraped holds leader /metrics families sampled before shutdown
	// (fastba_commits_total, fastba_appends_total,
	// fastba_overload_shed_total). Daemon runs only.
	Scraped map[string]float64 `json:"scraped,omitempty"`
	// Oracles is the invariant verdict on the committed log: the
	// cross-instance oracles, the durability oracle when the run
	// restarted, and on daemon runs multi-process agreement
	// (byte-identical prefixes) and durability of every ack.
	Oracles OracleReport `json:"oracles"`
	// Dir is where a daemon run's stores, logs and binary live — kept on
	// failure.
	Dir string `json:"dir,omitempty"`
	// Err carries the log's or the harness's fatal error, if any (e.g. a
	// lossy plan stalling the head instance past the timeout). A run with
	// Err can still hold a useful committed prefix.
	Err string `json:"err,omitempty"`
}

// settle fills the result from the client loop's tally once Committed and
// Elapsed are known: the counts, throughput, and the commit-latency
// percentiles and histogram.
func (r *LoadResult) settle(t loadTally) {
	r.Proposed, r.CommittedPayloads = t.proposed, t.acked
	r.Overloads, r.Lost, r.MaxAckedSeq = t.overloads, t.lost, t.maxAckedSeq
	if secs := r.Elapsed.Seconds(); secs > 0 {
		r.EntriesPerSec = float64(r.Committed) / secs
		r.PayloadsPerSec = float64(r.CommittedPayloads) / secs
	}
	if len(t.latencies) > 0 {
		r.CommitP50 = time.Duration(metrics.Quantile(t.latencies, 0.5) * float64(time.Millisecond))
		r.CommitP99 = time.Duration(metrics.Quantile(t.latencies, 0.99) * float64(time.Millisecond))
		r.Hist = latencyHistogram(t.latencies)
	}
}

// appendFunc appends one payload and blocks until it is acked, returning
// the committed sequence number.
type appendFunc func(ctx context.Context, payload []byte) (uint64, error)

// dialFunc opens client c's session; all of its Pipeline workers append
// through the returned function, and closeFn ends the session. Against a
// daemon that is one SDK connection: pipelined appends interleave on it,
// which is what fills a per-session admission queue past QueueMax.
type dialFunc func(ctx context.Context, client int) (app appendFunc, closeFn func(), err error)

// loadTally is what the client loop counts.
type loadTally struct {
	proposed, acked, overloads, lost int
	maxAckedSeq                      uint64
	latencies                        []float64 // append-to-ack, ms
}

func (t *loadTally) merge(o loadTally) {
	t.proposed += o.proposed
	t.acked += o.acked
	t.overloads += o.overloads
	t.lost += o.lost
	t.maxAckedSeq = max(t.maxAckedSeq, o.maxAckedSeq)
	t.latencies = append(t.latencies, o.latencies...)
}

// overloadBackoff is the pause after an ErrOverload: admission control
// never admitted the request, so a paced resend is safe once the queue
// has drained a beat.
const overloadBackoff = 2 * time.Millisecond

// driveLoad is the one client loop of both load harnesses: w.Clients
// sessions, each with w.Pipeline workers keeping one append in flight.
// Workers issue until drive ends and then wait out their in-flight append
// (issued under ctx), so acks that arrive during the drain are counted.
// Worker k of client c on leg l draws its payloads from
// DeriveKey(seed, "load/client", l<<32 | c<<16 | k).
func driveLoad(ctx, drive context.Context, w Workload, seed uint64, leg int, dial dialFunc) loadTally {
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		total loadTally
	)
	for c := 0; c < w.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			app, closeFn, err := dial(drive, c)
			if err != nil {
				return // a client that cannot connect contributes nothing
			}
			defer closeFn()
			var workers sync.WaitGroup
			for k := 0; k < w.Pipeline; k++ {
				workers.Add(1)
				go func(k int) {
					defer workers.Done()
					key := prng.DeriveKey(seed, "load/client", uint64(leg)<<32|uint64(c)<<16|uint64(k))
					t := loadWorker(ctx, drive, w, prng.New(key), app)
					mu.Lock()
					total.merge(t)
					mu.Unlock()
				}(k)
			}
			workers.Wait()
		}(c)
	}
	wg.Wait()
	return total
}

// loadWorker issues appends one at a time until drive ends and classifies
// each outcome once: ack, overload (back off), run over (ctx ended), or
// lost.
func loadWorker(ctx, drive context.Context, w Workload, src *prng.Source, app appendFunc) loadTally {
	var t loadTally
	payload := make([]byte, w.PayloadBytes)
	var pacer *time.Timer
	if w.Rate > 0 {
		// One reused timer per worker: a fresh time.After per append would
		// churn the timer heap inside the very harness that measures latency.
		pacer = time.NewTimer(time.Duration(float64(time.Second) / w.Rate))
		defer pacer.Stop()
	}
	for drive.Err() == nil {
		for i := range payload {
			payload[i] = byte(src.Uint64())
		}
		t.proposed++
		t0 := time.Now()
		seq, err := app(ctx, append([]byte(nil), payload...))
		switch {
		case err == nil:
			t.acked++
			t.latencies = append(t.latencies, float64(time.Since(t0))/float64(time.Millisecond))
			t.maxAckedSeq = max(t.maxAckedSeq, seq)
		case errors.Is(err, ErrOverload):
			t.overloads++
			sleepCtx(drive, overloadBackoff)
		case ctx.Err() != nil:
			// run over
		default:
			// A daemon session heals on the next call (the SDK redials with
			// backoff); a failed in-process log ends the drive (driveLog).
			t.lost++
		}
		if pacer != nil {
			select {
			case <-drive.Done():
			case <-pacer.C:
				pacer.Reset(time.Duration(float64(time.Second) / w.Rate))
			}
		}
	}
	return t
}

// sleepCtx pauses for d or until ctx ends.
func sleepCtx(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}

// RunLoad drives a DecisionLog with the configured Workload: the client
// loop for Duration, then a draining Close, then invariant checking. The
// log's shape (runtime, depth, batch, linger, faults, population) comes
// from the same options every other entry point uses. With
// Workload.Restarts > 0 (and a log store configured) the run is split
// into restart legs: at each boundary the log hard-crashes, reopens from
// its store directory, and the recovered prefix is checked for
// durability before the next leg's clients start.
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
	res := &LoadResult{Workload: w, Runtime: log.Runtime().String(), Depth: max(cfg.logDepth, 1)}

	var tally loadTally
	start := time.Now()
	var durability []Violation
	for leg := 0; ; leg++ {
		last := leg == legs-1
		tally.merge(driveLog(ctx, log, w, cfg.seed, leg, w.Duration/time.Duration(legs), !last))
		if last {
			break
		}
		// Restart boundary: driveLog hard-crashed the log (no final fsync
		// — kill -9 semantics) with appends still in flight. Reopen from
		// the same store directory and require the recovered log to extend
		// everything committed before the crash. Net counters die with the
		// crashed cluster; bank them.
		before := log.Committed()
		res.Net.Add(log.NetStats())
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
	if closeErr != nil && ctx.Err() != nil {
		return nil, ctx.Err()
	}
	if closeErr != nil {
		res.Err = closeErr.Error()
	}

	entries := log.Committed()
	res.Committed = len(entries)
	res.settle(tally)
	res.Oracles = CheckLogInvariants(entries, cfg.knowFrac)
	if res.Restarts > 0 {
		res.Oracles.Checked = append(res.Oracles.Checked, OracleLogDurability)
		sort.Strings(res.Oracles.Checked)
		res.Oracles.Violations = append(res.Oracles.Violations, durability...)
	}
	return res, nil
}

// driveLog runs one leg of the client loop against an in-process log:
// every client appends with Propose + Ticket.Wait. A failed log ends the
// leg's drive phase — its Propose fails at once, so issuing on would only
// count losses. With crash set, the log is hard-crashed the moment the
// drive phase ends: the appends still in flight resolve with an error and
// count as lost, so the restart boundary cuts through live traffic.
func driveLog(ctx context.Context, log *DecisionLog, w Workload, seed uint64, leg int, d time.Duration, crash bool) loadTally {
	drive, stop := context.WithTimeout(ctx, d)
	defer stop()
	ended := make(chan struct{})
	go func() {
		defer close(ended)
		select {
		case <-log.eng.Failed():
			stop()
		case <-drive.Done():
		}
		if crash {
			log.Crash()
		}
	}()
	propose := func(ctx context.Context, payload []byte) (uint64, error) {
		t, err := log.Propose(ctx, payload)
		if err != nil {
			return 0, err
		}
		e, err := t.Wait(ctx)
		return e.Seq, err
	}
	tally := driveLoad(ctx, drive, w, seed, leg, func(context.Context, int) (appendFunc, func(), error) {
		return propose, func() {}, nil
	})
	stop()
	<-ended
	return tally
}
