package main

// The four workloads and the one procedure that runs any of them: set-ups
// (construction plus a fixed-count warm-up), the timed closed-loop phase,
// the output check, and the protocol-count coda.

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"sort"
	"time"

	fastba "github.com/fastba/fastba"
)

// refSeconds is the run length the per-workload operation counts below are
// sized for on the 2-vCPU reference host; -seconds scales the counts, never
// a deadline, so a run's work is fixed before it starts.
const refSeconds = 15

// setups is how many times an untraced run constructs and warms the
// cluster; setup_s is their median and the last one carries the timed phase.
const setups = 3

// workload describes one row of the benchmark.
type workload struct {
	name string
	why  string
	// n is the protocol population; clients the closed loops driving it,
	// each operation of which carries window payloads.
	n, clients, window int
	// warmup and timed are operations per client at refSeconds; codaRuns is
	// how many agreements the protocol-count coda averages (more where one
	// is cheap and the seed moves its counts more).
	warmup, timed, codaRuns int
	// prepare, when set, runs once before any clock starts (a build).
	prepare func(ctx context.Context, e *env) error
	open    func(ctx context.Context, e *env, w workload, seed uint64) (cluster, error)
	// population is what one decision of this row runs on, for the coda.
	population []fastba.Option
}

// logPopulation is the decision-log rows' population: a tenth of the nodes
// fail-silent, every correct node handed the batch digest (the log's leader
// broadcasts it, so the knowledgeable fraction is 1 as in cmd/loadba).
var logPopulation = []fastba.Option{fastba.WithCorruptFrac(0.1), fastba.WithKnowFrac(1)}

// aerPopulation is the single-shot row's: a tenth of the nodes fail-silent
// and 95 % of the correct ones knowing the string. At the library's default
// 85 % a correct node misses its decision in a minority of seeds, which the
// termination oracle reports; a benchmark operation must not fail by design.
var aerPopulation = []fastba.Option{fastba.WithCorruptFrac(0.1), fastba.WithKnowFrac(0.95)}

var workloads = []workload{
	{
		name: "fabric-n24-closed", n: 24, clients: 1, window: logWindow, warmup: 24, timed: 330, codaRuns: 16,
		why:        "in-process log at n=24, a closed loop of 16 proposals per round: core, sampler, pipeline and simnet do all the work, no socket or disk",
		open:       openLog(fastba.RuntimeFabric),
		population: logPopulation,
	},
	{
		name: "tcp-n24-durable", n: 24, clients: 1, window: logWindow, warmup: 14, timed: 130, codaRuns: 16,
		why:        "same population over loopback TCP with an fsynced WAL: the difference to the fabric row is wire, netrun, sockets and store",
		open:       openLog(fastba.RuntimeTCP),
		population: logPopulation,
	},
	{
		name: "daemon-n8-closed", n: 8, clients: 8, window: 1, warmup: 72, timed: 620, codaRuns: 128,
		why:        "2 balogd processes x 4 nodes, 2 SDK connections, 8 appends in flight: server, SDK, group-commit WAL and ack path with many small entries",
		prepare:    func(ctx context.Context, e *env) error { return e.buildBalogd(ctx) },
		open:       openDaemons,
		population: []fastba.Option{fastba.WithCorruptFrac(0), fastba.WithKnowFrac(1)},
	},
	{
		name: "aer-n256-sync", n: 256, clients: 1, window: 1, warmup: 1, timed: 5,
		why:        "the paper's experiment: single agreements on the synchronous runner, only core and sampler run, counts are exact",
		open:       openAER,
		population: aerPopulation,
	},
}

// counts scales the per-client operation counts to the requested run
// length. Every client runs at least one warm-up operation and the timed
// phase at least one operation per segment.
func (w workload) counts(seconds float64) (warm, timed int) {
	scale := seconds / refSeconds
	warm = max(1, int(math.Round(float64(w.warmup)*scale)))
	timed = max((segments+w.clients-1)/w.clients, int(math.Round(float64(w.timed)*scale)))
	return warm, timed
}

// logWindow is how many proposals a decision-log row keeps outstanding.
//
// The loop is round-synchronous — one goroutine proposes the whole window,
// then waits for all of its tickets — because free-running proposers make
// the log's throughput multi-modal: whichever of them the Go scheduler runs
// within the batcher's 2 ms linger form the next batch, and the split then
// sustains itself. The same 128 free-running proposers were measured at 51
// and at 2 payloads per entry (1028 and 41 payloads/s) in consecutive runs.
// One proposer enqueues its window in microseconds, so every entry carries
// the whole window and a rare split heals at the next round.
const logWindow = 16

// logCluster is a DecisionLog driven through Propose and Ticket.Wait.
type logCluster struct {
	log    *fastba.DecisionLog
	seed   uint64
	window int
	dir    string // the WAL directory of a durable row
	acked  int    // payloads acknowledged as committed (one goroutine drives)
}

func openLog(runtime fastba.LogRuntime) func(context.Context, *env, workload, uint64) (cluster, error) {
	return func(ctx context.Context, e *env, w workload, seed uint64) (cluster, error) {
		c := &logCluster{seed: seed, window: w.window}
		opts := []fastba.Option{fastba.WithLogRuntime(runtime)}
		if runtime == fastba.RuntimeTCP {
			dir, err := os.MkdirTemp(e.scratch, "wal-")
			if err != nil {
				return nil, err
			}
			c.dir = dir
			opts = append(opts, fastba.WithLogStore(dir))
		}
		cfg := fastba.NewConfig(w.n, append([]fastba.Option{fastba.WithSeed(seed)}, w.population...)...)
		log, err := fastba.OpenLog(ctx, cfg, opts...)
		if err != nil {
			os.RemoveAll(c.dir)
			return nil, err
		}
		c.log = log
		return c, nil
	}
}

// op is one round: propose the window, wait for every ticket, and check
// that each committed entry holds the payload its ticket stood for.
func (c *logCluster) op(ctx context.Context, _, i int) (uint64, time.Duration, error) {
	payloads := make([][]byte, c.window)
	tickets := make([]*fastba.Ticket, c.window)
	for k := range tickets {
		payloads[k] = payloadFor(c.seed, k, i)
		t, err := c.log.Propose(ctx, payloads[k])
		if err != nil {
			return 0, 0, err
		}
		tickets[k] = t
	}
	var last fastba.LogEntry
	for k, t := range tickets {
		e, err := t.Wait(ctx)
		if err != nil {
			return 0, 0, err
		}
		held := false
		for _, p := range e.Payloads {
			held = held || bytes.Equal(p, payloads[k])
		}
		if !held {
			return 0, 0, fmt.Errorf("seq %d resolved a ticket whose payload it does not hold", e.Seq)
		}
		c.acked++
		if e.Seq >= last.Seq {
			last = e
		}
	}
	return last.Seq, last.Latency, nil
}

func (c *logCluster) childCPU() time.Duration { return 0 }

func (c *logCluster) verify(context.Context) []string {
	return checkLog(c.log.Committed(), c.acked)
}

func (c *logCluster) counters() map[string]float64 {
	ns := c.log.NetStats()
	return map[string]float64{
		"net.frames": float64(ns.FramesSent), "net.msgs": float64(ns.MessagesSent),
		"net.dials": float64(ns.Dials), "net.redials": float64(ns.Redials),
		"store.bytes": dirBytes(c.dir),
	}
}

func (c *logCluster) close() {
	c.log.Close()
	if c.dir != "" {
		os.RemoveAll(c.dir)
	}
}

// checkLog judges a committed log: the cross-instance oracles, and that it
// holds exactly the payloads that were acknowledged.
func checkLog(entries []fastba.LogEntry, acked int) []string {
	violations := fastba.CheckLogInvariants(entries, 1).Strings()
	held := 0
	for _, e := range entries {
		held += len(e.Payloads)
	}
	if held != acked {
		violations = append(violations, fmt.Sprintf("log-payloads: the log holds %d payloads, %d were acknowledged", held, acked))
	}
	return violations
}

// aerCluster runs single agreements back to back; operation i is the
// agreement seeded seed+i and is its own entry.
type aerCluster struct {
	w       workload
	seed    uint64
	results map[int]*fastba.AERResult
}

func openAER(_ context.Context, _ *env, w workload, seed uint64) (cluster, error) {
	return &aerCluster{w: w, seed: seed, results: map[int]*fastba.AERResult{}}, nil
}

func (c *aerCluster) op(ctx context.Context, _, i int) (uint64, time.Duration, error) {
	res, err := runAgreement(ctx, c.w.n, c.seed+uint64(i), c.w.population)
	if err != nil {
		return 0, 0, err
	}
	c.results[i] = res
	return uint64(i), 0, nil
}

func (c *aerCluster) childCPU() time.Duration         { return 0 }
func (c *aerCluster) verify(context.Context) []string { return nil }
func (c *aerCluster) counters() map[string]float64    { return nil }
func (c *aerCluster) close()                          {}

// runAgreement runs one agreement on the synchronous non-rushing runner
// and fails it on any oracle violation.
func runAgreement(ctx context.Context, n int, seed uint64, population []fastba.Option) (*fastba.AERResult, error) {
	cfg := fastba.NewConfig(n, append([]fastba.Option{fastba.WithSeed(seed)}, population...)...)
	res, err := fastba.RunAERContext(ctx, cfg)
	if err != nil {
		return nil, err
	}
	if rep := fastba.CheckInvariants(cfg, res); !rep.OK() {
		return nil, fmt.Errorf("agreement n=%d seed=%d: %s", n, seed, rep)
	}
	return res, nil
}

// protocol is the exact-count side of a set of decisions.
type protocol struct {
	rounds  float64 // mean round in which a correct node decided
	bits    float64 // mean bits sent per node per decision
	decided float64 // deciders ÷ correct nodes
	msgs    float64 // mean messages delivered per node per decision
	byKind  map[string]float64
}

// tally folds agreement results into their per-decision means.
func tally(n int, results []*fastba.AERResult) protocol {
	p := protocol{byKind: map[string]float64{}}
	var rounds, deciders, correct, msgs float64
	for _, r := range results {
		for _, t := range r.DecisionTimes {
			rounds += float64(t)
		}
		deciders += float64(r.Decided)
		correct += float64(r.Correct)
		p.bits += r.MeanBitsPerNode
		msgs += float64(r.TotalMessages)
		for k, v := range r.MessagesByKind {
			p.byKind[k] += float64(v)
		}
	}
	d := float64(len(results))
	p.rounds = rounds / deciders
	p.decided = deciders / correct
	p.bits /= d
	p.msgs = msgs / d / float64(n)
	for k := range p.byKind {
		p.byKind[k] /= d * float64(n)
	}
	return p
}

// coda counts what one decision of a log row costs the protocol. The
// decision log exposes no per-message events (its observer reports commits
// only), so the coda runs the row's population — same n, same seed, same
// corrupt and knowledgeable fractions — through RunAER on the deterministic
// runner, where the counts are exact and the timed phase stays unobserved.
func coda(ctx context.Context, w workload, seed uint64) (protocol, error) {
	results := make([]*fastba.AERResult, w.codaRuns)
	for i := range results {
		res, err := runAgreement(ctx, w.n, seed+uint64(i), w.population)
		if err != nil {
			return protocol{}, err
		}
		results[i] = res
	}
	return tally(w.n, results), nil
}

// result is one workload run. Metrics are what the command reports: timed
// quantities at the reference pace (see pace). Raw holds the same
// quantities as the clock read them, for the human-readable report.
type result struct {
	Workload   string
	Attempted  int
	Failed     int
	Violations []string
	Samples    int  // pooled latency samples behind the percentiles
	Disturbed  bool // the host's pace moved by more than 15 % between segments
	PaceMs     float64
	Metrics    map[string]float64
	Raw        map[string]float64
}

// run executes one workload: the set-ups, the timed phase, the output
// check and the coda. With tracing on it times one untraced and one traced
// segment instead of five untraced ones and reports the per-layer metrics.
func (w workload) run(ctx context.Context, e *env, seed uint64, seconds float64, traced bool) (res *result, err error) {
	warmOps, timedOps := w.counts(seconds)
	if w.prepare != nil {
		if err := w.prepare(ctx, e); err != nil {
			return nil, err
		}
	}
	host := e.host

	var (
		c                    cluster
		warm                 *phase
		setupS, setupRawS    []float64
		constructMs, setupMs float64
	)
	rounds := setups
	if traced {
		rounds = 1
	}
	for r := 0; r < rounds; r++ {
		if c != nil {
			c.close()
		}
		t0, pos := time.Now(), host.now()
		if c, err = w.open(ctx, e, w, seed); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		constructMs = float64(time.Since(t0)) / float64(time.Millisecond)
		warm = drive(ctx, c, host, w.clients, 0, warmOps, 1, 0)
		setupMs = float64(time.Since(t0)) / float64(time.Millisecond)
		setupRawS = append(setupRawS, setupMs/1e3)
		setupS = append(setupS, setupMs/1e3/host.slowdown(pos, host.now()))
		if n, first := warm.failures(); n > 0 || ctx.Err() != nil {
			c.close()
			return nil, fmt.Errorf("%s: %d of %d warm-up operations failed: %v", w.name, n, len(warm.samples), first)
		}
	}
	defer func() { c.close() }()

	var timed *phase
	var layers map[string]float64
	if traced {
		if timed, layers, err = traceSegments(ctx, e, w, c, host, seed, warmOps, max(1, timedOps/segments), warm.lastSeq()); err != nil {
			return nil, err
		}
	} else {
		timed = drive(ctx, c, host, w.clients, warmOps, timedOps, segments, warm.lastSeq())
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	failedOps, first := timed.failures()
	res = &result{Workload: w.name, Attempted: len(timed.samples) * w.window, Failed: failedOps * w.window, Samples: len(timed.samples) - failedOps}
	if first != nil {
		res.Violations = append(res.Violations, "operation: "+first.Error())
	}
	res.Violations = append(res.Violations, c.verify(ctx)...)
	slow := timed.slowdowns(host)
	sort.Float64s(slow)
	res.Disturbed = slow[len(slow)-1] > 1.15*slow[0]
	res.PaceMs = host.kernelMs(timed.marks[0].pos, timed.marks[len(timed.marks)-1].pos)

	var proto protocol
	if a, ok := c.(*aerCluster); ok {
		var rs []*fastba.AERResult
		for i, r := range a.results {
			if i >= warmOps {
				rs = append(rs, r)
			}
		}
		proto = tally(w.n, rs)
	} else if proto, err = coda(ctx, w, seed); err != nil {
		res.Violations = append(res.Violations, err.Error())
	}
	if len(res.Violations) > 0 {
		// An operation of a run whose outputs are wrong did not succeed.
		res.Failed = res.Attempted
	}

	if traced {
		res.Metrics = layers
		layers["setup.construct_ms"] = constructMs
		layers["setup.warmup_ms"] = setupMs - constructMs
		layers["setup.build_s"] = e.buildS
		layers["host.calib_ms"] = res.PaceMs
		layers["core.msgs_per_node"] = proto.msgs
		for _, k := range messageKinds {
			layers["core.msgs."+k] = proto.byKind[k]
		}
	} else {
		endToEndMetrics := func(host *pace, setupS []float64) map[string]float64 {
			lats := timed.latenciesMs(host)
			entriesPerS, payloadsPerS, cpuMs := timed.rates(host, w.window)
			return map[string]float64{
				"setup_s":          median(setupS),
				"commit_p50_ms":    quantile(lats, 0.5),
				"commit_p90_ms":    quantile(lats, 0.9),
				"entries_per_s":    median(entriesPerS),
				"payloads_per_s":   median(payloadsPerS),
				"cpu_ms_per_entry": median(cpuMs),
				"ok_frac":          float64(res.Attempted-res.Failed) / float64(res.Attempted),
				"rounds":           proto.rounds,
				"bits_per_node":    proto.bits,
				"decided_frac":     proto.decided,
			}
		}
		res.Metrics, res.Raw = endToEndMetrics(host, setupS), endToEndMetrics(nil, setupRawS)
	}
	for name, v := range res.Metrics {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("%s: metric %s is %v: too few operations completed to measure it", w.name, name, v)
		}
	}
	return res, nil
}
