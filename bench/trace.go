package main

// The traced run: one untraced and one traced segment of the workload
// (their rate difference is the tracing overhead), a CPU profile folded
// into layer shares, counter deltas at the cluster's boundaries, the
// workload-independent probes, and the span file.

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"
)

// messageKinds are the protocol's message kinds, as AERResult names them.
var messageKinds = []string{"push", "poll", "pull", "fw1", "fw2", "answer"}

// cpuLayers are the buckets CPU-profile samples are folded into; a
// function outside all of them counts as "other".
var cpuLayers = []string{"core", "sampler", "prng", "pipeline", "simnet", "wire", "netrun", "store", "bitstring", "intern",
	"runtime.gc", "runtime.sched", "runtime.mem", "runtime.map", "syscall", "other"}

// span is one traced interval, in nanoseconds from the traced segment's
// start.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

// traceSegments drives one untraced and one traced segment of perClient
// operations per client and returns both as one phase, plus every
// per-layer metric except the ones run() owns (set-up parts, calibration,
// protocol counts).
func traceSegments(ctx context.Context, e *env, w workload, c cluster, host *pace, seed uint64, firstOp, perClient int, startSeq uint64) (*phase, map[string]float64, error) {
	out := map[string]float64{}
	for _, m := range perLayer {
		out[m.Name] = 0
	}
	outDir := filepath.Join(e.root, "bench", "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, nil, err
	}

	untraced := drive(ctx, c, host, w.clients, firstOp, perClient, 1, startSeq)

	profPath := filepath.Join(outDir, "cpu-"+w.name+".pprof")
	prof, err := os.Create(profPath)
	if err != nil {
		return nil, nil, err
	}
	before := c.counters()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if err := pprof.StartCPUProfile(prof); err != nil {
		prof.Close()
		return nil, nil, err
	}
	traced := drive(ctx, c, host, w.clients, firstOp+perClient, perClient, 1, untraced.lastSeq())
	pprof.StopCPUProfile()
	if err := prof.Close(); err != nil {
		return nil, nil, err
	}
	runtime.ReadMemStats(&m1)
	after := c.counters()
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	delta := func(name string) float64 { return after[name] - before[name] }

	uRate, _, _ := untraced.rates(host, w.window)
	tRate, _, _ := traced.rates(host, w.window)
	if len(uRate) == 1 && len(tRate) == 1 {
		out["trace.overhead_frac"] = 1 - tRate[0]/uRate[0]
	}
	entries := float64(traced.lastSeq() - untraced.lastSeq())
	out["pipeline.payloads_per_entry"] = float64(len(traced.samples)*w.window) / entries

	d, isDaemon := c.(*daemonCluster)
	var decide, wait []float64
	var spans []span
	origin := traced.marks[0].at
	for _, s := range traced.samples {
		if s.err != nil {
			continue
		}
		start, end := s.start.Sub(origin).Nanoseconds(), s.start.Add(s.latency).Sub(origin).Nanoseconds()
		id := len(spans) + 1
		switch {
		case isDaemon:
			spans = append(spans, span{ID: id, Name: "sdk.append", Start: start, End: end})
		case s.decide == 0:
			spans = append(spans, span{ID: id, Name: "agreement", Start: start, End: end})
		default:
			// The entry opened s.decide before it committed; until then the
			// payload sat in the batcher or waited for a pipeline slot.
			opened := max(start, end-s.decide.Nanoseconds())
			spans = append(spans,
				span{ID: id, Name: "append", Start: start, End: end},
				span{ID: id + 1, Parent: id, Name: "queue_wait", Start: start, End: opened},
				span{ID: id + 2, Parent: id, Name: "decide", Start: opened, End: end})
			decide = append(decide, float64(s.decide)/float64(time.Millisecond))
			wait = append(wait, float64(opened-start)/1e6)
		}
	}
	if len(decide) > 0 {
		out["pipeline.decide_ms"] = median(decide)
		out["pipeline.queue_wait_ms"] = median(wait)
	}
	spanFile, err := json.Marshal(map[string]any{"workload": w.name, "seed": seed, "spans": spans})
	if err != nil {
		return nil, nil, err
	}
	if err := os.WriteFile(filepath.Join(outDir, "trace-"+w.name+".json"), spanFile, 0o644); err != nil {
		return nil, nil, err
	}

	if frames := delta("net.frames"); frames > 0 {
		out["netrun.msgs_per_frame"] = delta("net.msgs") / frames
		out["netrun.frames_per_entry"] = frames / entries
		out["netrun.dials"] = after["net.dials"]
		out["netrun.redials"] = after["net.redials"]
	}
	out["store.bytes_per_entry"] = delta("store.bytes") / entries

	if isDaemon {
		out["server.appends_per_commit"] = delta("fastba_appends_total") / delta("fastba_commits_total")
		out["server.shed_frac"] = delta("fastba_overload_shed_total") / (delta("fastba_appends_total") + delta("fastba_overload_shed_total"))
		out["server.reproposals"] = after["fastba_reproposals"]
		out["server.follower_lag_entries"] = after["fastba_commit_seq"] - after["follower.commit_seq"]
		out["server.commit_p50_ms"] = histogramQuantile(before, after, "fastba_commit_latency_seconds_bucket:", 0.5) * 1e3
		var rtts []float64
		for i := 0; i < 200; i++ {
			t0 := time.Now()
			if _, err := d.clients[0].Status(ctx); err != nil {
				return nil, nil, err
			}
			rtts = append(rtts, float64(time.Since(t0).Nanoseconds())/1e3)
		}
		out["client.status_rtt_us"] = median(rtts)
	} else {
		// In-process rows: the harness's profile and heap are the system's.
		out["pipeline.allocs_per_entry"] = float64(m1.Mallocs-m0.Mallocs) / entries
		out["pipeline.alloc_kb_per_entry"] = float64(m1.TotalAlloc-m0.TotalAlloc) / 1024 / entries
		fracs, err := cpuFractions(ctx, profPath)
		if err != nil {
			return nil, nil, err
		}
		for layer, f := range fracs {
			out[layer+".cpu_frac"] = f
		}
	}

	out["host.peak_rss_mb"] = peakRSSMB() // before the n=256 scaling runs below inflate it
	probes, err := layerProbes(e)
	if err != nil {
		return nil, nil, err
	}
	for k, v := range probes {
		out[k] = v
	}
	if err := scaling(ctx, out); err != nil {
		return nil, nil, err
	}
	out["host.gomaxprocs"] = float64(runtime.GOMAXPROCS(0))
	if e.tmpfs {
		out["host.store_tmpfs"] = 1
	}

	both := &phase{
		samples: append(untraced.samples, traced.samples...),
		marks:   []mark{untraced.marks[0], traced.marks[len(traced.marks)-1]},
	}
	return both, out, nil
}

// histogramQuantile interpolates the q-quantile of a Prometheus histogram
// over the observations made between two scrapes.
func histogramQuantile(before, after map[string]float64, prefix string, q float64) float64 {
	type bucket struct{ le, count float64 }
	var buckets []bucket
	for name, v := range after {
		if le, ok := strings.CutPrefix(name, prefix); ok {
			edge := math.Inf(1)
			if le != "+Inf" {
				fmt.Sscan(le, &edge)
			}
			buckets = append(buckets, bucket{edge, v - before[name]})
		}
	}
	sort.Slice(buckets, func(i, j int) bool { return buckets[i].le < buckets[j].le })
	if len(buckets) == 0 || buckets[len(buckets)-1].count == 0 {
		return 0
	}
	rank := q * buckets[len(buckets)-1].count
	lowEdge, lowCount := 0.0, 0.0
	for _, b := range buckets {
		if b.count >= rank {
			if math.IsInf(b.le, 1) {
				return lowEdge
			}
			return lowEdge + (b.le-lowEdge)*(rank-lowCount)/(b.count-lowCount)
		}
		lowEdge, lowCount = b.le, b.count
	}
	return lowEdge
}

// cpuFractions folds a CPU profile's flat samples into cpuLayers by Go
// package path, through `go tool pprof -top`.
func cpuFractions(ctx context.Context, profile string) (map[string]float64, error) {
	cmd := exec.CommandContext(ctx, "go", "tool", "pprof", "-top", "-nodecount=1000000", "-nodefraction=0", profile)
	b, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	flat := map[string]float64{}
	var total float64
	rows := false
	for _, line := range strings.Split(string(b), "\n") {
		f := strings.Fields(line)
		if len(f) > 0 && f[0] == "flat" {
			rows = true
			continue
		}
		if !rows || len(f) < 6 {
			continue
		}
		d, err := time.ParseDuration(f[0])
		if err != nil {
			continue
		}
		if layer := layerOf(strings.Join(f[5:], " ")); layer != "" {
			flat[layer] += d.Seconds()
			total += d.Seconds()
		}
	}
	if total == 0 {
		return nil, fmt.Errorf("go tool pprof: no samples in %s", profile)
	}
	for k := range flat {
		flat[k] /= total
	}
	return flat, nil
}

// layerOf names the layer a profiled function belongs to; the pace probe's
// own kernel belongs to none and is left out of the shares.
func layerOf(fn string) string {
	if strings.HasPrefix(fn, "main.paceKernel") || strings.Contains(fn, "sha256.block") {
		return ""
	}
	if rest, ok := strings.CutPrefix(fn, "github.com/fastba/fastba/internal/"); ok {
		pkg, _, _ := strings.Cut(rest, ".")
		for _, l := range cpuLayers {
			if l == pkg {
				return l
			}
		}
		return "other"
	}
	contains := func(s string, words ...string) bool {
		for _, w := range words {
			if strings.Contains(s, w) {
				return true
			}
		}
		return false
	}
	switch {
	case strings.HasPrefix(fn, "syscall."), strings.Contains(fn, "runtime/syscall."):
		return "syscall"
	case strings.HasPrefix(fn, "internal/runtime/maps."), fn == "aeshashbody", strings.HasPrefix(fn, "runtime.memhash"):
		return "runtime.map"
	case strings.HasPrefix(fn, "runtime."):
		name := strings.ToLower(strings.TrimPrefix(fn, "runtime."))
		switch {
		case contains(name, "malloc", "memclr", "memmove", "duffcopy", "duffzero", "growslice", "makeslice", "madvise", "nextfree"):
			return "runtime.mem"
		case strings.HasPrefix(name, "map"):
			return "runtime.map"
		case contains(name, "gc", "scan", "mark", "sweep", "grey", "wbuf", "barrier", "typepointers"):
			return "runtime.gc"
		case contains(name, "sched", "findrunnable", "park", "ready", "futex", "netpoll", "steal", "lock",
			"usleep", "yield", "mcall", "wakep", "stopm", "startm", "note", "runq", "execute", "sema", "timer"):
			return "runtime.sched"
		}
	}
	return "other"
}

// scalingNs are the populations of the scaling probe (tests shrink them).
var scalingNs = []int{64, 128, 256}

// scaling runs the paper's experiment at each of scalingNs on one fixed
// seed and reports how per-node cost grows with n (the exponent of a
// log-log fit; polylog growth shows as an exponent well below 1) and what
// one delivered message costs on the synchronous runner at the largest n.
func scaling(ctx context.Context, out map[string]float64) error {
	var logN, logBits, logMsgs []float64
	for _, n := range scalingNs {
		t0 := time.Now()
		res, err := runAgreement(ctx, n, 1, aerPopulation)
		if err != nil {
			return err
		}
		out["core.deliver_ns"] = float64(time.Since(t0).Nanoseconds()) / float64(res.TotalMessages)
		logN = append(logN, math.Log(float64(n)))
		logBits = append(logBits, math.Log(res.MeanBitsPerNode))
		logMsgs = append(logMsgs, math.Log(float64(res.TotalMessages)/float64(n)))
	}
	out["core.bits_exponent"] = slope(logN, logBits)
	out["core.msgs_exponent"] = slope(logN, logMsgs)
	return nil
}

// slope is the least-squares slope of y over x.
func slope(x, y []float64) float64 {
	var sx, sy, sxx, sxy float64
	for i := range x {
		sx, sy, sxx, sxy = sx+x[i], sy+y[i], sxx+x[i]*x[i], sxy+x[i]*y[i]
	}
	n := float64(len(x))
	return (n*sxy - sx*sy) / (n*sxx - sx*sx)
}
