// Command bench is the repository's benchmark: four workloads over the
// decision log, the balogd daemon and the paper's single-shot agreement,
// each reported in the same ten end-to-end metrics, plus a traced mode that
// reports per-layer metrics. BENCHMARK.json at the repository root
// describes it to the driver; README.md in this directory explains every
// name.
//
//	go run ./bench                                  # all workloads, end-to-end metrics
//	go run ./bench -workload tcp-n24-durable -seed 7
//	go run ./bench -trace 1                         # per-layer metrics, spans in bench/out/
//	go run ./bench -selfcheck                       # the suite twice, compared against the bounds
//
// The last line of standard output is one JSON object. The exit code is 0
// only when every operation succeeded and every output check passed.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
)

// metricDef is one reported metric. Bound is the share of the previous
// median an end-to-end metric may worsen by before a change is rejected.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what a user of the system sees; every workload emits all of it.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"commit_p50_ms", "ms", "lower", 0.25},
	{"commit_p90_ms", "ms", "lower", 0.25},
	{"entries_per_s", "1/s", "higher", 0.25},
	{"payloads_per_s", "1/s", "higher", 0.25},
	{"cpu_ms_per_entry", "ms", "lower", 0.25},
	{"ok_frac", "ratio", "higher", 0.001},
	{"rounds", "count", "lower", 0.02},
	{"bits_per_node", "bits", "lower", 0.05},
	{"decided_frac", "ratio", "higher", 0.005},
}

// perLayer is what the traced run reports; a metric a workload's layers do
// not produce reads 0 there.
var perLayer = []metricDef{
	{Name: "core.msgs_per_node", Unit: "count", Better: "lower"},
	{Name: "core.msgs.push", Unit: "count", Better: "lower"},
	{Name: "core.msgs.poll", Unit: "count", Better: "lower"},
	{Name: "core.msgs.pull", Unit: "count", Better: "lower"},
	{Name: "core.msgs.fw1", Unit: "count", Better: "lower"},
	{Name: "core.msgs.fw2", Unit: "count", Better: "lower"},
	{Name: "core.msgs.answer", Unit: "count", Better: "lower"},
	{Name: "core.deliver_ns", Unit: "ns", Better: "lower"},
	{Name: "core.bits_exponent", Unit: "ratio", Better: "lower"},
	{Name: "core.msgs_exponent", Unit: "ratio", Better: "lower"},
	{Name: "sampler.quorum_ns", Unit: "ns", Better: "lower"},
	{Name: "sampler.inverse_ns", Unit: "ns", Better: "lower"},
	{Name: "pipeline.decide_ms", Unit: "ms", Better: "lower"},
	{Name: "pipeline.queue_wait_ms", Unit: "ms", Better: "lower"},
	{Name: "pipeline.payloads_per_entry", Unit: "count", Better: "higher"},
	{Name: "pipeline.allocs_per_entry", Unit: "count", Better: "lower"},
	{Name: "pipeline.alloc_kb_per_entry", Unit: "KiB", Better: "lower"},
	{Name: "simnet.mailbox_hop_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.encode_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.decode_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.batch_decode_ns_per_msg", Unit: "ns", Better: "lower"},
	{Name: "netrun.msgs_per_frame", Unit: "count", Better: "higher"},
	{Name: "netrun.frames_per_entry", Unit: "count", Better: "lower"},
	{Name: "netrun.dials", Unit: "count", Better: "lower"},
	{Name: "netrun.redials", Unit: "count", Better: "lower"},
	{Name: "store.append_us", Unit: "us", Better: "lower"},
	{Name: "store.append_disk_us", Unit: "us", Better: "lower"},
	{Name: "store.replay_us_per_record", Unit: "us", Better: "lower"},
	{Name: "store.bytes_per_entry", Unit: "bytes", Better: "lower"},
	{Name: "server.appends_per_commit", Unit: "count", Better: "higher"},
	{Name: "server.shed_frac", Unit: "ratio", Better: "lower"},
	{Name: "server.reproposals", Unit: "count", Better: "lower"},
	{Name: "server.follower_lag_entries", Unit: "count", Better: "lower"},
	{Name: "server.commit_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "client.status_rtt_us", Unit: "us", Better: "lower"},
	{Name: "core.cpu_frac", Unit: "ratio", Better: "lower"},
	{Name: "sampler.cpu_frac", Unit: "ratio", Better: "lower"},
	{Name: "prng.cpu_frac", Unit: "ratio", Better: "lower"},
	{Name: "pipeline.cpu_frac", Unit: "ratio", Better: "lower"},
	{Name: "simnet.cpu_frac", Unit: "ratio", Better: "lower"},
	{Name: "wire.cpu_frac", Unit: "ratio", Better: "lower"},
	{Name: "netrun.cpu_frac", Unit: "ratio", Better: "lower"},
	{Name: "store.cpu_frac", Unit: "ratio", Better: "lower"},
	{Name: "bitstring.cpu_frac", Unit: "ratio", Better: "lower"},
	{Name: "intern.cpu_frac", Unit: "ratio", Better: "lower"},
	{Name: "runtime.gc.cpu_frac", Unit: "ratio", Better: "lower"},
	{Name: "runtime.sched.cpu_frac", Unit: "ratio", Better: "lower"},
	{Name: "runtime.mem.cpu_frac", Unit: "ratio", Better: "lower"},
	{Name: "runtime.map.cpu_frac", Unit: "ratio", Better: "lower"},
	{Name: "syscall.cpu_frac", Unit: "ratio", Better: "lower"},
	{Name: "other.cpu_frac", Unit: "ratio", Better: "lower"},
	{Name: "setup.construct_ms", Unit: "ms", Better: "lower"},
	{Name: "setup.warmup_ms", Unit: "ms", Better: "lower"},
	{Name: "setup.build_s", Unit: "s", Better: "lower"},
	{Name: "host.calib_ms", Unit: "ms", Better: "lower"},
	{Name: "host.gomaxprocs", Unit: "count", Better: "higher"},
	{Name: "host.peak_rss_mb", Unit: "MiB", Better: "lower"},
	{Name: "host.store_tmpfs", Unit: "count", Better: "higher"},
	{Name: "trace.overhead_frac", Unit: "ratio", Better: "lower"},
}

// env is what every workload of one process shares.
type env struct {
	root    string // module root: go.mod, cmd/balogd, .bench_build, bench/out
	scratch string // WAL and store directories of this process
	tmpfs   bool   // scratch is on /dev/shm
	balogd  string // built on first use
	buildS  float64
	host    *pace // the host-speed probe, one per process (it holds 256 MiB)
}

// scratchPrefix names this benchmark's directories under /dev/shm; the
// number after it is the owning harness's PID.
const scratchPrefix = "fastba-bench-"

// newEnv finds the module root and makes the scratch directory: on tmpfs
// when /dev/shm is writable, because fsync to this VM's virtio disk swings
// 140–190 µs run to run and would drown the store layer's own cost; under
// .bench_build in the checkout otherwise.
func newEnv() (*env, error) {
	dir, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			break
		}
		if filepath.Dir(dir) == dir {
			return nil, fmt.Errorf("no go.mod above the working directory: the benchmark builds and drives the repository it sits in")
		}
		dir = filepath.Dir(dir)
	}
	e := &env{root: dir}
	if err := os.MkdirAll(e.buildDir(), 0o755); err != nil {
		return nil, err
	}
	sweepStale()
	name := scratchPrefix + strconv.Itoa(os.Getpid()) + "-"
	if e.scratch, err = os.MkdirTemp("/dev/shm", name); err == nil {
		e.tmpfs = true
	} else if e.scratch, err = os.MkdirTemp(e.buildDir(), name); err != nil {
		return nil, err
	}
	e.host = startPace()
	return e, nil
}

func (e *env) buildDir() string { return filepath.Join(e.root, ".bench_build") }

func (e *env) close() {
	e.host.close()
	os.RemoveAll(e.scratch)
}

// sweepStale removes the tmpfs directories of harness processes that no
// longer exist (a killed run cannot clean up after itself).
func sweepStale() {
	old, _ := filepath.Glob("/dev/shm/" + scratchPrefix + "*")
	for _, dir := range old {
		pid, _, _ := strings.Cut(strings.TrimPrefix(filepath.Base(dir), scratchPrefix), "-")
		if p, err := strconv.Atoi(pid); err == nil && syscall.Kill(p, 0) == syscall.ESRCH {
			os.RemoveAll(dir)
		}
	}
}

func main() {
	os.Exit(run(os.Args[1:]))
}

// run is the command: 0 when every selected workload ran and checked out,
// 1 when an operation failed or an output check found a violation (or
// -selfcheck found a pair outside its bound), 2 when the harness itself
// could not run.
func run(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		only      = fs.String("workload", "", "run only this workload (default: all four)")
		seed      = fs.Uint64("seed", 1, "seed of every generated input: populations, corrupt sets, payloads")
		seconds   = fs.Float64("seconds", refSeconds, "run length the fixed operation counts are scaled to")
		trace     = fs.Int("trace", 0, "1: report per-layer metrics from a traced run instead of the end-to-end metrics")
		selfcheck = fs.Bool("selfcheck", false, "run the untraced suite twice and compare every metric pair against its bound")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	selected := workloads
	if *only != "" {
		selected = nil
		for _, w := range workloads {
			if w.name == *only {
				selected = []workload{w}
			}
		}
		if selected == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *only)
			return 2
		}
	}
	if !(*seconds > 0) {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be positive")
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	e, err := newEnv()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	defer e.close()

	suite := func(traced bool) ([]*result, error) {
		var out []*result
		for _, w := range selected {
			res, err := w.run(ctx, e, *seed, *seconds, traced)
			if err != nil {
				return nil, err
			}
			report(res, traced)
			out = append(out, res)
		}
		return out, nil
	}

	traced := *trace == 1 && !*selfcheck
	results, err := suite(traced)
	var again []*result
	if err == nil && *selfcheck {
		again, err = suite(false)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	code := exitCode(append(results, again...))
	if *selfcheck && !compare(results, again) {
		code = 1
	}
	fmt.Println(string(summary(results, *seed, *seconds, traced, e.tmpfs)))
	return code
}

// exitCode fails the command on any failed operation or violated output
// check: a fast run with a wrong log does not pass.
func exitCode(results []*result) int {
	for _, r := range results {
		if r.Failed > 0 || len(r.Violations) > 0 {
			return 1
		}
	}
	return 0
}

func defsFor(traced bool) []metricDef {
	if traced {
		return perLayer
	}
	return endToEnd
}

// report prints one workload's metrics by name, with unit. Timed end-to-end
// metrics are at the reference pace, with the clock's reading beside them;
// latency percentiles carry their sample count.
func report(r *result, traced bool) {
	for _, m := range defsFor(traced) {
		note := ""
		if raw, ok := r.Raw[m.Name]; ok && raw != r.Metrics[m.Name] {
			note = fmt.Sprintf("  (clock read %.6g)", raw)
		}
		if m.Name == "commit_p50_ms" || m.Name == "commit_p90_ms" {
			note += fmt.Sprintf("  (n=%d)", r.Samples)
		}
		fmt.Printf("%-18s %-30s %14.6g %s%s\n", r.Workload, m.Name, r.Metrics[m.Name], m.Unit, note)
	}
	fmt.Printf("%-18s attempted=%d failed=%d pace_kernel_ms=%.3f disturbed=%v\n", r.Workload, r.Attempted, r.Failed, r.PaceMs, r.Disturbed)
	for _, v := range r.Violations {
		fmt.Printf("%-18s VIOLATION %s\n", r.Workload, v)
	}
}

// compare prints both suites side by side and reports whether every
// end-to-end pair agrees within its bound.
func compare(a, b []*result) bool {
	ok := true
	fmt.Printf("%-18s %-18s %14s %14s %9s %7s\n", "workload", "metric", "run 1", "run 2", "rel diff", "bound")
	for i := range a {
		for _, m := range endToEnd {
			x, y := a[i].Metrics[m.Name], b[i].Metrics[m.Name]
			diff := math.Abs(y-x) / math.Abs(x)
			verdict := ""
			if !(diff <= m.Bound) {
				verdict, ok = "  EXCEEDS", false
			}
			fmt.Printf("%-18s %-18s %14.6g %14.6g %8.2f%% %6.1f%%%s\n", a[i].Workload, m.Name, x, y, 100*diff, 100*m.Bound, verdict)
		}
	}
	return ok
}

// summary is the machine-readable last line. A single-workload run prints
// the driver's object; a suite prints one object per workload and claims
// nothing.
func summary(results []*result, seed uint64, seconds float64, traced, tmpfs bool) []byte {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	type line struct {
		Workload  string           `json:"workload,omitempty"`
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}
	lines := make([]line, len(results))
	for i, r := range results {
		lines[i] = line{Workload: r.Workload, Correct: exitCode([]*result{r}) == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]value{}}
		for _, m := range defsFor(traced) {
			lines[i].Metrics[m.Name] = value{r.Metrics[m.Name], m.Unit}
		}
	}
	var out any
	if len(lines) == 1 {
		lines[0].Workload = ""
		out = lines[0]
	} else {
		storeFS := "disk"
		if tmpfs {
			storeFS = "tmpfs"
		}
		out = struct {
			Seed      uint64            `json:"seed"`
			Seconds   float64           `json:"seconds"`
			Host      map[string]string `json:"host"`
			Workloads []line            `json:"workloads"`
			Claim     *string           `json:"claim"`
		}{seed, seconds, map[string]string{"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)), "store_fs": storeFS}, lines, nil}
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err) // plain numbers and strings: cannot fail
	}
	return b
}
