package fastba

// The multi-process load harness: spawn a cluster of real balogd OS
// processes, drive the client SDK at them over real sockets, optionally
// kill -9 one daemon mid-workload and restart it, and verify that every
// daemon's durable store holds a byte-identical committed prefix. This is
// the deployment-shaped counterpart of RunLoad — same percentiles, same
// oracles, but nothing shares an address space: commits survive into WAL
// files the harness reads back only after the processes have exited.

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/fastba/fastba/internal/metrics"
	"github.com/fastba/fastba/internal/pipeline"
	"github.com/fastba/fastba/internal/prng"
	"github.com/fastba/fastba/internal/store"
	"github.com/fastba/fastba/internal/wire"
)

// DaemonWorkload shapes one multi-process daemon-cluster load run.
type DaemonWorkload struct {
	// Daemons is the number of balogd processes (default 4, minimum 2);
	// PerDaemon is k, the protocol nodes each hosts (default 2). The
	// population Daemons·k must be ≥ 8.
	Daemons   int `json:"daemons"`
	PerDaemon int `json:"perDaemon"`
	// Seed keys the cluster and the client payload streams (default 1).
	Seed uint64 `json:"seed"`
	// Clients is the number of concurrent SDK sessions (default 8); Rate
	// each client's open-loop append rate in payloads/second (0 = closed
	// loop); PayloadBytes sizes each payload (default 32).
	Clients      int     `json:"clients"`
	Rate         float64 `json:"rate,omitempty"`
	PayloadBytes int     `json:"payloadBytes"`
	// Pipeline is how many appends each client keeps in flight over its
	// one session (default 1 — strictly closed-loop). The daemon's
	// admission queue is per session, so a Pipeline larger than QueueMax
	// is the configuration that forces ErrOverload.
	Pipeline int `json:"pipeline,omitempty"`
	// Duration bounds the append phase (default 5s).
	Duration time.Duration `json:"durationNs"`
	// KillRestart, when set, SIGKILLs daemon KillDaemon a third of the way
	// into the run and restarts it (same store, same flags) at two thirds,
	// so the run exercises catch-up repair and client resilience while the
	// killed daemon's nodes are dark. KillDaemon defaults to the last
	// daemon; it must not be 0 (the leader sequences appends).
	KillRestart bool `json:"killRestart,omitempty"`
	KillDaemon  int  `json:"killDaemon,omitempty"`
	// Depth, BatchMax and QueueMax pass through to balogd (-depth, -batch,
	// -queue). A small QueueMax with many closed-loop clients is the
	// overload-shedding configuration: admission control sheds appends and
	// the SDK surfaces ErrOverload.
	Depth    int `json:"depth,omitempty"`
	BatchMax int `json:"batchMax,omitempty"`
	QueueMax int `json:"queueMax,omitempty"`
	// ReproposeAfter paces the leader's stalled-instance retries (default
	// 250ms — snappier than the daemon's 2s default, because kill runs
	// spend a third of their duration with a daemon dark).
	ReproposeAfter time.Duration `json:"reproposeAfterNs,omitempty"`
	// BalogdPath is a prebuilt balogd binary; empty builds one from the
	// enclosing module into Dir.
	BalogdPath string `json:"balogdPath,omitempty"`
	// Dir is the scratch directory for stores, daemon logs and the built
	// binary. Empty creates a temp dir, removed again when the run ends
	// healthy (kept for inspection when anything failed).
	Dir string `json:"dir,omitempty"`
	// Metrics, when set, receives the run's client-side counter families
	// (commit-latency histogram, ack/overload counters) under
	// runtime="daemon" — the same surface RunLoad exports.
	Metrics *MetricsRegistry `json:"-"`
	// Logf, when set, receives harness progress lines.
	Logf func(format string, args ...any) `json:"-"`
}

func (w DaemonWorkload) withDefaults() DaemonWorkload {
	if w.Daemons <= 0 {
		w.Daemons = 4
	}
	if w.PerDaemon <= 0 {
		w.PerDaemon = 2
	}
	if w.Seed == 0 {
		w.Seed = 1
	}
	if w.Clients <= 0 {
		w.Clients = 8
	}
	if w.PayloadBytes <= 0 {
		w.PayloadBytes = 32
	}
	if w.Pipeline <= 0 {
		w.Pipeline = 1
	}
	if w.Duration <= 0 {
		w.Duration = 5 * time.Second
	}
	if w.KillRestart && w.KillDaemon <= 0 {
		w.KillDaemon = w.Daemons - 1
	}
	if w.ReproposeAfter <= 0 {
		w.ReproposeAfter = 250 * time.Millisecond
	}
	return w
}

// DaemonLoadResult reports one multi-process daemon-cluster run.
type DaemonLoadResult struct {
	Workload DaemonWorkload `json:"workload"`
	// Nodes is the protocol population (Daemons × PerDaemon).
	Nodes int `json:"nodes"`
	// Attempts counts Append calls; Acked of them returned a committed
	// sequence number; Overloads were shed by admission control
	// (ErrOverload); Lost hit a session error mid-request.
	Attempts  int `json:"attempts"`
	Acked     int `json:"acked"`
	Overloads int `json:"overloads"`
	Lost      int `json:"lost"`
	// Committed is the leader store's committed entry count after
	// shutdown; MaxAckedSeq the highest sequence number acked to a client.
	Committed   int    `json:"committed"`
	MaxAckedSeq uint64 `json:"maxAckedSeq"`
	// Elapsed is the append phase plus drain; CommitP50/P99 are
	// client-observed append-to-ack latency percentiles; Hist the full
	// histogram over the shared bucket edges.
	Elapsed   time.Duration `json:"elapsedNs"`
	CommitP50 time.Duration `json:"commitP50Ns"`
	CommitP99 time.Duration `json:"commitP99Ns"`
	Hist      []HistBucket  `json:"hist,omitempty"`
	// Killed and Restarted report the kill/restart schedule's execution.
	Killed    bool `json:"killed,omitempty"`
	Restarted bool `json:"restarted,omitempty"`
	// Frontiers is each daemon's post-shutdown store frontier (committed
	// entry count); CommonPrefix the length of the byte-identical common
	// prefix across every daemon's store.
	Frontiers    []uint64 `json:"frontiers"`
	CommonPrefix int      `json:"commonPrefix"`
	// Scraped holds leader /metrics families sampled before shutdown
	// (fastba_commits_total, fastba_appends_total,
	// fastba_overload_shed_total), proving the live endpoint served real
	// counters.
	Scraped map[string]float64 `json:"scraped,omitempty"`
	// Oracles is the invariant verdict: the leader log's cross-instance
	// oracles plus the multi-process agreement (byte-identical prefixes)
	// and durability (every acked append is in the leader's durable log)
	// checks.
	Oracles OracleReport `json:"oracles"`
	// Dir is where stores, logs and the binary live — kept on failure.
	Dir string `json:"dir,omitempty"`
	// Err carries the harness's fatal error, if any.
	Err string `json:"err,omitempty"`
}

// BuildBalogd builds the balogd binary into out. It locates the
// enclosing Go module by walking up from the working directory, so it
// works from any directory inside the repository.
func BuildBalogd(ctx context.Context, out string) error {
	root, err := moduleRoot()
	if err != nil {
		return err
	}
	cmd := exec.CommandContext(ctx, "go", "build", "-o", out, "./cmd/balogd")
	cmd.Dir = root
	if b, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("fastba: build balogd: %w\n%s", err, b)
	}
	return nil
}

func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("fastba: no go.mod above the working directory (set DaemonWorkload.BalogdPath)")
		}
		dir = parent
	}
}

// daemonProc is one running balogd process.
type daemonProc struct {
	idx     int
	cmd     *exec.Cmd
	waitErr chan error
}

// daemonCluster manages the balogd process set of one run.
type daemonCluster struct {
	w       DaemonWorkload
	bin     string
	dir     string
	bases   []int // each daemon's base port; it owns [base, base+k+2]
	cluster string

	mu    sync.Mutex
	procs []*daemonProc
}

func (c *daemonCluster) storeDir(i int) string { return filepath.Join(c.dir, fmt.Sprintf("d%d", i)) }
func (c *daemonCluster) clientAddr(i int) string {
	return fmt.Sprintf("127.0.0.1:%d", c.bases[i]+c.w.PerDaemon+1)
}
func (c *daemonCluster) metricsAddr(i int) string {
	return fmt.Sprintf("127.0.0.1:%d", c.bases[i]+c.w.PerDaemon+2)
}

// start launches daemon i and begins reaping it.
func (c *daemonCluster) start(i int) error {
	logPath := filepath.Join(c.dir, fmt.Sprintf("balogd-%d.log", i))
	logFile, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	args := []string{
		"-node", strconv.Itoa(i),
		"-cluster", c.cluster,
		"-k", strconv.Itoa(c.w.PerDaemon),
		"-seed", strconv.FormatUint(c.w.Seed, 10),
		"-store", c.storeDir(i),
		"-repropose", c.w.ReproposeAfter.String(),
	}
	if c.w.Depth > 0 {
		args = append(args, "-depth", strconv.Itoa(c.w.Depth))
	}
	if c.w.BatchMax > 0 {
		args = append(args, "-batch", strconv.Itoa(c.w.BatchMax))
	}
	if c.w.QueueMax > 0 {
		args = append(args, "-queue", strconv.Itoa(c.w.QueueMax))
	}
	cmd := exec.Command(c.bin, args...)
	cmd.Stdout = logFile
	cmd.Stderr = logFile
	if err := cmd.Start(); err != nil {
		logFile.Close()
		return fmt.Errorf("start balogd %d: %w", i, err)
	}
	p := &daemonProc{idx: i, cmd: cmd, waitErr: make(chan error, 1)}
	go func() {
		p.waitErr <- cmd.Wait()
		logFile.Close()
	}()
	c.mu.Lock()
	c.procs[i] = p
	c.mu.Unlock()
	return nil
}

func (c *daemonCluster) proc(i int) *daemonProc {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.procs[i]
}

// kill SIGKILLs daemon i and reaps it — the crash half of the
// kill/restart schedule (kill -9 semantics: no flush, no goodbye).
func (c *daemonCluster) kill(i int) {
	p := c.proc(i)
	if p == nil {
		return
	}
	_ = p.cmd.Process.Kill()
	<-p.waitErr
	c.mu.Lock()
	c.procs[i] = nil
	c.mu.Unlock()
}

// stop gracefully terminates daemon i (SIGTERM, escalating to SIGKILL
// after grace) and returns its exit error. The proc slot is cleared once
// the process is reaped, so the error-path killAll never re-waits a
// drained waitErr channel.
func (c *daemonCluster) stop(i int, grace time.Duration) error {
	p := c.proc(i)
	if p == nil {
		return nil
	}
	defer c.clear(i, p)
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-p.waitErr:
		return err
	case <-time.After(grace):
		_ = p.cmd.Process.Kill()
		<-p.waitErr
		return fmt.Errorf("balogd %d: did not exit within %v of SIGTERM", i, grace)
	}
}

// clear releases daemon i's proc slot if it still holds p.
func (c *daemonCluster) clear(i int, p *daemonProc) {
	c.mu.Lock()
	if c.procs[i] == p {
		c.procs[i] = nil
	}
	c.mu.Unlock()
}

// stopAll gracefully terminates every live daemon concurrently.
func (c *daemonCluster) stopAll(grace time.Duration) error {
	errs := make([]error, len(c.procs))
	var wg sync.WaitGroup
	for i := range c.procs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = c.stop(i, grace)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// killAll hard-kills whatever is still running (error-path cleanup).
func (c *daemonCluster) killAll() {
	for i := range c.procs {
		if p := c.proc(i); p != nil {
			_ = p.cmd.Process.Kill()
			<-p.waitErr
		}
	}
}

// logTail returns the last portion of daemon i's log, for error reports.
func (c *daemonCluster) logTail(i int, max int) string {
	b, err := os.ReadFile(filepath.Join(c.dir, fmt.Sprintf("balogd-%d.log", i)))
	if err != nil {
		return ""
	}
	if len(b) > max {
		b = b[len(b)-max:]
	}
	return string(b)
}

// allocPortBases reserves daemons contiguous blocks of span ports each on
// the loopback interface, probing candidate ranges until one is entirely
// free — all of them below the kernel's ephemeral range, whose ports
// belong to outbound sockets (a neighbouring TCP test holds hundreds, plus
// their TIME_WAIT tail). The probe-then-release window is racy in
// principle; in practice the harness owns the range for the few
// milliseconds before the daemons bind, and a collision surfaces as a
// daemon startup failure.
func allocPortBases(daemons, span int) ([]int, error) {
	const floor = 10000
	need, ceil := daemons*span, ephemeralLow()
	width := ceil - need - floor
	if width <= 0 {
		return nil, fmt.Errorf("fastba: no room for %d ports between %d and the ephemeral range at %d", need, floor, ceil)
	}
	start := os.Getpid() * 211
	for attempt := 0; attempt < 64; attempt++ {
		lo := floor + (start+attempt*(need+37))%width
		if bases, ok := probeBlock(lo, daemons, span); ok {
			return bases, nil
		}
	}
	return nil, fmt.Errorf("fastba: no free port range for %d daemons × %d ports", daemons, span)
}

// ephemeralLow is the low bound of the kernel's ephemeral port range
// (32768, the Linux default, where it cannot be read).
func ephemeralLow() int {
	var lo int
	b, _ := os.ReadFile("/proc/sys/net/ipv4/ip_local_port_range")
	if _, err := fmt.Sscan(string(b), &lo); err != nil || lo <= 0 {
		return 32768
	}
	return lo
}

func probeBlock(lo, daemons, span int) ([]int, bool) {
	var lns []io.Closer
	defer func() {
		for _, ln := range lns {
			ln.Close()
		}
	}()
	bases := make([]int, daemons)
	for d := 0; d < daemons; d++ {
		bases[d] = lo + d*span
		for p := 0; p < span; p++ {
			ln, err := probeListen(lo + d*span + p)
			if err != nil {
				return nil, false
			}
			lns = append(lns, ln)
		}
	}
	return bases, true
}

// RunDaemonLoad runs the multi-process load harness: build (or reuse)
// the balogd binary, spawn Daemons real OS processes on loopback port
// blocks, drive Clients concurrent SDK sessions at the leader for
// Duration, execute the kill/restart schedule, wait for the survivors to
// converge, shut everything down gracefully and audit the WAL files left
// behind. The returned result carries client-observed latency
// percentiles and the multi-process oracle verdict; the error return is
// reserved for harness failures (a run with oracle violations returns
// res, nil with the violations in res.Oracles).
func RunDaemonLoad(ctx context.Context, w DaemonWorkload) (*DaemonLoadResult, error) {
	w = w.withDefaults()
	if w.Daemons < 2 {
		return nil, fmt.Errorf("fastba: daemon load needs ≥ 2 daemons")
	}
	if w.Daemons*w.PerDaemon < 8 {
		return nil, fmt.Errorf("fastba: population %d×%d < 8", w.Daemons, w.PerDaemon)
	}
	if w.KillRestart && (w.KillDaemon <= 0 || w.KillDaemon >= w.Daemons) {
		return nil, fmt.Errorf("fastba: kill daemon %d outside (0, %d) — daemon 0 leads and cannot be the kill target", w.KillDaemon, w.Daemons)
	}
	logf := w.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}

	res := &DaemonLoadResult{Workload: w, Nodes: w.Daemons * w.PerDaemon}

	dir := w.Dir
	madeDir := false
	if dir == "" {
		var err error
		dir, err = os.MkdirTemp("", "fastba-daemon-*")
		if err != nil {
			return nil, err
		}
		madeDir = true
	}
	res.Dir = dir

	bin := w.BalogdPath
	if bin == "" {
		bin = filepath.Join(dir, "balogd")
		logf("building balogd → %s", bin)
		if err := BuildBalogd(ctx, bin); err != nil {
			return nil, err
		}
	}

	bases, err := allocPortBases(w.Daemons, w.PerDaemon+3)
	if err != nil {
		return nil, err
	}
	var baseAddrs []string
	for _, b := range bases {
		baseAddrs = append(baseAddrs, fmt.Sprintf("127.0.0.1:%d", b))
	}
	c := &daemonCluster{
		w: w, bin: bin, dir: dir, bases: bases,
		cluster: strings.Join(baseAddrs, ","),
		procs:   make([]*daemonProc, w.Daemons),
	}
	defer c.killAll()

	logf("starting %d daemons (k=%d, n=%d) on %s", w.Daemons, w.PerDaemon, res.Nodes, c.cluster)
	for i := 0; i < w.Daemons; i++ {
		if err := c.start(i); err != nil {
			return nil, err
		}
	}
	for i := 0; i < w.Daemons; i++ {
		if err := waitHealthy(ctx, c, i, 20*time.Second); err != nil {
			return nil, fmt.Errorf("daemon %d never became healthy: %w\n--- balogd-%d.log ---\n%s", i, err, i, c.logTail(i, 2000))
		}
	}

	// Drive phase: Clients SDK sessions at the leader, plus the
	// kill/restart schedule on its own clock.
	var (
		attempts, acked, overloads, lost atomic.Int64
		maxAcked                         atomic.Uint64
		latMu                            sync.Mutex
		latencies                        []float64
	)
	driveCtx, stopDrive := context.WithTimeout(ctx, w.Duration)
	defer stopDrive()

	var schedWG sync.WaitGroup
	if w.KillRestart {
		schedWG.Add(1)
		go func() {
			defer schedWG.Done()
			third := w.Duration / 3
			select {
			case <-driveCtx.Done():
				return
			case <-time.After(third):
			}
			logf("killing daemon %d (SIGKILL)", w.KillDaemon)
			c.kill(w.KillDaemon)
			res.Killed = true
			select {
			case <-driveCtx.Done():
			case <-time.After(third):
			}
			logf("restarting daemon %d", w.KillDaemon)
			if err := c.start(w.KillDaemon); err == nil {
				res.Restarted = true
			}
		}()
	}

	start := time.Now()
	var clientWG sync.WaitGroup
	for cl := 0; cl < w.Clients; cl++ {
		clientWG.Add(1)
		go func(cl int) {
			defer clientWG.Done()
			lc, err := DialLog(driveCtx, ClientConfig{Addr: c.clientAddr(0)})
			if err != nil {
				return
			}
			defer lc.Close()
			// Pipeline workers share the one session: appends interleave by
			// request id over the same connection, which is exactly what
			// fills a per-session admission queue past QueueMax.
			var workerWG sync.WaitGroup
			for wk := 0; wk < w.Pipeline; wk++ {
				workerWG.Add(1)
				go func(wk int) {
					defer workerWG.Done()
					src := prng.New(prng.DeriveKey(w.Seed, "daemonload/client", uint64(cl)<<16|uint64(wk)))
					payload := make([]byte, w.PayloadBytes)
					var pacer *time.Timer
					if w.Rate > 0 {
						pacer = time.NewTimer(time.Duration(float64(time.Second) / w.Rate))
						defer pacer.Stop()
					}
					var lats []float64
					for driveCtx.Err() == nil {
						for i := range payload {
							payload[i] = byte(src.Uint64())
						}
						attempts.Add(1)
						t0 := time.Now()
						seq, err := lc.Append(driveCtx, append([]byte(nil), payload...))
						switch {
						case err == nil:
							acked.Add(1)
							lats = append(lats, float64(time.Since(t0))/float64(time.Millisecond))
							for {
								cur := maxAcked.Load()
								if seq <= cur || maxAcked.CompareAndSwap(cur, seq) {
									break
								}
							}
						case isOverload(err):
							overloads.Add(1)
							// Admission control never admitted the request,
							// so a paced resend is safe — back off a beat to
							// let the queue drain.
							sleepCtx(driveCtx, 2*time.Millisecond)
						case driveCtx.Err() != nil:
							// run over
						default:
							lost.Add(1)
							// Session errors self-heal on the next call
							// (redial with backoff inside the SDK).
						}
						if pacer != nil {
							select {
							case <-driveCtx.Done():
							case <-pacer.C:
								pacer.Reset(time.Duration(float64(time.Second) / w.Rate))
							}
						}
					}
					latMu.Lock()
					latencies = append(latencies, lats...)
					latMu.Unlock()
				}(wk)
			}
			workerWG.Wait()
		}(cl)
	}
	clientWG.Wait()
	stopDrive()
	schedWG.Wait()

	res.Attempts = int(attempts.Load())
	res.Acked = int(acked.Load())
	res.Overloads = int(overloads.Load())
	res.Lost = int(lost.Load())
	res.MaxAckedSeq = maxAcked.Load()
	logf("drive done: %d attempts, %d acked (max seq %d), %d overloads, %d lost",
		res.Attempts, res.Acked, res.MaxAckedSeq, res.Overloads, res.Lost)

	// Convergence: wait until every daemon's committed frontier reaches
	// the leader's, so the restarted daemon has repaired its gap before
	// the stores are compared. Scraping /metrics doubles as the liveness
	// probe of the metrics endpoint.
	if err := waitConverged(ctx, c, 30*time.Second); err != nil {
		res.Err = err.Error()
	}
	res.Scraped = scrapeFamilies(c.metricsAddr(0),
		"fastba_commits_total", "fastba_appends_total", "fastba_overload_shed_total")

	if err := c.stopAll(20 * time.Second); err != nil && res.Err == "" {
		res.Err = err.Error()
	}
	res.Elapsed = time.Since(start)

	// Post-mortem: read every WAL back and audit. The stores are only
	// readable now — while the daemons lived they owned these files.
	logs := make([][]store.Record, w.Daemons)
	for i := 0; i < w.Daemons; i++ {
		st, err := store.Open(c.storeDir(i), store.Options{})
		if err != nil {
			return nil, fmt.Errorf("reopen store of daemon %d: %w", i, err)
		}
		logs[i] = st.Records()
		res.Frontiers = append(res.Frontiers, st.Frontier())
		st.Close()
	}
	res.Committed = len(logs[0])
	res.CommonPrefix = commonPrefixLen(logs)
	res.Oracles = daemonOracles(logs, res)

	sort.Float64s(latencies)
	if len(latencies) > 0 {
		res.CommitP50 = time.Duration(metrics.Quantile(latencies, 0.5) * float64(time.Millisecond))
		res.CommitP99 = time.Duration(metrics.Quantile(latencies, 0.99) * float64(time.Millisecond))
		res.Hist = latencyHistogram(latencies)
	}
	exportDaemonLoadMetrics(w.Metrics, res, latencies)

	if madeDir && res.Err == "" && res.Oracles.OK() {
		os.RemoveAll(dir)
		res.Dir = ""
	}
	return res, nil
}

// isOverload reports an admission-control shed, whether surfaced as the
// typed sentinel or wrapped.
func isOverload(err error) bool { return errors.Is(err, ErrOverload) }

// probeListen checks one loopback port is bindable right now.
func probeListen(port int) (io.Closer, error) {
	return net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", port))
}

func sleepCtx(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}

// waitHealthy polls daemon i's /healthz until it answers 200.
func waitHealthy(ctx context.Context, c *daemonCluster, i int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	url := "http://" + c.metricsAddr(i) + "/healthz"
	var last error
	for time.Now().Before(deadline) && ctx.Err() == nil {
		resp, err := http.Get(url)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			last = fmt.Errorf("healthz: %s", resp.Status)
		} else {
			last = err
		}
		sleepCtx(ctx, 50*time.Millisecond)
	}
	if ctx.Err() != nil {
		return ctx.Err()
	}
	return last
}

// waitConverged polls every daemon's fastba_commit_seq until all match
// the leader's frontier sampled in the same round.
func waitConverged(ctx context.Context, c *daemonCluster, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	var lastState string
	for time.Now().Before(deadline) && ctx.Err() == nil {
		frontiers := make([]float64, len(c.procs))
		converged := true
		for i := range c.procs {
			fams := scrapeFamilies(c.metricsAddr(i), "fastba_commit_seq")
			frontiers[i] = fams["fastba_commit_seq"]
			if frontiers[i] != frontiers[0] {
				converged = false
			}
		}
		if converged && frontiers[0] > 0 {
			return nil
		}
		lastState = fmt.Sprint(frontiers)
		sleepCtx(ctx, 100*time.Millisecond)
	}
	return fmt.Errorf("fastba: daemons did not converge within %v (frontiers %s)", timeout, lastState)
}

// scrapeFamilies GETs a daemon's /metrics and sums each named family's
// sample values across label sets. Missing families read as 0.
func scrapeFamilies(addr string, names ...string) map[string]float64 {
	out := make(map[string]float64, len(names))
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		return out
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return out
	}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		for _, name := range names {
			if !strings.HasPrefix(line, name) {
				continue
			}
			rest := line[len(name):]
			if rest == "" || (rest[0] != '{' && rest[0] != ' ') {
				continue
			}
			fields := strings.Fields(line)
			if len(fields) < 2 {
				continue
			}
			if v, err := strconv.ParseFloat(fields[len(fields)-1], 64); err == nil {
				out[name] += v
			}
		}
	}
	return out
}

// canonicalRecordBytes encodes the canonical content of one committed
// record — sequence, decided value, payloads — excluding the per-daemon
// bookkeeping (decider counters, timestamps) that legitimately differs
// between a daemon that committed an instance itself and one that
// repaired it from a peer. "Byte-identical prefixes" means these bytes.
func canonicalRecordBytes(r store.Record) []byte {
	buf := binary.LittleEndian.AppendUint64(nil, r.Seq)
	buf = wire.AppendBitString(buf, r.Value)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(r.Payloads)))
	for _, p := range r.Payloads {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(p)))
		buf = append(buf, p...)
	}
	return buf
}

// commonPrefixLen returns the length of the longest prefix on which
// every daemon's log is canonically byte-identical.
func commonPrefixLen(logs [][]store.Record) int {
	n := len(logs[0])
	for _, l := range logs[1:] {
		if len(l) < n {
			n = len(l)
		}
	}
	for i := 0; i < n; i++ {
		want := canonicalRecordBytes(logs[0][i])
		for _, l := range logs[1:] {
			if string(canonicalRecordBytes(l[i])) != string(want) {
				return i
			}
		}
	}
	return n
}

// daemonOracles audits the recovered stores: the leader log's
// cross-instance oracles, multi-process agreement (every common prefix
// byte-identical) and durability (every acked append is in every
// daemon's durable log).
func daemonOracles(logs [][]store.Record, res *DaemonLoadResult) OracleReport {
	entries := make([]LogEntry, len(logs[0]))
	for i, r := range logs[0] {
		entries[i] = logEntry(pipeline.EntryOf(r))
	}
	rep := CheckLogInvariants(entries, 1)

	rep.Checked = append(rep.Checked, OracleLogDurability)
	sort.Strings(rep.Checked)
	violate := func(oracle, detail string, args ...any) {
		rep.Violations = append(rep.Violations, Violation{Oracle: oracle, Detail: fmt.Sprintf(detail, args...)})
	}
	// Agreement across processes: the shortest log bounds the comparable
	// prefix; inside it every record must be canonically identical.
	shortest := len(logs[0])
	for _, l := range logs {
		if len(l) < shortest {
			shortest = len(l)
		}
	}
	if res.CommonPrefix < shortest {
		violate(OracleLogAgreement,
			"daemon stores diverge at seq %d: common byte-identical prefix %d < shortest log %d",
			res.CommonPrefix, res.CommonPrefix, shortest)
	}
	// Durability: an ack promised the payload is committed; the leader's
	// durable log must reach past every acked sequence number, and so
	// must every follower after convergence (they repaired to the same
	// frontier before shutdown).
	if res.Acked > 0 {
		for i, l := range logs {
			if uint64(len(l)) <= res.MaxAckedSeq {
				violate(OracleLogDurability,
					"daemon %d holds %d committed entries but seq %d was acked to a client",
					i, len(l), res.MaxAckedSeq)
			}
		}
	}
	return rep
}

// exportDaemonLoadMetrics publishes the run through the shared registry
// surface under runtime="daemon" (see exportLoadMetrics).
func exportDaemonLoadMetrics(reg *MetricsRegistry, res *DaemonLoadResult, latenciesMs []float64) {
	if reg == nil {
		return
	}
	label := []string{"runtime", "daemon"}
	h := reg.Histogram("fastba_commit_latency_seconds", "Client-observed commit latency.", metrics.LatencyBucketsSeconds(), label...)
	for _, ms := range latenciesMs {
		h.Observe(ms / 1e3)
	}
	reg.Counter("fastba_load_proposed_total", "Payloads accepted from load clients.", label...).Add(int64(res.Attempts))
	reg.Counter("fastba_load_committed_payloads_total", "Payloads that reached a committed entry.", label...).Add(int64(res.Acked))
	reg.Counter("fastba_load_committed_entries_total", "Entries committed during load runs.", label...).Add(int64(res.Committed))
	reg.Counter("fastba_overload_shed_total", "Client append requests shed by admission control.", label...).Add(int64(res.Overloads))
}
