package fastba

// The multi-process load harness: spawn a cluster of real balogd OS
// processes, drive the client SDK at them over real sockets with the same
// client loop RunLoad uses, kill -9 and restart one daemon per
// Workload.Restarts, and verify that every daemon's durable store holds a
// byte-identical committed prefix. This is the deployment-shaped
// counterpart of RunLoad — same loop, same result, same oracles, but
// nothing shares an address space: commits survive into WAL files the
// harness reads back only after the processes have exited.

import (
	"context"
	"encoding/binary"
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
	"syscall"
	"time"

	"github.com/fastba/fastba/internal/pipeline"
	"github.com/fastba/fastba/internal/store"
	"github.com/fastba/fastba/internal/wire"
)

// DaemonCluster is the balogd command line of a RunDaemonLoad run and the
// harness's scratch space.
type DaemonCluster struct {
	// Daemons is the number of balogd processes (default 4, minimum 2);
	// PerDaemon is k, the protocol nodes each hosts (default 2). The
	// population Daemons·k must be ≥ 8.
	Daemons   int
	PerDaemon int
	// Seed keys the cluster and the client payload streams (default 1).
	Seed uint64
	// Depth, BatchMax and QueueMax pass through to balogd (-depth, -batch,
	// -queue); 0 keeps balogd's default. A QueueMax below
	// Workload.Pipeline is the overload-shedding configuration: admission
	// control sheds appends and the SDK surfaces ErrOverload.
	Depth    int
	BatchMax int
	QueueMax int
	// BalogdPath is a prebuilt balogd binary; empty builds one from the
	// enclosing module into Dir.
	BalogdPath string
	// Dir is the scratch directory for stores, daemon logs and the built
	// binary. Empty creates a temp dir, removed again when the run ends
	// healthy (kept for inspection when anything failed).
	Dir string
	// Logf, when set, receives harness progress lines.
	Logf func(format string, args ...any)
}

func (c DaemonCluster) withDefaults() DaemonCluster {
	if c.Daemons <= 0 {
		c.Daemons = 4
	}
	if c.PerDaemon <= 0 {
		c.PerDaemon = 2
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// daemonReproposeAfter paces the leader's stalled-instance retries:
// snappier than balogd's 2 s default, because a restart run spends part
// of its duration with a daemon dark.
const daemonReproposeAfter = 250 * time.Millisecond

// convergeBudget bounds each of the post-drive waits: the appends still in
// flight when the drive phase ends, and the followers' convergence.
const convergeBudget = 30 * time.Second

// restartSchedule returns, for each of restarts crash/recover cycles in a
// run of length d, when the victim is killed and when it is restarted:
// cycle i spans (2i+1)/(2R+1) to (2i+2)/(2R+1) of the run.
func restartSchedule(d time.Duration, restarts int) [][2]time.Duration {
	slot := d / time.Duration(2*restarts+1)
	out := make([][2]time.Duration, restarts)
	for i := range out {
		out[i] = [2]time.Duration{time.Duration(2*i+1) * slot, time.Duration(2*i+2) * slot}
	}
	return out
}

// buildBalogd builds the balogd binary into out. It locates the
// enclosing Go module by walking up from the working directory, so it
// works from any directory inside the repository.
func buildBalogd(ctx context.Context, out string) error {
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
			return "", fmt.Errorf("fastba: no go.mod above the working directory (set DaemonCluster.BalogdPath)")
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

// daemonSet manages the balogd process set of one run.
type daemonSet struct {
	cfg     DaemonCluster
	bin     string
	dir     string
	bases   []int // each daemon's base port; it owns [base, base+k+2]
	cluster string

	mu    sync.Mutex
	procs []*daemonProc
}

func (c *daemonSet) storeDir(i int) string { return filepath.Join(c.dir, fmt.Sprintf("d%d", i)) }
func (c *daemonSet) clientAddr(i int) string {
	return fmt.Sprintf("127.0.0.1:%d", c.bases[i]+c.cfg.PerDaemon+1)
}
func (c *daemonSet) metricsAddr(i int) string {
	return fmt.Sprintf("127.0.0.1:%d", c.bases[i]+c.cfg.PerDaemon+2)
}

// start launches daemon i and begins reaping it.
func (c *daemonSet) start(i int) error {
	logPath := filepath.Join(c.dir, fmt.Sprintf("balogd-%d.log", i))
	logFile, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	args := []string{
		"-node", strconv.Itoa(i),
		"-cluster", c.cluster,
		"-k", strconv.Itoa(c.cfg.PerDaemon),
		"-seed", strconv.FormatUint(c.cfg.Seed, 10),
		"-store", c.storeDir(i),
		"-repropose", daemonReproposeAfter.String(),
	}
	if c.cfg.Depth > 0 {
		args = append(args, "-depth", strconv.Itoa(c.cfg.Depth))
	}
	if c.cfg.BatchMax > 0 {
		args = append(args, "-batch", strconv.Itoa(c.cfg.BatchMax))
	}
	if c.cfg.QueueMax > 0 {
		args = append(args, "-queue", strconv.Itoa(c.cfg.QueueMax))
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

func (c *daemonSet) proc(i int) *daemonProc {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.procs[i]
}

// kill SIGKILLs daemon i and reaps it — the crash half of the
// kill/restart schedule (kill -9 semantics: no flush, no goodbye).
func (c *daemonSet) kill(i int) {
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
func (c *daemonSet) stop(i int, grace time.Duration) error {
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
func (c *daemonSet) clear(i int, p *daemonProc) {
	c.mu.Lock()
	if c.procs[i] == p {
		c.procs[i] = nil
	}
	c.mu.Unlock()
}

// stopAll gracefully terminates every live daemon concurrently.
func (c *daemonSet) stopAll(grace time.Duration) error {
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
func (c *daemonSet) killAll() {
	for i := range c.procs {
		if p := c.proc(i); p != nil {
			_ = p.cmd.Process.Kill()
			<-p.waitErr
		}
	}
}

// logTail returns the last portion of daemon i's log, for error reports.
func (c *daemonSet) logTail(i int, max int) string {
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
			ln, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", lo+d*span+p))
			if err != nil {
				return nil, false
			}
			lns = append(lns, ln)
		}
	}
	return bases, true
}

// RunDaemonLoad runs the multi-process load harness: build (or reuse)
// the balogd binary, spawn c.Daemons real OS processes on loopback port
// blocks, drive the client loop's w.Clients SDK sessions at the leader
// for w.Duration, execute the restart schedule on the last daemon, wait
// for the survivors to converge, shut everything down gracefully and
// audit the WAL files left behind. The returned result carries
// client-observed latency percentiles and the multi-process oracle
// verdict; the error return is reserved for harness failures (a run with
// oracle violations returns res, nil with the violations in res.Oracles).
func RunDaemonLoad(ctx context.Context, w Workload, c DaemonCluster) (*LoadResult, error) {
	w, c = w.withDefaults(), c.withDefaults()
	if c.Daemons < 2 {
		return nil, fmt.Errorf("fastba: daemon load needs ≥ 2 daemons")
	}
	if c.Daemons*c.PerDaemon < 8 {
		return nil, fmt.Errorf("fastba: population %d×%d < 8", c.Daemons, c.PerDaemon)
	}
	if w.Restarts < 0 {
		return nil, fmt.Errorf("fastba: Workload.Restarts %d < 0", w.Restarts)
	}
	res := &LoadResult{Workload: w, Runtime: "daemon", Depth: c.Depth}

	dir := c.Dir
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

	bin := c.BalogdPath
	if bin == "" {
		bin = filepath.Join(dir, "balogd")
		c.Logf("building balogd → %s", bin)
		if err := buildBalogd(ctx, bin); err != nil {
			return nil, err
		}
	}

	bases, err := allocPortBases(c.Daemons, c.PerDaemon+3)
	if err != nil {
		return nil, err
	}
	var baseAddrs []string
	for _, b := range bases {
		baseAddrs = append(baseAddrs, fmt.Sprintf("127.0.0.1:%d", b))
	}
	set := &daemonSet{
		cfg: c, bin: bin, dir: dir, bases: bases,
		cluster: strings.Join(baseAddrs, ","),
		procs:   make([]*daemonProc, c.Daemons),
	}
	defer set.killAll()

	c.Logf("starting %d daemons (k=%d, n=%d) on %s", c.Daemons, c.PerDaemon, c.Daemons*c.PerDaemon, set.cluster)
	for i := 0; i < c.Daemons; i++ {
		if err := set.start(i); err != nil {
			return nil, err
		}
	}
	for i := 0; i < c.Daemons; i++ {
		if err := waitHealthy(ctx, set.metricsAddr(i), 20*time.Second); err != nil {
			return nil, fmt.Errorf("daemon %d never became healthy: %w\n--- balogd-%d.log ---\n%s", i, err, i, set.logTail(i, 2000))
		}
	}

	// Drive phase: the client loop at the leader, plus the restart
	// schedule on its own clock. The victim is the last daemon — never
	// daemon 0, which sequences appends.
	drive, stopDrive := context.WithTimeout(ctx, w.Duration)
	defer stopDrive()
	start := time.Now()
	var schedWG sync.WaitGroup
	schedWG.Add(1)
	go func() {
		defer schedWG.Done()
		victim := c.Daemons - 1
		for _, at := range restartSchedule(w.Duration, w.Restarts) {
			sleepCtx(drive, time.Until(start.Add(at[0])))
			if drive.Err() != nil {
				return
			}
			c.Logf("killing daemon %d (SIGKILL)", victim)
			set.kill(victim)
			// A killed daemon is always restarted, even past the drive phase.
			sleepCtx(drive, time.Until(start.Add(at[1])))
			c.Logf("restarting daemon %d", victim)
			if err := set.start(victim); err != nil {
				c.Logf("restart of daemon %d failed: %v", victim, err)
				return
			}
			res.Restarts++
		}
	}()
	// Appends still in flight when the drive phase ends are waited out for
	// at most convergeBudget: an ack that never arrives is cut off (run
	// over) instead of hanging the harness.
	drain, stopDrain := context.WithTimeout(ctx, w.Duration+convergeBudget)
	defer stopDrain()
	tally := driveLoad(drain, drive, w, c.Seed, 0, func(ctx context.Context, _ int) (appendFunc, func(), error) {
		lc, err := DialLog(ctx, ClientConfig{Addr: set.clientAddr(0)})
		if err != nil {
			return nil, nil, err
		}
		return lc.Append, func() { lc.Close() }, nil
	})
	stopDrive()
	schedWG.Wait()
	c.Logf("drive done: %d attempts, %d acked (max seq %d), %d overloads, %d lost",
		tally.proposed, tally.acked, tally.maxAckedSeq, tally.overloads, tally.lost)

	// Convergence: wait until every daemon's committed frontier reaches
	// the leader's, so the restarted daemon has repaired its gap before
	// the stores are compared. Scraping /metrics doubles as the liveness
	// probe of the metrics endpoint.
	if err := waitConverged(ctx, set, convergeBudget); err != nil {
		res.Err = err.Error()
	}
	res.Scraped = scrapeFamilies(ctx, set.metricsAddr(0),
		"fastba_commits_total", "fastba_appends_total", "fastba_overload_shed_total")

	if err := set.stopAll(20 * time.Second); err != nil && res.Err == "" {
		res.Err = err.Error()
	}
	res.Elapsed = time.Since(start)

	// Post-mortem: read every WAL back and audit. The stores are only
	// readable now — while the daemons lived they owned these files.
	logs := make([][]store.Record, c.Daemons)
	for i := 0; i < c.Daemons; i++ {
		st, err := store.Open(set.storeDir(i), store.Options{})
		if err != nil {
			return nil, fmt.Errorf("reopen store of daemon %d: %w", i, err)
		}
		logs[i] = st.Records()
		res.Frontiers = append(res.Frontiers, st.Frontier())
		st.Close()
	}
	res.Committed = len(logs[0])
	res.CommonPrefix = commonPrefixLen(logs)
	res.settle(tally)
	res.Oracles = daemonOracles(logs, res)

	if madeDir && res.Err == "" && res.Oracles.OK() {
		os.RemoveAll(dir)
		res.Dir = ""
	}
	return res, nil
}

// probeTimeout bounds one HTTP request to a daemon's metrics endpoint: a
// daemon that accepts a connection and never answers must not hold the
// harness past its own deadline.
const probeTimeout = 2 * time.Second

// probe GETs url under ctx and probeTimeout and returns the status code
// and (up to 1 MiB of) the body.
func probe(ctx context.Context, url string) (int, []byte, error) {
	ctx, cancel := context.WithTimeout(ctx, probeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	return resp.StatusCode, body, err
}

// waitHealthy polls the daemon metrics endpoint at addr until /healthz
// answers 200, for at most timeout.
func waitHealthy(ctx context.Context, addr string, timeout time.Duration) error {
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	url := "http://" + addr + "/healthz"
	var last error
	for ctx.Err() == nil {
		status, _, err := probe(ctx, url)
		switch {
		case err != nil:
			last = err
		case status == http.StatusOK:
			return nil
		default:
			last = fmt.Errorf("healthz: %d %s", status, http.StatusText(status))
		}
		sleepCtx(ctx, 50*time.Millisecond)
	}
	if last == nil {
		last = ctx.Err()
	}
	return last
}

// waitConverged polls every daemon's fastba_commit_seq until all match
// the leader's frontier sampled in the same round, for at most timeout.
func waitConverged(ctx context.Context, set *daemonSet, timeout time.Duration) error {
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	var lastState string
	for ctx.Err() == nil {
		frontiers := make([]float64, len(set.procs))
		converged := true
		for i := range set.procs {
			fams := scrapeFamilies(ctx, set.metricsAddr(i), "fastba_commit_seq")
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
func scrapeFamilies(ctx context.Context, addr string, names ...string) map[string]float64 {
	out := make(map[string]float64, len(names))
	_, body, err := probe(ctx, "http://"+addr+"/metrics")
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
func daemonOracles(logs [][]store.Record, res *LoadResult) OracleReport {
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
	if res.CommittedPayloads > 0 {
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
