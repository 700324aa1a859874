package main

// The daemon row's process management: build balogd, probe free port
// blocks, start the daemons quietly, scrape their /metrics, and always
// reap them and remove their stores.

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	fastba "github.com/fastba/fastba"
)

const (
	daemons   = 2
	perDaemon = 4
	// balogd's default -batch: the most appends one entry can acknowledge.
	daemonBatchMax = 16
	// Each daemon owns [base, base+k+2]: k mesh listeners, catch-up,
	// client and metrics.
	portSpan = perDaemon + 3
)

// buildBalogd builds the daemon binary once per process, before any clock
// that feeds a metric starts.
func (e *env) buildBalogd(ctx context.Context) error {
	if e.balogd != "" {
		return nil
	}
	t0 := time.Now()
	out := filepath.Join(e.buildDir(), "balogd")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", out, "./cmd/balogd")
	cmd.Dir = e.root
	if b, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("build balogd: %w\n%s", err, b)
	}
	e.balogd, e.buildS = out, time.Since(t0).Seconds()
	return nil
}

// daemonCluster is a running set of balogd processes and the SDK
// connections driving it.
type daemonCluster struct {
	dir     string
	seed    uint64
	bases   []int
	procs   []*exec.Cmd
	clients []*fastba.LogClient

	mu   sync.Mutex
	acks map[uint64]int // acknowledged sequence number → appends it acknowledged
}

func openDaemons(ctx context.Context, e *env, _ workload, seed uint64) (cluster, error) {
	dir, err := os.MkdirTemp(e.scratch, "daemons-")
	if err != nil {
		return nil, err
	}
	c := &daemonCluster{dir: dir, seed: seed, acks: map[uint64]int{}}
	if c.bases, err = freePortBlocks(); err != nil {
		c.close()
		return nil, err
	}
	addrs := make([]string, daemons)
	for i, b := range c.bases {
		addrs[i] = fmt.Sprintf("127.0.0.1:%d", b)
	}
	for i := 0; i < daemons; i++ {
		cmd := exec.Command(e.balogd, "-quiet",
			"-node", strconv.Itoa(i), "-cluster", strings.Join(addrs, ","),
			"-k", strconv.Itoa(perDaemon), "-seed", strconv.FormatUint(seed, 10),
			"-store", filepath.Join(dir, "d"+strconv.Itoa(i)))
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			c.close()
			return nil, fmt.Errorf("start balogd %d: %w", i, err)
		}
		c.procs = append(c.procs, cmd)
	}
	for i := range c.procs {
		if err := c.waitHealthy(ctx, i); err != nil {
			c.close()
			return nil, fmt.Errorf("balogd %d never became healthy: %w", i, err)
		}
	}
	// Two connections, each shared by half of the closed loops.
	for i := 0; i < 2; i++ {
		lc, err := fastba.DialLog(ctx, fastba.ClientConfig{Addr: c.addr(0, perDaemon+1)})
		if err != nil {
			c.close()
			return nil, err
		}
		c.clients = append(c.clients, lc)
	}
	return c, nil
}

func (c *daemonCluster) addr(daemon, offset int) string {
	return fmt.Sprintf("127.0.0.1:%d", c.bases[daemon]+offset)
}

func (c *daemonCluster) op(ctx context.Context, client, i int) (uint64, time.Duration, error) {
	seq, err := c.clients[client%len(c.clients)].Append(ctx, payloadFor(c.seed, client, i))
	if err != nil {
		return 0, 0, err
	}
	c.mu.Lock()
	c.acks[seq]++
	c.mu.Unlock()
	return seq, 0, nil
}

func (c *daemonCluster) childCPU() time.Duration {
	var total time.Duration
	for _, p := range c.procs {
		total += procCPU(p.Process.Pid)
	}
	return total
}

// verify waits for the followers to drain and judges the acknowledgements
// against the daemons' own view of the log.
func (c *daemonCluster) verify(ctx context.Context) []string {
	st, err := c.clients[0].Status(ctx)
	if err != nil {
		return []string{"daemon-status: " + err.Error()}
	}
	violations := checkAcks(c.acks, st.Frontier)
	deadline := time.Now().Add(10 * time.Second)
	for {
		seqs := make([]float64, daemons)
		equal := true
		for i := range seqs {
			seqs[i] = c.scrape(i)["fastba_commit_seq"]
			equal = equal && seqs[i] == seqs[0]
		}
		if equal && seqs[0] == float64(st.Frontier) {
			return violations
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			return append(violations, fmt.Sprintf("daemon-convergence: commit frontiers %v, leader acknowledged up to %d", seqs, st.Frontier))
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// checkAcks judges a closed-loop run's acknowledgements: every
// acknowledged sequence number is below the leader's committed frontier,
// acknowledges no more appends than one entry can hold, and — the harness
// being the cluster's only client — the acknowledged numbers have no gap.
func checkAcks(acks map[uint64]int, frontier uint64) []string {
	var violations []string
	lo, hi := ^uint64(0), uint64(0)
	for seq, n := range acks {
		lo, hi = min(lo, seq), max(hi, seq)
		if seq >= frontier {
			violations = append(violations, fmt.Sprintf("daemon-durability: seq %d acknowledged, leader frontier is %d", seq, frontier))
		}
		if n > daemonBatchMax {
			violations = append(violations, fmt.Sprintf("daemon-duplicate: seq %d acknowledged %d appends, an entry holds at most %d", seq, n, daemonBatchMax))
		}
	}
	for seq := lo; seq < hi; seq++ {
		if acks[seq] == 0 {
			violations = append(violations, fmt.Sprintf("daemon-gap: seq %d lies between acknowledged entries but acknowledged nothing", seq))
		}
	}
	return violations
}

// counters are the leader's cumulative /metrics series plus the follower's
// frontier and the leader's WAL size.
func (c *daemonCluster) counters() map[string]float64 {
	out := c.scrape(0)
	out["follower.commit_seq"] = c.scrape(1)["fastba_commit_seq"]
	out["store.bytes"] = dirBytes(filepath.Join(c.dir, "d0"))
	return out
}

// scrape sums each /metrics family of one daemon across label sets;
// histogram buckets keep their le label as part of the name.
func (c *daemonCluster) scrape(daemon int) map[string]float64 {
	out := map[string]float64{}
	resp, err := http.Get("http://" + c.addr(daemon, perDaemon+2) + "/metrics")
	if err != nil {
		return out
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if sp < 0 || err != nil {
			continue
		}
		name, labels, _ := strings.Cut(line[:sp], "{")
		if i := strings.Index(labels, `le="`); i >= 0 {
			le, _, _ := strings.Cut(labels[i+4:], `"`)
			name += ":" + le
		}
		out[name] += v
	}
	return out
}

func (c *daemonCluster) waitHealthy(ctx context.Context, daemon int) error {
	url := "http://" + c.addr(daemon, perDaemon+2) + "/healthz"
	deadline := time.Now().Add(20 * time.Second)
	for {
		resp, err := http.Get(url)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			err = fmt.Errorf("healthz: %s", resp.Status)
		}
		if time.Now().After(deadline) {
			return err
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// close reaps every daemon — SIGTERM, then SIGKILL after 5 s — and removes
// the stores, whatever state the run ended in.
func (c *daemonCluster) close() {
	for _, lc := range c.clients {
		lc.Close()
	}
	for _, p := range c.procs {
		p.Process.Signal(syscall.SIGTERM)
	}
	for _, p := range c.procs {
		done := make(chan struct{})
		go func() { p.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			p.Process.Kill()
			<-done
		}
	}
	os.RemoveAll(c.dir)
}

// freePortBlocks finds one free block of portSpan loopback ports per
// daemon, starting from a PID-derived offset so concurrent harnesses (and a
// leaked daemon of a dead one) do not collide.
func freePortBlocks() ([]int, error) {
	lo := 23000 + (os.Getpid()*211)%17000
	for attempt := 0; attempt < 64; attempt++ {
		if lo+daemons*portSpan >= 65000 {
			lo = 23000
		}
		if blockFree(lo, daemons*portSpan) {
			bases := make([]int, daemons)
			for d := range bases {
				bases[d] = lo + d*portSpan
			}
			return bases, nil
		}
		lo += daemons*portSpan + 37
	}
	return nil, fmt.Errorf("no free block of %d loopback ports", daemons*portSpan)
}

func blockFree(lo, span int) bool {
	for p := lo; p < lo+span; p++ {
		ln, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", p))
		if err != nil {
			return false
		}
		ln.Close()
	}
	return true
}

// dirBytes sums the sizes of a directory's files.
func dirBytes(dir string) float64 {
	var total float64
	filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, err := d.Info(); err == nil {
				total += float64(info.Size())
			}
		}
		return nil
	})
	return total
}
