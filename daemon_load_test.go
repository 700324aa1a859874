package fastba

import (
	"context"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"
)

// TestRunDaemonLoadSmoke: the multi-process harness end to end — build
// balogd, spawn 4 real OS processes, drive the SDK through the shared
// client loop, kill and restart one daemon mid-workload (Restarts: 1),
// and audit the WALs left behind. This is the
// in-repo twin of the CI daemon-smoke job.
func TestRunDaemonLoadSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real balogd processes and builds the binary")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()

	res, err := RunDaemonLoad(ctx,
		Workload{Clients: 4, Duration: 3 * time.Second, Restarts: 1},
		DaemonCluster{Daemons: 4, PerDaemon: 2, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if res.Err != "" {
		t.Fatalf("harness error: %s (scratch kept at %s)", res.Err, res.Dir)
	}
	if res.Restarts != 1 {
		t.Fatalf("kill/restart schedule incomplete: %d of 1 restarts", res.Restarts)
	}
	if res.Committed == 0 || res.CommittedPayloads == 0 {
		t.Fatalf("nothing committed: %d entries, %d acked", res.Committed, res.CommittedPayloads)
	}
	if !res.Oracles.OK() {
		t.Fatalf("oracle violations: %s (scratch kept at %s)", res.Oracles, res.Dir)
	}
	// Byte-identical prefixes: the common prefix must span the shortest
	// store, and after convergence every store reaches the leader's.
	for i, f := range res.Frontiers {
		if f != res.Frontiers[0] {
			t.Errorf("daemon %d frontier %d != leader frontier %d", i, f, res.Frontiers[0])
		}
	}
	if res.CommonPrefix != res.Committed {
		t.Errorf("byte-identical prefix %d < committed %d", res.CommonPrefix, res.Committed)
	}
	if res.Scraped["fastba_commits_total"] == 0 {
		t.Error("leader /metrics scrape saw no commits")
	}
}

// TestRestartSchedule: restart i of R kills at (2i+1)/(2R+1) of the run
// and restarts at (2i+2)/(2R+1).
func TestRestartSchedule(t *testing.T) {
	for _, tc := range []struct {
		d        time.Duration
		restarts int
		want     [][2]time.Duration
	}{
		{3 * time.Second, 0, [][2]time.Duration{}},
		{3 * time.Second, 1, [][2]time.Duration{{time.Second, 2 * time.Second}}},
		{5 * time.Second, 2, [][2]time.Duration{{time.Second, 2 * time.Second}, {3 * time.Second, 4 * time.Second}}},
	} {
		if got := restartSchedule(tc.d, tc.restarts); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("restartSchedule(%v, %d) = %v, want %v", tc.d, tc.restarts, got, tc.want)
		}
	}
}

// TestDriveLoadDrainBudget: RunDaemonLoad's shape — appends run under a
// context that outlives the drive phase by a fixed budget. An append whose
// ack never arrives is cut off at that budget and counts as run over
// (neither acked nor lost) instead of hanging the harness.
func TestDriveLoadDrainBudget(t *testing.T) {
	const d, budget = 20 * time.Millisecond, 100 * time.Millisecond
	drive, stop := context.WithTimeout(context.Background(), d)
	defer stop()
	drain, stopDrain := context.WithTimeout(context.Background(), d+budget)
	defer stopDrain()
	hung := func(ctx context.Context, _ []byte) (uint64, error) {
		<-ctx.Done() // the ack never comes
		return 0, ctx.Err()
	}
	start := time.Now()
	done := make(chan loadTally, 1)
	go func() {
		done <- driveLoad(drain, drive, Workload{Clients: 2, Pipeline: 2, PayloadBytes: 8}, 1, 0, oneSession(hung))
	}()
	select {
	case got := <-done:
		if got.proposed != 4 || got.acked != 0 || got.lost != 0 {
			t.Fatalf("tally %+v, want 4 appends run over (none acked, none lost)", got)
		}
		if took := time.Since(start); took < 100*time.Millisecond || took > time.Second {
			t.Fatalf("drain ended after %v, want ≈ 20ms drive + 100ms budget", took)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("driveLoad hung on appends that never ack")
	}
}

// TestWaitHealthyHonoursDeadline: a metrics endpoint that accepts the
// connection and never answers must not hold the harness past the
// probe's deadline.
func TestWaitHealthyHonoursDeadline(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var (
		mu    sync.Mutex
		conns []net.Conn
	)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, conn) // held open, never written
			mu.Unlock()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		mu.Lock()
		for _, c := range conns {
			c.Close()
		}
		mu.Unlock()
	})

	start := time.Now()
	done := make(chan error, 1)
	go func() { done <- waitHealthy(context.Background(), ln.Addr().String(), 300*time.Millisecond) }()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("a silent endpoint reported healthy")
		}
		if took := time.Since(start); took > time.Second {
			t.Fatalf("waitHealthy returned after %v, want ≈ 300ms", took)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waitHealthy hung on an endpoint that never answers")
	}
}

// TestAllocPortBasesBelowEphemeralRange: the harness never probes inside
// the range the kernel hands to outbound sockets.
func TestAllocPortBasesBelowEphemeralRange(t *testing.T) {
	bases, err := allocPortBases(4, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range bases {
		if b < 10000 || b+5 > ephemeralLow() {
			t.Fatalf("block [%d, %d) outside [10000, %d)", b, b+5, ephemeralLow())
		}
	}
}
