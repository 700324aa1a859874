package fastba

import (
	"context"
	"strings"
	"testing"
	"time"
)

// TestRunDaemonLoadSmoke: the multi-process harness end to end — build
// balogd, spawn 4 real OS processes, drive the SDK, kill and restart one
// daemon mid-workload, and audit the WALs left behind. This is the
// in-repo twin of the CI daemon-smoke job.
func TestRunDaemonLoadSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real balogd processes and builds the binary")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()

	reg := NewMetricsRegistry()
	res, err := RunDaemonLoad(ctx, DaemonWorkload{
		Daemons:     4,
		PerDaemon:   2,
		Clients:     4,
		Duration:    3 * time.Second,
		KillRestart: true,
		Metrics:     reg,
		Logf:        t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Err != "" {
		t.Fatalf("harness error: %s (scratch kept at %s)", res.Err, res.Dir)
	}
	if !res.Killed || !res.Restarted {
		t.Fatalf("kill/restart schedule incomplete: killed=%v restarted=%v", res.Killed, res.Restarted)
	}
	if res.Committed == 0 || res.Acked == 0 {
		t.Fatalf("nothing committed: %d entries, %d acked", res.Committed, res.Acked)
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
	// The run exported through the shared registry surface.
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, fam := range []string{"fastba_commit_latency_seconds", "fastba_load_committed_entries_total"} {
		if !strings.Contains(b.String(), fam) {
			t.Errorf("registry exposition missing %s", fam)
		}
	}
}

// TestWithMetricsExportsLoadFamilies: an in-process RunLoad with
// WithMetrics publishes the same counter families the daemon serves —
// one bookkeeping surface across runtimes.
func TestWithMetricsExportsLoadFamilies(t *testing.T) {
	reg := NewMetricsRegistry()
	cfg := NewConfig(16, WithSeed(7), WithKnowFrac(1),
		WithWorkload(Workload{Clients: 2, Duration: 300 * time.Millisecond}),
		WithMetrics(reg))
	res, err := RunLoad(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed == 0 {
		t.Fatal("no entries committed")
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	body := b.String()
	for _, fam := range []string{
		"fastba_commit_latency_seconds_bucket",
		`fastba_load_proposed_total{runtime="fabric"}`,
		`fastba_load_committed_entries_total{runtime="fabric"}`,
		"fastba_net_frames_sent_total",
	} {
		if !strings.Contains(body, fam) {
			t.Errorf("exposition missing %s\n%s", fam, body)
		}
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
