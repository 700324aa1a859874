package metrics

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"github.com/fastba/fastba/internal/simnet"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// TestRegistryCollectors: the collector types count, gauge and observe
// correctly, and re-registering a (name, labels) pair returns the same
// collector (the shared-surface contract).
func TestRegistryCollectors(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "help")
	c.Add(3)
	c.Inc()
	c.Add(-5) // ignored: counters only go up
	if got := c.Value(); got != 4 {
		t.Fatalf("counter = %d, want 4", got)
	}
	if r.Counter("c_total", "help") != c {
		t.Fatal("re-registering returned a different counter")
	}
	g := r.Gauge("g", "help")
	g.Set(2.5)
	if got := g.Value(); got != 2.5 {
		t.Fatalf("gauge = %v, want 2.5", got)
	}
	h := r.Histogram("h_seconds", "help", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(10) // above the last edge: +Inf only
	if got := h.Count(); got != 3 {
		t.Fatalf("histogram count = %d, want 3", got)
	}
	if r.Histogram("h_seconds", "help", nil) != h {
		t.Fatal("re-registering returned a different histogram")
	}
	// Labeled series are distinct from the unlabeled one and from each
	// other, independent of label order.
	a := r.Counter("c_total", "help", "node", "0", "role", "leader")
	b := r.Counter("c_total", "help", "role", "leader", "node", "0")
	if a != b {
		t.Fatal("label order changed series identity")
	}
	if a == c {
		t.Fatal("labeled series collided with the unlabeled one")
	}
}

// TestRegistryConcurrent: concurrent registration and updates on the same
// names race-cleanly (run under -race in CI).
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				r.Counter("x_total", "h").Inc()
				r.Gauge("y", "h").Set(float64(j))
				r.Histogram("z_seconds", "h", []float64{1, 2}).Observe(1.5)
				var buf bytes.Buffer
				_ = r.WritePrometheus(&buf)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("x_total", "h").Value(); got != 800 {
		t.Fatalf("counter = %d, want 800", got)
	}
}

// TestPrometheusExpositionGolden pins the exposition output — metric
// names, label rendering, bucket layout, ordering — against a golden
// file, so the daemon's /metrics surface cannot drift silently. The
// registry is populated the way balogd populates it: daemon counters,
// a latency histogram on the shared edges, and the NetStats bridge.
func TestPrometheusExpositionGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("fastba_appends_total", "Client append requests admitted.", "node", "0").Add(42)
	r.Counter("fastba_overload_shed_total", "Client append requests shed by admission control.", "node", "0").Add(3)
	r.Gauge("fastba_commit_seq", "The daemon's committed frontier.", "node", "0").Set(17)
	r.Gauge("fastba_membership_epoch", "The configuration epoch of the peer set.", "node", "0").Set(7)
	r.GaugeFunc("fastba_peers_alive", "Peer daemons answering membership handshakes.", func() float64 { return 3 }, "node", "0")
	h := r.Histogram("fastba_commit_latency_seconds", "Client-observed commit latency.", LatencyBucketsSeconds(), "node", "0")
	for _, v := range []float64{0.0004, 0.003, 0.003, 0.04, 0.8, 12} {
		h.Observe(v)
	}
	stats := simnet.NetStats{
		Dials: 9, Redials: 2, FailedDials: 5, DroppedDown: 4,
		Suspects: 2, Recoveries: 2, DeadLinks: 1, PingsSent: 30, PongsReceived: 29,
		ChaosStrikes: 0, ChaosSkips: 0, LinksSevered: 0,
		FramesSent: 1000, MessagesSent: 1700, BatchFrames: 200,
	}
	RegisterNetStats(r, func() simnet.NetStats { return stats }, "node", "0")

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "exposition.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to regenerate): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("exposition drifted from golden (run with -update if intended)\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), want)
	}
	// Spot-check the histogram contract independently of the golden bytes:
	// cumulative buckets, +Inf equals _count.
	out := buf.String()
	for _, line := range []string{
		`fastba_commit_latency_seconds_bucket{node="0",le="0.005"} 3`,
		`fastba_commit_latency_seconds_bucket{node="0",le="+Inf"} 6`,
		`fastba_commit_latency_seconds_count{node="0"} 6`,
		`fastba_net_messages_sent_total{node="0"} 1700`,
	} {
		if !strings.Contains(out, line) {
			t.Errorf("exposition missing %q", line)
		}
	}
}
