package netrun

import (
	"context"
	"testing"
	"time"

	"github.com/fastba/fastba/internal/core"
	"github.com/fastba/fastba/internal/simnet"
)

// runAER drives one AER agreement to completion over TCP with the given
// options and returns the cluster's wire counters.
func runAER(t testing.TB, n int, opts Options) simnet.NetStats {
	t.Helper()
	sc, err := core.NewScenario(core.DefaultParams(n), 3, core.TestingScenarioConfig())
	if err != nil {
		t.Fatal(err)
	}
	nodes, correct := sc.Build(nil)
	cluster, err := NewWithOptions(nodes, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	cluster.Start()
	decided := func() bool {
		for _, node := range correct {
			if node == nil {
				continue
			}
			if _, ok := node.Decided(); !ok {
				return false
			}
		}
		return true
	}
	if err := cluster.RunUntil(context.Background(), decided, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	if !cluster.AwaitQuiescence(30 * time.Second) {
		t.Fatal("cluster did not quiesce")
	}
	o := core.Evaluate(correct, sc.GString)
	if !o.Agreement() {
		t.Fatalf("no agreement: %+v", o)
	}
	return cluster.NetStats()
}

// TestCoalescingReducesFrames is the acceptance check for link-level frame
// coalescing: on a loaded mesh, fewer frames than messages hit the wire,
// with batch frames carrying the difference — and agreement still holds.
func TestCoalescingReducesFrames(t *testing.T) {
	st := runAER(t, 16, Options{})
	if st.MessagesSent == 0 {
		t.Fatal("no messages metered")
	}
	if st.BatchFrames == 0 {
		t.Fatalf("no batch frames on a coalescing run: %+v", st)
	}
	if st.FramesSent >= st.MessagesSent {
		t.Fatalf("coalescing did not reduce frames: %d frames for %d messages", st.FramesSent, st.MessagesSent)
	}
}

// BenchmarkLinkCoalesce runs a full TCP agreement over coalescing links.
// The msgs/frame metric is the batching ratio; wall clock is noisy on
// shared hardware — allocs and the ratio are the numbers to watch.
func BenchmarkLinkCoalesce(b *testing.B) {
	b.ReportAllocs()
	var last simnet.NetStats
	for i := 0; i < b.N; i++ {
		last = runAER(b, 16, Options{})
	}
	if last.FramesSent > 0 {
		b.ReportMetric(float64(last.MessagesSent)/float64(last.FramesSent), "msgs/frame")
	}
}
