package fastba

import (
	"context"
	"fmt"
	"testing"
	"time"
)

// benchLog runs one decision log of the given length on the fabric
// runtime and checks that every entry committed.
func benchLog(b *testing.B, entries, depth int) {
	b.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	cfg := NewConfig(32,
		WithSeed(9),
		WithKnowFrac(1),
		WithCorruptFrac(0),
		WithLogDepth(depth),
	)
	log, err := OpenLog(ctx, cfg)
	if err != nil {
		b.Fatal(err)
	}
	for k := 0; k < entries; k++ {
		if _, err := log.Append(ctx, [][]byte{[]byte(fmt.Sprintf("bench-%d", k))}); err != nil {
			b.Fatal(err)
		}
	}
	if err := log.Close(); err != nil {
		b.Fatal(err)
	}
	if got := len(log.Committed()); got != entries {
		b.Fatalf("committed %d of %d entries", got, entries)
	}
}

// BenchmarkLogInstanceReuse measures a 100-instance log (n=32, fabric
// runtime) whose per-instance protocol nodes are recycled through the
// MuxNode pool via core.Node.Reset. allocs/op is the stable metric on this
// hardware (BENCH_5.json).
func BenchmarkLogInstanceReuse(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchLog(b, 100, 2)
	}
}

// BenchmarkLogPipelineDepth measures sustained closed-loop throughput of
// the load harness at pipelining depth 1 vs 4 (n=24, fabric runtime):
// committed entries per second is the headline metric (BENCH_5.json
// depth-scaling entry).
func BenchmarkLogPipelineDepth(b *testing.B) {
	for _, depth := range []int{1, 4} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cfg := NewConfig(24,
					WithSeed(11),
					WithKnowFrac(1),
					WithCorruptFrac(0.1),
					WithLogDepth(depth),
					WithLogBatch(16),
					WithWorkload(Workload{Clients: 32, PayloadBytes: 32, Duration: 3 * time.Second}),
				)
				res, err := RunLoad(context.Background(), cfg)
				if err != nil {
					b.Fatal(err)
				}
				if res.Err != "" || res.Committed == 0 || !res.Oracles.OK() {
					b.Fatalf("degenerate run: committed=%d err=%q oracles=%s", res.Committed, res.Err, res.Oracles)
				}
				b.ReportMetric(res.EntriesPerSec, "entries/s")
				b.ReportMetric(res.PayloadsPerSec, "payloads/s")
				b.ReportMetric(float64(res.CommitP50)/float64(time.Millisecond), "p50ms")
			}
		})
	}
}
