package fastba

import (
	"context"
	"errors"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
)

// poolDropsPuts reports whether sync.Pool loses Puts in this build: under
// the race detector it drops a quarter of them on purpose, and a test that
// counts on getting back what it put must stand down.
func poolDropsPuts() bool {
	var p sync.Pool
	for i := 0; i < 64; i++ {
		p.Put(new(int))
	}
	for i := 0; i < 64; i++ {
		if p.Get() == nil {
			return true
		}
	}
	return false
}

// TestRunAERAllocationBudget pins what a synchronous agreement allocates
// once the round log's block pool is warm: the runner's share must stay
// gone. At n = 64 a run moves some 75 k messages standing for 245 k Fw1
// tuples; the slice-based runner this replaced regrew its round buffers from
// nil every round and allocated 118 MB per run, the pooled round log leaves
// 1.4 MB in 11.0 k objects (nodes, sampler rows, requester tables, and one boxed
// message per fan-out). A run cancelled in the middle of a round must hand
// its blocks back too, or the run after it pays for them again: thirteen
// blocks, 1.7 MB. The byte budget lies between the two. The object budget
// pins the shared sampler rows: when every node derived its own H and J
// rows, the same run allocated some 23 k objects more.
func TestRunAERAllocationBudget(t *testing.T) {
	const budget, objectBudget = 5 << 19, 16_000
	// A collection empties the pool; none may run between the runs compared.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if poolDropsPuts() {
		t.Skip("sync.Pool drops Puts in this build (race detector)")
	}

	run := func(ctx context.Context, seed uint64, opts ...Option) (allocated, objects uint64, err error) {
		opts = append([]Option{WithSeed(seed), WithCorruptFrac(0.05), WithKnowFrac(0.92)}, opts...)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err = RunAERContext(ctx, NewConfig(64, opts...))
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs, err
	}

	if _, _, err := run(context.Background(), 7); err != nil {
		t.Fatal(err)
	}
	got, objects, err := run(context.Background(), 8)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("second back-to-back RunAER: %d bytes in %d objects", got, objects)
	if got > budget {
		t.Errorf("second back-to-back RunAER allocated %d bytes, budget %d", got, budget)
	}
	if objects > objectBudget {
		t.Errorf("second back-to-back RunAER allocated %d objects, budget %d", objects, objectBudget)
	}

	// Cancel in the middle of the Pull round: when the runner sees it, at the
	// round boundary, the whole Fw1 storm that round sent is in flight.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, _, err = run(ctx, 9, WithObserver(func(e Event) {
		if e.Type == EventDeliver && e.Kind == "pull" {
			cancel()
		}
	}))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v", err)
	}
	got, _, err = run(context.Background(), 10)
	if err != nil {
		t.Fatal(err)
	}
	if got > budget {
		t.Errorf("RunAER after a cancelled run allocated %d bytes, budget %d: the cancelled run kept its blocks", got, budget)
	}
}
