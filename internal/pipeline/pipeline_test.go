package pipeline

import (
	"context"
	"fmt"
	"testing"
	"time"

	"github.com/fastba/fastba/internal/sampler"
	"github.com/fastba/fastba/internal/simnet"
)

// appendAll feeds count deterministic single-payload batches and waits for
// every commit.
func appendAll(t *testing.T, e *Engine, count int) []Entry {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	var last uint64
	for i := 0; i < count; i++ {
		seq, err := e.Append(ctx, [][]byte{[]byte(fmt.Sprintf("payload-%d", i))})
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		last = seq
	}
	if _, err := e.WaitSeq(ctx, last); err != nil {
		t.Fatalf("wait seq %d: %v", last, err)
	}
	return e.Entries()
}

func checkLog(t *testing.T, entries []Entry, want int) {
	t.Helper()
	if len(entries) != want {
		t.Fatalf("committed %d entries, want %d", len(entries), want)
	}
	for i, entry := range entries {
		if entry.Seq != uint64(i) {
			t.Errorf("entry %d has seq %d: the log has a gap", i, entry.Seq)
		}
		if entry.DistinctValues != 1 {
			t.Errorf("seq %d: %d distinct decided values", entry.Seq, entry.DistinctValues)
		}
		if entry.CertDeficits != 0 {
			t.Errorf("seq %d: %d cert deficits", entry.Seq, entry.CertDeficits)
		}
		if !entry.MatchesProposal {
			t.Errorf("seq %d: decided value differs from the batch digest", entry.Seq)
		}
	}
}

func TestEngineFabricLog(t *testing.T) {
	e, err := New(Config{N: 16, Seed: 1, KnowFrac: 1, Depth: 2, InstanceTimeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	e.StartFabric()
	entries := appendAll(t, e, 6)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	checkLog(t, entries, 6)
}

func TestEngineTCPLog(t *testing.T) {
	e, err := New(Config{N: 16, Seed: 1, KnowFrac: 1, Depth: 2, InstanceTimeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.StartTCP(); err != nil {
		t.Fatal(err)
	}
	entries := appendAll(t, e, 4)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	checkLog(t, entries, 4)
}

// TestEngineCorruptPopulation: the log commits with fail-silent Byzantine
// nodes present, and the deciders are exactly the correct nodes.
func TestEngineCorruptPopulation(t *testing.T) {
	e, err := New(Config{N: 24, Seed: 3, CorruptFrac: 0.1, KnowFrac: 1, Depth: 2})
	if err != nil {
		t.Fatal(err)
	}
	e.StartFabric()
	entries := appendAll(t, e, 4)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	checkLog(t, entries, 4)
	for _, entry := range entries {
		if entry.Deciders != e.Correct() {
			t.Errorf("seq %d: %d deciders of %d correct", entry.Seq, entry.Deciders, e.Correct())
		}
	}
}

// TestEngineLosslessFaults: delay/duplication on the send path must not
// break commits, values or certificates.
func TestEngineLosslessFaults(t *testing.T) {
	plan := simnet.FaultPlan{Seed: 11, DupProb: 0.2, DelayProb: 0.3, MaxDelay: 3}
	e, err := New(Config{N: 16, Seed: 5, KnowFrac: 1, Depth: 3, Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	e.StartFabric()
	entries := appendAll(t, e, 5)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	checkLog(t, entries, 5)
}

// TestEngineAbort: aborting mid-run releases blocked waiters promptly with
// the cancellation error.
func TestEngineAbort(t *testing.T) {
	e, err := New(Config{N: 16, Seed: 1, KnowFrac: 1, Depth: 1})
	if err != nil {
		t.Fatal(err)
	}
	e.StartFabric()
	ctx := context.Background()
	seq, err := e.Append(ctx, [][]byte{[]byte("x")})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.WaitSeq(ctx, seq); err != nil {
		t.Fatal(err)
	}
	e.Abort()
	if _, err := e.Append(ctx, [][]byte{[]byte("y")}); err == nil {
		t.Fatal("append after abort succeeded")
	}
}

// samplerFootprint runs a fabric log of the given length and returns how
// many strings' permutation sets its shared samplers hold at the end.
func samplerFootprint(t *testing.T, instances int) int {
	t.Helper()
	e, err := New(Config{N: 8, Seed: 3, KnowFrac: 1, Depth: 4, InstanceTimeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	e.StartFabric()
	entries := appendAll(t, e, instances)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	checkLog(t, entries, instances)
	smp := e.mux[0].smp
	return smp.I.(*sampler.PermQuorum).CachedStrings() + smp.H.(*sampler.PermQuorum).CachedStrings()
}

// TestSamplerFootprintIndependentOfLogLength: every committed instance
// brings the shared samplers a string they have never seen, and the log
// shares one Samplers for its whole life — its footprint must not grow with
// the log.
func TestSamplerFootprintIndependentOfLogLength(t *testing.T) {
	short, long := samplerFootprint(t, 500), samplerFootprint(t, 5000)
	if short == 0 || long != short {
		t.Fatalf("sampler holds %d strings after 500 instances and %d after 5000", short, long)
	}
}
