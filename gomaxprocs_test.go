package fastba

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"testing"
)

// TestDeterminismAcrossGOMAXPROCS locks the parallel-fabric contract of
// DESIGN.md §10: the worker count is a pure throughput knob. The golden
// suite's Report bytes and the regression corpus's run digests must be
// identical under GOMAXPROCS 1, 2 and 8 — the fabric defaults its shard
// workers to min(GOMAXPROCS, n), so these settings drive the serial,
// barely-parallel and oversubscribed drain paths through the same seeds.
// The synchronous runner delivers on min(GOMAXPROCS, correct nodes)
// workers: the paper's n = 256 experiment, and a rushing adversary under a
// fault plan (carried delays, duplicates, drops), must not move either.
func TestDeterminismAcrossGOMAXPROCS(t *testing.T) {
	if testing.Short() {
		t.Skip("replays the golden suite and regression corpus three times")
	}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	var wantReport []byte
	var wantDigests string
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)

		rep, err := RunSuite(context.Background(), Suite{
			Name: "golden",
			Sweep: Sweep{
				Ns:          []int{32, 64},
				Seeds:       Seeds(3),
				Models:      []Model{SyncNonRushing, Async},
				Adversaries: []string{"silent", "flood"},
			},
			Workers: 1,
		})
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		var report bytes.Buffer
		if err := rep.WriteJSON(&report); err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		for _, sweep := range []Sweep{{
			Ns:          []int{256},
			Seeds:       Seeds(2),
			Models:      []Model{SyncNonRushing},
			Adversaries: []string{"silent"},
		}, {
			Ns:          []int{64},
			Seeds:       Seeds(3),
			Models:      []Model{SyncRushing},
			Adversaries: []string{"corner-rushing"},
			Faults:      []FaultPlan{{Seed: 4, DropProb: 0.02, DupProb: 0.1, DelayProb: 0.2, MaxDelay: 2}},
		}} {
			rep, err := RunSuite(context.Background(), Suite{Name: "sync", Sweep: sweep, Workers: 1})
			if err != nil {
				t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
			}
			if err := rep.WriteJSON(&report); err != nil {
				t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
			}
		}

		runs, failures, err := ReplayCorpus(filepath.Join("testdata", "fuzz_corpus"))
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: replay: %v", procs, err)
		}
		if len(failures) > 0 {
			t.Fatalf("GOMAXPROCS=%d: %d corpus failures (first: %s)", procs, len(failures), failures[0].Digest)
		}
		var digests bytes.Buffer
		for i, r := range runs {
			fmt.Fprintf(&digests, "%d %s\n", i, r.Digest)
		}

		if wantReport == nil {
			wantReport = append([]byte(nil), report.Bytes()...)
			wantDigests = digests.String()
			continue
		}
		if !bytes.Equal(report.Bytes(), wantReport) {
			t.Errorf("GOMAXPROCS=%d: golden suite Report diverged from the GOMAXPROCS=1 bytes", procs)
		}
		if digests.String() != wantDigests {
			t.Errorf("GOMAXPROCS=%d: corpus digests diverged from the GOMAXPROCS=1 replay:\n%s\nvs\n%s", procs, digests.String(), wantDigests)
		}
	}
}
