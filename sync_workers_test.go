package fastba

import (
	"bytes"
	"context"
	"reflect"
	"runtime"
	"testing"
)

// The synchronous runner delivers each round on min(GOMAXPROCS, correct
// nodes) workers and must reproduce the one-worker run exactly. These tests
// run the same configurations at GOMAXPROCS 1 and 4 and compare everything
// they return.

// acrossWorkers calls run at GOMAXPROCS 1 and 4 and fails unless both calls
// return deeply equal results.
func acrossWorkers[T any](t *testing.T, run func() T) {
	t.Helper()
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	runtime.GOMAXPROCS(1)
	one := run()
	runtime.GOMAXPROCS(4)
	four := run()
	if !reflect.DeepEqual(one, four) {
		t.Fatalf("one worker and four workers disagree:\n%+v\nvs\n%+v", one, four)
	}
}

// TestAdaptiveSweepsAcrossWorkers: the adaptive adversaries rank their
// targets while a run is going — adaptive-traffic from the delivery counts
// the relay keeps in shared counters. With the trigger three rounds in,
// the ranking is made in the middle of the run, and the sweeps must still
// be identical on one and on four delivery workers.
func TestAdaptiveSweepsAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the adaptive sweep twice")
	}
	acrossWorkers(t, func() []byte {
		spec := Scenario{Topology: TopologyWS, Degree: 8, Rewire: 0.2, ZipfS: 1.0, Fanout: 1, TriggerAt: 3, Seed: 1}
		var variants []Variant
		for _, a := range []string{AdversaryAdaptiveDegree, AdversaryAdaptiveTraffic} {
			variants = append(variants, Variant{Name: a, Options: []Option{WithAdversaryName(a), WithCorruptFrac(0.15)}})
		}
		rep, err := RunSuite(context.Background(), Suite{
			Name: "adaptive",
			Sweep: Sweep{
				Ns:        []int{96},
				Seeds:     Seeds(3),
				Scenarios: []Scenario{spec},
				Options:   []Option{WithKnowFrac(1)},
				Variants:  variants,
			},
			Workers: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		if err := rep.WriteJSON(&out); err != nil {
			t.Fatal(err)
		}
		return out.Bytes()
	})
}

// TestRunBAAcrossWorkers: both phases of the BA pipeline — the committee
// tree, whose nodes tally on round ticks, and AER — give the same result on
// one and on four delivery workers, with and without the poisoning
// adversary.
func TestRunBAAcrossWorkers(t *testing.T) {
	for _, adv := range []string{"silent", "equivocate"} {
		t.Run(adv, func(t *testing.T) {
			acrossWorkers(t, func() *BAResult {
				res, err := RunBA(NewConfig(128, WithSeed(3), WithAdversaryName(adv)))
				if err != nil {
					t.Fatal(err)
				}
				return res
			})
		})
	}
}
