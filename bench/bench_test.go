package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"

	fastba "github.com/fastba/fastba"
)

// toySeconds scales every workload down to a handful of operations.
const toySeconds = 0.3

func testEnv(t *testing.T) *env {
	t.Helper()
	e, err := newEnv()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.close)
	return e
}

// TestBenchmarkJSONMatchesProgram pins BENCHMARK.json to the tables the
// program reports from, so the driver and the command cannot drift apart.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec.Command, []string{"go", "run", "./bench"}) || !reflect.DeepEqual(spec.Paths, []string{"bench"}) {
		t.Errorf("command %v paths %v", spec.Command, spec.Paths)
	}
	if spec.RunSeconds != refSeconds {
		t.Errorf("run_seconds %d, the operation counts are sized for %d", spec.RunSeconds, refSeconds)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d implemented", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: declared %+v, implemented %q (%q)", i, spec.Workloads[i], w.name, w.why)
		}
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n%+v\n%+v", spec.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n%+v\n%+v", spec.PerLayer, perLayer)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	for _, m := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !name.MatchString(m.Name) || seen[m.Name] {
			t.Errorf("metric name %q is malformed or repeated", m.Name)
		}
		seen[m.Name] = true
	}
}

// TestWorkloadsEmitEveryMetric drives every workload at toy scale and
// checks that the summary carries each declared metric once, finite, with
// its unit, and that nothing failed.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	e := testEnv(t)
	defer func(ns []int) { scalingNs = ns }(scalingNs)
	scalingNs = []int{16, 32, 64}
	for _, w := range workloads {
		if testing.Short() && (w.name == "daemon-n8-closed" || w.name == "tcp-n24-durable") {
			continue
		}
		// Same code paths at a fraction of the cost: n = 256 takes seconds per
		// agreement, a full coda a second per row.
		if w.name == "aer-n256-sync" {
			w.n = 64
		}
		w.codaRuns = min(w.codaRuns, 2)
		for _, traced := range []bool{false, true} {
			if traced && (testing.Short() || w.name != "fabric-n24-closed") {
				continue // one traced row covers the tracing code
			}
			res, err := w.run(context.Background(), e, 1, toySeconds, traced)
			if err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
			if res.Failed != 0 || len(res.Violations) != 0 || exitCode([]*result{res}) != 0 {
				t.Errorf("%s: failed=%d violations=%v", w.name, res.Failed, res.Violations)
			}
			var line struct {
				Correct bool
				Metrics map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal(summary([]*result{res}, 1, toySeconds, traced, e.tmpfs), &line); err != nil {
				t.Fatal(err)
			}
			defs := defsFor(traced)
			if !line.Correct || len(line.Metrics) != len(defs) || len(res.Metrics) != len(defs) {
				t.Errorf("%s: correct=%v, %d metrics in the summary, %d measured, %d declared", w.name, line.Correct, len(line.Metrics), len(res.Metrics), len(defs))
			}
			for _, m := range defs {
				got, ok := line.Metrics[m.Name]
				if !ok || got.Unit != m.Unit || math.IsNaN(got.Value) {
					t.Errorf("%s: metric %s = %+v (present %v), want unit %s", w.name, m.Name, got, ok, m.Unit)
				}
				if !traced && !(got.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", w.name, m.Name, got.Value)
				}
			}
			if !traced && res.Metrics["ok_frac"] != 1 {
				t.Errorf("%s: ok_frac = %v", w.name, res.Metrics["ok_frac"])
			}
		}
	}
}

// TestProtocolCountsRepeat checks that the exact-count metrics are a pure
// function of the seed.
func TestProtocolCountsRepeat(t *testing.T) {
	w := workloads[2] // the n = 8 row: a coda costs a quarter of a second
	a, err := coda(context.Background(), w, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := coda(context.Background(), w, 1)
	c, _ := coda(context.Background(), w, 2)
	if a.rounds != b.rounds || a.bits != b.bits || a.decided != b.decided {
		t.Errorf("same seed, different counts: %+v vs %+v", a, b)
	}
	if a.bits == c.bits {
		t.Errorf("seeds 1 and 2 sent the same %v bits per node: the seed does not reach the population", a.bits)
	}
}

// forgedCluster acknowledges everything instantly and then presents a log
// that does not match what it acknowledged.
type forgedCluster struct{ aerCluster }

func (*forgedCluster) op(_ context.Context, _, i int) (uint64, time.Duration, error) {
	return uint64(i), 0, nil
}

func (*forgedCluster) verify(context.Context) []string {
	entry := func(seq uint64) fastba.LogEntry {
		return fastba.LogEntry{Seq: seq, Payloads: [][]byte{{1}}, DistinctValues: 1, MatchesProposal: true}
	}
	return checkLog([]fastba.LogEntry{entry(0), entry(2)}, 2) // seq 1 is missing
}

// TestFailClosed feeds the command path a fast run with a wrong log and
// checks it cannot pass: ok_frac drops and the exit code is not 0.
func TestFailClosed(t *testing.T) {
	w := workload{name: "forged", n: 8, clients: 1, window: 1, warmup: 1, timed: 5, codaRuns: 2,
		population: []fastba.Option{fastba.WithCorruptFrac(0)},
		open: func(context.Context, *env, workload, uint64) (cluster, error) {
			return &forgedCluster{}, nil
		}}
	res, err := w.run(context.Background(), testEnv(t), 1, toySeconds, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) == 0 || !(res.Metrics["ok_frac"] < 1) || exitCode([]*result{res}) == 0 {
		t.Errorf("a log with a gap passed: violations=%v ok_frac=%v exit=%d", res.Violations, res.Metrics["ok_frac"], exitCode([]*result{res}))
	}

	acks := map[uint64]int{3: 1, 4: daemonBatchMax + 1, 6: 1, 9: 1}
	got := checkAcks(acks, 9)
	if len(got) != 5 { // one duplicate, gaps at 5, 7 and 8, seq 9 at the frontier
		t.Errorf("checkAcks found %d violations, want 5: %v", len(got), got)
	}
	if v := checkAcks(map[uint64]int{0: 2, 1: 1, 2: daemonBatchMax}, 3); len(v) != 0 {
		t.Errorf("a clean acknowledgement set was rejected: %v", v)
	}
}
