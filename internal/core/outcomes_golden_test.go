package core

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"github.com/fastba/fastba/internal/simnet"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files instead of comparing")

// aerOutcome is what one synchronous agreement is pinned to: who decided
// what and when, every message count but Fw1's, the number of (x, w) tuples
// the Fw1 messages stand for, and the bits per node as upper bounds.
type aerOutcome struct {
	Case          string           `json:"case"`
	GString       string           `json:"gstring"`
	Decided       int              `json:"decided"`
	Rounds        int              `json:"rounds"`
	DecisionTimes []int            `json:"decisionTimes"`
	Messages      map[string]int64 `json:"messages"` // by kind, without fw1
	Fw1Tuples     int64            `json:"fw1Tuples"`
	// MeanBitsPerNode and MaxBitsPerNode are bounds: a run may send fewer
	// bits than recorded, never more.
	MeanBitsPerNode float64 `json:"meanBitsPerNode"`
	MaxBitsPerNode  int64   `json:"maxBitsPerNode"`

	n    int
	seed uint64
	cfg  ScenarioConfig
}

// outcomeCases are the sync non-rushing runs the golden holds: n ∈ {8, 24,
// 64, 256}, seeds 1–6, on the bench's populations — a tenth fail-silent with
// 95 % or all of the correct nodes knowing the string, and no corruption at
// n = 8.
func outcomeCases() []aerOutcome {
	var cases []aerOutcome
	for _, n := range []int{8, 24, 64, 256} {
		corrupt := 0.1
		if n == 8 {
			corrupt = 0
		}
		for _, know := range []float64{0.95, 1} {
			for seed := uint64(1); seed <= 6; seed++ {
				cases = append(cases, aerOutcome{
					Case: fmt.Sprintf("n=%d/corrupt=%g/know=%g/seed=%d", n, corrupt, know, seed),
					n:    n, seed: seed,
					cfg: ScenarioConfig{CorruptFrac: corrupt, KnowFrac: know, SharedJunk: true, AdvBits: 1.0 / 3},
				})
			}
		}
	}
	return cases
}

// run executes the case on the sync non-rushing runner and fills in what
// the golden pins.
func (o aerOutcome) run(t *testing.T) aerOutcome {
	t.Helper()
	sc, err := NewScenario(DefaultParams(o.n), o.seed, o.cfg)
	if err != nil {
		t.Fatal(err)
	}
	nodes, correct := sc.Build(nil)
	m := simnet.NewSync(nodes, sc.Corrupt).Run(64)
	o.Fw1Tuples = fw1Tuples(correct)
	o.GString = hex.EncodeToString(sc.GString.Bytes())
	o.Decided = Evaluate(correct, sc.GString).Decided
	o.Rounds = m.Rounds
	o.DecisionTimes = []int{}
	for _, nd := range correct {
		if nd != nil && nd.DecidedAt() >= 0 {
			o.DecisionTimes = append(o.DecisionTimes, nd.DecidedAt())
		}
	}
	o.Messages = map[string]int64{}
	for kind, c := range m.ByKind {
		if kind != "fw1" {
			o.Messages[kind] = c
		}
	}
	o.MeanBitsPerNode = m.MeanSentBits()
	o.MaxBitsPerNode = m.MaxSentBits()
	return o
}

// TestAEROutcomesGolden pins the decisions of seeded synchronous agreements
// and every message count except how the Fw1 tuples are packed into
// messages: a change to the Fw1 fan-out may regroup the tuples, but each
// case must decide the same string at the same nodes in the same rounds,
// send the same number of every other message and of Fw1 tuples, and send no
// more bits per node than recorded.
//
// Regenerate (only after an intentional change of outcomes) with:
//
//	go test ./internal/core/ -run TestAEROutcomesGolden -update
func TestAEROutcomesGolden(t *testing.T) {
	var got []aerOutcome
	for _, c := range outcomeCases() {
		got = append(got, c.run(t))
	}
	path := filepath.Join("testdata", "aer_outcomes_golden.json")
	if *updateGolden {
		// One case per line, so a diff names the cases that moved.
		raw := []byte("[\n")
		for i, o := range got {
			line, err := json.Marshal(o)
			if err != nil {
				t.Fatal(err)
			}
			if raw = append(raw, line...); i < len(got)-1 {
				raw = append(raw, ',')
			}
			raw = append(raw, '\n')
		}
		raw = append(raw, "]\n"...)
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want []aerOutcome
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden holds %d cases, the test runs %d (run with -update after an intentional change)", len(want), len(got))
	}
	for i, g := range got {
		w := want[i]
		if g.MeanBitsPerNode > w.MeanBitsPerNode || g.MaxBitsPerNode > w.MaxBitsPerNode {
			t.Errorf("%s: bits per node mean %.0f max %d exceed the recorded %.0f / %d",
				g.Case, g.MeanBitsPerNode, g.MaxBitsPerNode, w.MeanBitsPerNode, w.MaxBitsPerNode)
		}
		g.MeanBitsPerNode, g.MaxBitsPerNode = w.MeanBitsPerNode, w.MaxBitsPerNode
		gj, _ := json.Marshal(g)
		wj, _ := json.Marshal(w)
		if !bytes.Equal(gj, wj) {
			t.Errorf("outcome diverged from %s:\n got %s\nwant %s", path, gj, wj)
		}
	}
}
