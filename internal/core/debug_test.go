package core

import (
	"testing"

	"github.com/fastba/fastba/internal/simnet"
)

// TestDebugStuckNode diagnoses why a node fails to decide (temporary
// diagnostic; assertions intentionally loose).
func TestDebugStuckNode(t *testing.T) {
	sc, err := NewScenario(DefaultParams(96), 11, DefaultScenarioConfig())
	if err != nil {
		t.Fatal(err)
	}
	nodes, correct := sc.Build(nil)
	simnet.NewAsync(nodes, simnet.NewRandom(5)).Run()
	for id, n := range correct {
		if n == nil {
			continue
		}
		if _, ok := n.Decided(); ok {
			continue
		}
		hasG := n.HasCandidate(sc.GString)
		r, polled := n.pollLabel(sc.GString)
		answersG := 0
		if sid := n.strs.Lookup(sc.GString); sid >= 0 && int(sid) < len(n.states) {
			answersG = n.states[sid].answers.Len()
		}
		t.Logf("stuck node %d: initialIsG=%v candidates=%d hasGCandidate=%v pulledG=%v r=%d answers(g)=%d needs>%d",
			id, sc.Initial[id].Equal(sc.GString), n.Stats().CandidateListSize, hasG, polled, r, answersG, sc.Params.PollSize/2)
		if polled {
			list := sc.Smp.J.List(id, r)
			good, knowing := 0, 0
			for _, w := range list {
				if !sc.Corrupt[w] {
					good++
					if sc.Initial[w].Equal(sc.GString) {
						knowing++
					}
				}
			}
			t.Logf("  poll list: %d members, %d correct, %d correct+knowledgeable", len(list), good, knowing)
			// How many poll members got the fw2 majority for our request?
			maj, answeredUs := 0, 0
			for _, w := range list {
				wn := correct[w]
				if wn == nil {
					continue
				}
				gID := wn.strs.Lookup(sc.GString)
				if gID < 0 {
					continue
				}
				rec := wn.req.get(id)
				if wn.req.majority(rec, gID, r) {
					maj++
				}
				if _, answered := wn.req.flags(rec, gID, r); *answered {
					answeredUs++
				}
			}
			t.Logf("  fw2 majorities at correct poll members: %d; answered us: %d", maj, answeredUs)
			// And the H(gstring, x) forwarding quorum?
			hq := distinct(sc.Smp.H.Quorum(sc.GString, id))
			fwd := 0
			for _, y := range hq {
				yn := correct[y]
				if yn == nil {
					continue
				}
				if yn.sthis.Equal(sc.GString) && yn.req.get(id).forwarded {
					fwd++
				}
			}
			t.Logf("  H(g,x): %d distinct members, %d forwarded our pull", len(hq), fwd)
		}
	}
}
