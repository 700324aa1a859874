package baseline

import (
	"github.com/fastba/fastba/internal/core"
	"github.com/fastba/fastba/internal/simnet"
)

// runAERTuplePriced runs an assembled AER node vector synchronously and
// returns its metrics, plus the mean bits per node with every Fw1 tuple
// (x, w) priced as a message of its own — the paper's Fw1 — each charged
// the simnet meter's 9-byte envelope.
func runAERTuplePriced(nodes []simnet.Node, sc *core.Scenario) (m *simnet.Metrics, priced float64) {
	r := simnet.NewSync(nodes, sc.Corrupt)
	// The paper's Fw1 names one 4-byte w beside x; fw1Bytes is what the Fw1
	// messages sent cost, each with its envelope.
	var single, fw1Bytes int64
	r.Observe(func(e simnet.Envelope) {
		if fw, ok := e.Msg.(core.MsgFw1); ok {
			single = int64(fw.WireSize() + 4 + 9)
			fw1Bytes += int64(fw.WireSize() + 9)
		}
	})
	m = r.Run(60)
	var tuples int64
	for _, n := range nodes {
		if nd, ok := n.(*core.Node); ok {
			tuples += int64(nd.Stats().Fw1Tuples)
		}
	}
	surcharge := tuples*single - fw1Bytes // bytes the tuples would add as standalone messages
	return m, m.MeanSentBits() + float64(8*surcharge)/float64(len(nodes))
}
