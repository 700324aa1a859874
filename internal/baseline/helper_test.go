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
	var surcharge int64 // bytes the tuples would add as standalone messages
	r.Observe(func(e simnet.Envelope) {
		if fw, ok := e.Msg.(*core.MsgFw1); ok {
			single := (&core.MsgFw1{S: fw.S, W: fw.W[:1]}).WireSize() + 9
			surcharge += int64(len(fw.W)*single - (fw.WireSize() + 9))
		}
	})
	m = r.Run(60)
	return m, m.MeanSentBits() + float64(8*surcharge)/float64(len(nodes))
}
