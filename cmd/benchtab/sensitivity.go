package main

import (
	"fmt"
	"os"

	"github.com/fastba/fastba"
	"github.com/fastba/fastba/internal/metrics"
)

// sensitivity sweeps the quorum-size constant c₁ (d = c₁·⌈log₂ n⌉): the
// central tuning trade-off behind every w.h.p. statement in the paper.
// Larger d sharpens the strict-majority concentration (success rate rises
// toward the asymptotic 1 − n⁻³) but costs ~d³ Fw1 tuples per node (the
// fan-out of Algorithm 2). This is the experiment behind EXPERIMENTS.md's
// "threats to validity" discussion of constants.
func sensitivity(sw sweep) error {
	n := sw.ns[len(sw.ns)-1]
	lg := logCeil(n)

	c1s := []int{2, 3, 4, 5}
	var variants []fastba.Variant
	for _, c1 := range c1s {
		d := c1 * lg
		if d > n {
			d = n
		}
		variants = append(variants, fastba.Variant{
			Name:    fmt.Sprintf("c1=%d", c1),
			Options: []fastba.Option{fastba.WithQuorumSize(d), fastba.WithPollSize(d)},
		})
	}
	rep, err := mustSuite(fastba.Suite{
		Name:  "sensitivity",
		Sweep: fastba.Sweep{Ns: []int{n}, Seeds: fastba.Seeds(sw.seeds), Variants: variants},
	})
	if err != nil {
		return err
	}

	tb := metrics.NewTable(
		fmt.Sprintf("Sensitivity — quorum constant c₁ (d = c₁·⌈log₂ n⌉ = c₁·%d) at n=%d, default tight population", lg, n),
		"c₁", "d", "bits/node", "agreement runs", "worst decided frac")
	for i, cr := range rep.Cells {
		d := c1s[i] * lg
		if d > n {
			d = n
		}
		tb.Add(fmt.Sprint(c1s[i]), fmt.Sprint(d), metrics.Bits(cr.MeanBits.Mean),
			fmt.Sprintf("%d/%d", cr.AgreeRuns, cr.Runs), fmt.Sprintf("%.4f", cr.WorstDecidedFrac))
	}
	tb.Render(os.Stdout)
	fmt.Println("d trades message volume (~d³) for concentration: the failure tail of the")
	fmt.Println("strict quorum majorities shrinks exponentially in d while bits/node grow")
	fmt.Println("cubically — the constant the paper leaves implicit in its O(log n).")
	return nil
}

func logCeil(n int) int {
	lg := 0
	for v := n - 1; v > 0; v >>= 1 {
		lg++
	}
	if lg == 0 {
		lg = 1
	}
	return lg
}
