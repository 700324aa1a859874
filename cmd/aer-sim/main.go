// Command aer-sim runs AER (almost-everywhere to everywhere) executions —
// or, with -ba, the full Byzantine Agreement pipeline: the KSSV06-style
// committee phase followed by AER — and prints outcome and communication
// metrics. A single seed prints the detailed per-run view; multiple seeds
// run as a parallel experiment suite and print the aggregated per-cell
// report.
//
// Examples:
//
//	aer-sim -n 256 -model async -adversary flood -corrupt 0.1 -know 0.85
//	aer-sim -n 512 -seeds 10 -json        # aggregated sweep, JSON report
//	aer-sim -n 64 -model tcp              # same nodes over loopback TCP
//	aer-sim -ba -n 512 -adversary equivocate
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"github.com/fastba/fastba"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "aer-sim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("aer-sim", flag.ContinueOnError)
	var (
		n         = fs.Int("n", 256, "system size")
		seed      = fs.Uint64("seed", 1, "master seed (single-run mode)")
		seeds     = fs.Int("seeds", 1, "number of seeds: > 1 runs a parallel suite and prints the aggregate report")
		model     = fs.String("model", "sync-nonrushing", "model: sync-nonrushing | sync-rushing | async | async-adversarial | goroutines | tcp")
		adv       = fs.String("adversary", "silent", "adversary registry name: "+strings.Join(fastba.RegisteredAdversaries(), " | "))
		corrupt   = fs.Float64("corrupt", 0.10, "fraction of Byzantine nodes (t/n)")
		know      = fs.Float64("know", 0.85, "fraction of correct nodes that know gstring (AER only; -ba derives it from the committee phase)")
		ba        = fs.Bool("ba", false, "run the full BA pipeline: committee phase, then AER under -model")
		budget    = fs.Int("budget", -1, "answer budget override (-1 = log² n default, 0 = unlimited)")
		deferred  = fs.Bool("deferred-relay", false, "enable the deferred-relay extension")
		quorum    = fs.Int("quorum", 0, "quorum size override (0 = default)")
		junkIndep = fs.Bool("independent-junk", false, "unknowing nodes hold individual junk strings")
		showTrace = fs.Bool("trace", false, "print the message-flow timeline and hotspot nodes of the run")
		jsonOut   = fs.Bool("json", false, "print the suite report as JSON (implies suite mode)")
		workers   = fs.Int("workers", 0, "suite worker-pool size (0 = GOMAXPROCS)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	m, err := parseModel(*model)
	if err != nil {
		return err
	}
	opts := []fastba.Option{
		fastba.WithModel(m),
		fastba.WithAdversaryName(*adv),
		fastba.WithCorruptFrac(*corrupt),
		fastba.WithKnowFrac(*know),
	}
	if *budget >= 0 {
		opts = append(opts, fastba.WithAnswerBudget(*budget))
	}
	if *deferred {
		opts = append(opts, fastba.WithDeferredRelay())
	}
	if *quorum > 0 {
		opts = append(opts, fastba.WithQuorumSize(*quorum))
	}
	if *junkIndep {
		opts = append(opts, fastba.WithIndependentJunk())
	}

	ctx := context.Background()
	if *seeds > 1 || *jsonOut {
		if *showTrace {
			return fmt.Errorf("-trace captures one run; it cannot be combined with -seeds/-json suite mode")
		}
		// -seeds k sweeps seeds 1..k; a plain -json run honours -seed.
		seedList := fastba.Seeds(*seeds)
		if *seeds <= 1 {
			seedList = []uint64{*seed}
		}
		return runSuite(ctx, *n, seedList, opts, *ba, *jsonOut, *workers)
	}
	return runSingle(ctx, *n, *seed, m, *adv, opts, *ba, *showTrace)
}

// runSuite is the sweep path: every execution mode of this tool funnels
// through the library's suite driver — no hand-rolled loops.
func runSuite(ctx context.Context, n int, seeds []uint64, opts []fastba.Option, ba, jsonOut bool, workers int) error {
	suite := fastba.Suite{
		Name:    "aer-sim",
		Workers: workers,
		Sweep: fastba.Sweep{
			Ns:      []int{n},
			Seeds:   seeds,
			Options: opts,
		},
	}
	if ba {
		suite.Kind = fastba.KindBA
	}
	rep, err := fastba.RunSuite(ctx, suite)
	if err != nil {
		return err
	}
	if jsonOut {
		return rep.WriteJSON(os.Stdout)
	}
	rep.Render(os.Stdout)
	return nil
}

func runSingle(ctx context.Context, n int, seed uint64, m fastba.Model, adv string, opts []fastba.Option, ba, showTrace bool) error {
	var tr *fastba.Trace
	if showTrace {
		tr = fastba.NewTrace(n)
		opts = append(opts, fastba.WithObserver(tr.Observer()))
	}
	cfg := fastba.NewConfig(n, append(opts, fastba.WithSeed(seed))...)
	var (
		res  *fastba.AERResult
		full *fastba.BAResult // -ba only: the committee phase and the totals
		err  error
	)
	if ba {
		if full, err = fastba.RunBAContext(ctx, cfg); err == nil {
			res = &full.AER
		}
	} else {
		res, err = fastba.RunAERContext(ctx, cfg)
	}
	if err != nil {
		return err
	}
	if tr != nil {
		fmt.Println("message-flow timeline:")
		tr.Timeline(os.Stdout)
		fmt.Println("hotspots:")
		tr.Hotspots(os.Stdout, 5)
	}

	if full != nil {
		fmt.Printf("BA n=%d model=%v adversary=%s seed=%d\n", n, m, adv, seed)
		fmt.Printf("  AE phase         know=%.3f bits/node=%.0f rounds=%d\n",
			full.AE.KnowFrac, full.AE.MeanBitsPerNode, full.AE.Time)
		fmt.Printf("  total            bits/node=%.0f time=%d\n", full.TotalMeanBitsPerNode, full.TotalTime)
	}
	fmt.Printf("AER n=%d model=%v adversary=%s seed=%d\n", n, m, adv, seed)
	fmt.Printf("  gstring          %s\n", res.GString)
	fmt.Printf("  agreement        %v (%d/%d decided, %d on gstring, %d other)\n",
		res.Agreement, res.Decided, res.Correct, res.DecidedGString, res.DecidedOther)
	if m == fastba.TCP {
		fmt.Printf("  wall time        %d ms (last decider handled %d messages, timed out %v)\n", res.Time, res.LastDecision, res.TimedOut)
	} else {
		fmt.Printf("  time             %d (last decision at %d)\n", res.Time, res.LastDecision)
	}
	fmt.Printf("  bits/node        mean %.0f, max %d\n", res.MeanBitsPerNode, res.MaxBitsPerNode)
	fmt.Printf("  messages         %d delivered\n", res.TotalMessages)
	fmt.Printf("  Σ|L_x|           %d over %d correct nodes\n", res.SumCandidates, res.Correct)
	fmt.Printf("  deferred answers %d\n", res.AnswersDeferred)
	var kinds []string
	for k := range res.MessagesByKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		fmt.Printf("  msg[%s] %d\n", k, res.MessagesByKind[k])
	}
	return nil
}

func parseModel(s string) (fastba.Model, error) {
	if s == "sync" { // legacy shorthand
		return fastba.SyncNonRushing, nil
	}
	return fastba.ParseModel(s)
}
