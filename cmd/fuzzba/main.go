// Command fuzzba drives the scenario fuzzer: replay a regression corpus,
// run a seeded random campaign against the protocol-invariant oracles, or
// both. Campaigns are deterministic per -seed (cases execute in a fixed
// order), so a longer -budget strictly extends a shorter one's coverage,
// and any failure is persisted as a shrunk JSON reproducer.
//
// Examples:
//
//	fuzzba -seeds testdata/fuzz_corpus           # replay the corpus only
//	fuzzba -budget 30s                           # 30s random campaign
//	fuzzba -seeds testdata/fuzz_corpus -budget 30s -selftest
//	fuzzba -runs 200 -seed 7 -out /tmp/failures  # persist any findings
//
// Exit status 0 means every corpus case and campaign case passed its
// oracles (and, with -selftest, that a deliberately broken quorum
// threshold was caught); 1 means violations were found; 2 means the
// fuzzer itself failed.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"github.com/fastba/fastba"
)

func main() {
	code, err := run(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "fuzzba:", err)
		if code == 0 {
			code = 2
		}
	}
	os.Exit(code)
}

func run(args []string) (int, error) {
	fs := flag.NewFlagSet("fuzzba", flag.ContinueOnError)
	var (
		corpus    = fs.String("seeds", "", "corpus directory of *.json cases to replay (all must pass their oracles)")
		budget    = fs.Duration("budget", 0, "wall-clock bound for the random campaign (0 = no campaign unless -runs is set)")
		runs      = fs.Int("runs", 0, "number of random campaign cases (0 = bounded by -budget)")
		seed      = fs.Uint64("seed", 1, "campaign seed: case i is a pure function of (seed, i)")
		ns        = fs.String("n", "", "comma-separated candidate system sizes (default 16,24,32)")
		models    = fs.String("models", "", "comma-separated candidate models (default all deterministic models)")
		advs      = fs.String("adversaries", "", "comma-separated adversary registry names (default built-ins)")
		logFrac   = fs.Float64("logfrac", 0, "fraction of campaign cases drawn from the pipelined decision-log family (0 = off)")
		restFrac  = fs.Float64("restartfrac", 0, "fraction of log-family cases that crash and recover a durable log mid-run (0 = off; needs -logfrac)")
		chaosFrac = fs.Float64("chaosfrac", 0, "fraction of log-family cases that run over TCP under a seeded live-socket chaos plan (0 = off; needs -logfrac)")
		scenFrac  = fs.Float64("scenariofrac", 0, "fraction of campaign cases drawn from the hostile-internet scenario family: topologies, latency models, gossip relay, adaptive adversaries (0 = off)")
		out       = fs.String("out", "", "directory receiving shrunk JSON reproducers for failing cases")
		selftest  = fs.Bool("selftest", false, "also run a deliberately broken quorum threshold and require the agreement oracle to catch it")
		verbose   = fs.Bool("v", false, "log every executed case")
	)
	if err := fs.Parse(args); err != nil {
		return 2, err
	}

	if *corpus == "" && *budget <= 0 && *runs <= 0 && !*selftest {
		fs.Usage()
		return 2, fmt.Errorf("nothing to do: give a corpus (-seeds), a campaign bound (-budget or -runs), or -selftest")
	}

	failures := 0

	if *corpus != "" {
		n, bad, err := replayCorpus(*corpus, *verbose)
		if err != nil {
			return 2, err
		}
		fmt.Printf("corpus %s: %d cases, %d failing\n", *corpus, n, bad)
		failures += bad
	}

	if *budget > 0 || *runs > 0 {
		fc := fastba.FuzzConfig{
			Seed:         *seed,
			Runs:         *runs,
			Budget:       *budget,
			PersistDir:   *out,
			LogFrac:      *logFrac,
			RestartFrac:  *restFrac,
			ChaosFrac:    *chaosFrac,
			ScenarioFrac: *scenFrac,
		}
		var err error
		if fc.Ns, err = parseInts(*ns); err != nil {
			return 2, fmt.Errorf("-n: %w", err)
		}
		if fc.Models, err = parseModels(*models); err != nil {
			return 2, fmt.Errorf("-models: %w", err)
		}
		if *advs != "" {
			for _, a := range strings.Split(*advs, ",") {
				fc.Adversaries = append(fc.Adversaries, strings.TrimSpace(a))
			}
		}
		if *verbose {
			fc.OnRun = func(r fastba.FuzzRun) {
				status := "ok"
				if !r.Report.OK() {
					status = r.Report.String()
				}
				fmt.Printf("  case %s → %s\n", r.Case, status)
			}
		}
		res, err := fastba.SimFuzz(context.Background(), fc)
		if err != nil {
			return 2, err
		}
		fmt.Printf("campaign seed %d: %d cases executed, %d failing, %d probabilistic misses\n",
			*seed, res.Executed, len(res.Failures), res.ProbabilisticMisses)
		for _, f := range res.Failures {
			fmt.Printf("  FAIL %s\n", f.Case)
			for _, v := range f.Violations {
				fmt.Printf("    %s\n", v)
			}
		}
		for _, p := range res.Persisted {
			fmt.Printf("  reproducer written: %s\n", p)
		}
		failures += len(res.Failures)
	}

	if *selftest {
		if err := runSelftests(); err != nil {
			return 1, err
		}
	}

	if failures > 0 {
		return 1, fmt.Errorf("%d failing cases", failures)
	}
	return 0, nil
}

func replayCorpus(dir string, verbose bool) (n, bad int, err error) {
	runs, failing, err := fastba.ReplayCorpus(dir)
	if err != nil {
		return 0, 0, err
	}
	if verbose {
		for _, r := range runs {
			fmt.Printf("  case %s → %s\n", r.Case, r.Report)
		}
	}
	for _, f := range failing {
		fmt.Printf("  FAIL %s\n", f.Case)
		for _, v := range f.Violations {
			fmt.Printf("    %s\n", v)
		}
	}
	return len(runs), len(failing), nil
}

// runSelftests guards the guard: each row runs the protocol with its
// decision rule mutated to accept a single poll answer (instead of the
// strict majority of Algorithm 1) and requires the oracles to catch it. If
// the oracles went blind, the whole fuzzing harness would silently pass
// everything. knowFrac 0.60 lets the shared junk belief assemble
// push-quorum majorities, so on these seeds the broken threshold
// deterministically fires every oracle a row names.
func runSelftests() error {
	for _, st := range []struct {
		name, caught string
		opts         []fastba.Option
		must         []string // oracles that must fire
	}{{
		// Every first-answer decision splits the system (agreement) and
		// lacks its majority certificate.
		name:   "selftest",
		caught: "broken quorum threshold caught by the agreement oracle",
		opts:   []fastba.Option{fastba.WithAdversary(fastba.AdversaryNone)},
		must:   []string{fastba.OracleAgreement, fastba.OracleCertificates},
	}, {
		// The same check through the scenario layer: a Watts–Strogatz
		// topology with the gossip relay and an adaptive traffic-ranking
		// adversary. The oracles watch decisions through the relay path, so
		// a scenario wrapper that swallowed or reordered deliveries in a way
		// that masked the certificate-less decisions would go green here.
		name:   "scenario selftest",
		caught: "adaptive adversary on a broken threshold caught under a scenario",
		opts: []fastba.Option{
			fastba.WithScenario(fastba.Scenario{Topology: fastba.TopologyWS, Degree: 6, Rewire: 0.2, ZipfS: 1.0, Seed: 3}),
			fastba.WithAdversaryName(fastba.AdversaryAdaptiveTraffic),
			fastba.WithCorruptFrac(0.1),
		},
		must: []string{fastba.OracleCertificates},
	}} {
		opts := append([]fastba.Option{fastba.WithSeed(1), fastba.WithKnowFrac(0.60), fastba.WithDecideThreshold(1)}, st.opts...)
		cfg := fastba.NewConfig(32, opts...)
		res, err := fastba.RunAER(cfg)
		if err != nil {
			return fmt.Errorf("%s run: %w", st.name, err)
		}
		rep := fastba.CheckInvariants(cfg, res)
		caught := map[string]bool{}
		for _, v := range rep.Violations {
			caught[v.Oracle] = true
		}
		for _, o := range st.must {
			if !caught[o] {
				return fmt.Errorf("%s: the %s oracle missed the broken threshold (report: %s)", st.name, o, rep)
			}
		}
		fmt.Println("selftest: " + st.caught)
	}
	return nil
}

func parseInts(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func parseModels(s string) ([]fastba.Model, error) {
	if s == "" {
		return nil, nil
	}
	var out []fastba.Model
	for _, part := range strings.Split(s, ",") {
		m, err := fastba.ParseModel(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	return out, nil
}
