// Command loadba drives a pipelined DecisionLog under sustained client
// load and reports committed throughput and commit-latency percentiles.
// It is the repository's "agreement as a service" harness: clients
// propose payloads, the batcher folds them into instance values, up to
// -depth instances run concurrently over one long-lived transport, and
// instances commit strictly in order.
//
// Examples:
//
//	loadba -n 64 -clients 256 -duration 5s
//	loadba -n 64 -clients 256 -duration 5s -runtime tcp
//	loadba -n 32 -depth 4 -rate 200 -payload 128 -duration 10s
//	loadba -n 32 -duration 5s -dup 0.2 -delay 0.3 -maxdelay 3
//	loadba -n 32 -duration 6s -store /tmp/balog -restart 2
//	loadba -daemon -clients 8 -duration 6s -restart 1
//
// With -daemon the same client loop drives real balogd processes instead
// of an in-process log; -restart then SIGKILLs and restarts the last
// daemon.
//
// Exit status 0 means the run committed at least one entry, performed
// every requested restart, and every cross-instance oracle (gap-free
// sequence, per-instance agreement, certificates, validity — and, on
// restart and daemon runs, durability: no committed entry regressed
// across any crash/recover cycle) held; 1 means a violation, a stalled
// log or an empty one; 2 means the harness itself failed.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"github.com/fastba/fastba"
	"github.com/fastba/fastba/internal/profiling"
)

func main() {
	code, err := run(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadba:", err)
		if code == 0 {
			code = 2
		}
	}
	os.Exit(code)
}

func run(args []string) (int, error) {
	fs := flag.NewFlagSet("loadba", flag.ContinueOnError)
	var (
		n             = fs.Int("n", 64, "system size")
		seed          = fs.Uint64("seed", 1, "master seed (corruption, knowledge, junk, client payloads)")
		clients       = fs.Int("clients", 256, "concurrent client sessions")
		pipeline      = fs.Int("pipeline", 1, "appends each client keeps in flight (daemon mode: > -queue forces ErrOverload)")
		rate          = fs.Float64("rate", 0, "per-client proposal rate in payloads/second (0 = closed loop)")
		payload       = fs.Int("payload", 32, "payload size in bytes")
		duration      = fs.Duration("duration", 5*time.Second, "proposing phase duration")
		depth         = fs.Int("depth", 4, "instance pipelining depth")
		batch         = fs.Int("batch", 64, "ingest batch size")
		linger        = fs.Duration("linger", 2*time.Millisecond, "batch linger")
		runtime       = fs.String("runtime", "fabric", "transport: fabric (in-process) or tcp (loopback sockets)")
		corrupt       = fs.Float64("corrupt", 0.10, "fail-silent Byzantine fraction")
		know          = fs.Float64("know", 1.0, "per-instance knowledgeable fraction of correct nodes")
		frac          = fs.Float64("commitfrac", 1.0, "fraction of correct nodes that must decide before commit")
		timeout       = fs.Duration("timeout", 30*time.Second, "head-instance commit timeout")
		drop          = fs.Float64("drop", 0, "fault plan: per-message drop probability")
		dup           = fs.Float64("dup", 0, "fault plan: per-message duplication probability")
		delay         = fs.Float64("delay", 0, "fault plan: per-message delay probability")
		maxDelay      = fs.Int("maxdelay", 0, "fault plan: maximum injected delay (logical time)")
		planSeed      = fs.Uint64("faultseed", 1, "fault plan schedule seed")
		store         = fs.String("store", "", "durable store directory: persist committed entries to a write-ahead log and recover them on reopen")
		restart       = fs.Int("restart", 0, "crash-and-recover this many times during the run (in-process: requires -store; daemon mode: the last daemon)")
		syncWin       = fs.Duration("syncwindow", 0, "store group-commit window (0 = fsync every append)")
		chaos         = fs.String("chaos", "", "live-socket chaos mode: sweep (sever every link at least once) or random (requires -runtime tcp)")
		chaosSeed     = fs.Uint64("chaosseed", 1, "chaos strike schedule seed")
		chaosInterval = fs.Duration("chaosinterval", 50*time.Millisecond, "interval between chaos strikes")
		chaosStrikes  = fs.Int("chaosstrikes", 0, "chaos strike budget (0 with -chaos random = unbounded; ignored by sweep)")
		chaosKinds    = fs.String("chaoskinds", "", "comma-separated strike kinds: close, halfclose, blackhole (default all)")
		jsonOut       = fs.Bool("json", false, "emit the full LoadResult as JSON on stdout")
		daemonMode    = fs.Bool("daemon", false, "multi-process mode: spawn real balogd processes and drive the client SDK over real sockets")
		daemons       = fs.Int("daemons", 4, "daemon mode: balogd processes to spawn")
		perDaemon     = fs.Int("k", 2, "daemon mode: protocol nodes per daemon (population = daemons × k)")
		queueMax      = fs.Int("queue", 0, "daemon mode: per-client admission queue bound (small values force overload shedding)")
		balogdBin     = fs.String("balogd", "", "daemon mode: prebuilt balogd binary (default: go build from the enclosing module)")
		daemonDir     = fs.String("dir", "", "daemon mode: scratch directory for stores and logs (default: a temp dir)")
		verbose       = fs.Bool("v", false, "daemon mode: print harness progress lines")
	)
	var prof profiling.Flags
	prof.Register(fs)
	if err := fs.Parse(args); err != nil {
		return 2, err
	}

	w := fastba.Workload{
		Clients:      *clients,
		Pipeline:     *pipeline,
		Rate:         *rate,
		PayloadBytes: *payload,
		Duration:     *duration,
		Restarts:     *restart,
	}
	rt, err := fastba.ParseLogRuntime(*runtime)
	if err != nil {
		return 2, err
	}
	opts := []fastba.Option{
		fastba.WithSeed(*seed),
		fastba.WithCorruptFrac(*corrupt),
		fastba.WithKnowFrac(*know),
		fastba.WithLogRuntime(rt),
		fastba.WithLogDepth(*depth),
		fastba.WithLogBatch(*batch),
		fastba.WithLogLinger(*linger),
		fastba.WithLogCommitFraction(*frac),
		fastba.WithLogInstanceTimeout(*timeout),
		fastba.WithWorkload(w),
	}
	if *store != "" {
		opts = append(opts, fastba.WithLogStore(*store), fastba.WithLogStoreSync(*syncWin))
	}
	if *drop > 0 || *dup > 0 || *delay > 0 {
		opts = append(opts, fastba.WithFaults(fastba.FaultPlan{
			Seed:      *planSeed,
			DropProb:  *drop,
			DupProb:   *dup,
			DelayProb: *delay,
			MaxDelay:  *maxDelay,
		}))
	}
	if *chaos != "" {
		if rt != fastba.RuntimeTCP {
			return 2, fmt.Errorf("-chaos severs real sockets; it requires -runtime tcp")
		}
		plan := fastba.ChaosPlan{
			Seed:     *chaosSeed,
			Strikes:  *chaosStrikes,
			Interval: *chaosInterval,
		}
		switch *chaos {
		case "sweep":
			plan.Sweep = true
		case "random":
			if plan.Strikes == 0 {
				plan.Interval = *chaosInterval // unbounded: strike every interval until the run ends
			}
		default:
			return 2, fmt.Errorf("-chaos must be sweep or random, got %q", *chaos)
		}
		if *chaosKinds != "" {
			for _, name := range strings.Split(*chaosKinds, ",") {
				k, err := fastba.ParseChaosKind(strings.TrimSpace(name))
				if err != nil {
					return 2, err
				}
				plan.Kinds = append(plan.Kinds, k)
			}
		}
		opts = append(opts, fastba.WithChaos(plan))
	}

	cfg := fastba.NewConfig(*n, opts...)
	load := func(ctx context.Context) (*fastba.LoadResult, error) { return fastba.RunLoad(ctx, cfg) }
	if *daemonMode {
		c := fastba.DaemonCluster{
			Daemons:    *daemons,
			PerDaemon:  *perDaemon,
			Seed:       *seed,
			Depth:      *depth,
			BatchMax:   *batch,
			QueueMax:   *queueMax,
			BalogdPath: *balogdBin,
			Dir:        *daemonDir,
		}
		if *verbose {
			c.Logf = func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, "loadba: "+format+"\n", args...)
			}
		}
		load = func(ctx context.Context) (*fastba.LoadResult, error) { return fastba.RunDaemonLoad(ctx, w, c) }
	}

	stopProf, err := prof.Start()
	if err != nil {
		return 2, err
	}
	res, err := load(context.Background())
	if perr := stopProf(); perr != nil && err == nil {
		err = perr
	}
	if err != nil {
		return 2, err
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			return 2, err
		}
	} else {
		render(res)
	}

	kept := ""
	if res.Dir != "" {
		kept = " (scratch kept at " + res.Dir + ")"
	}
	switch {
	case res.Err != "":
		return 1, fmt.Errorf("log failed: %s%s", res.Err, kept)
	case res.Committed == 0:
		return 1, fmt.Errorf("no entries committed")
	case !res.Oracles.OK():
		return 1, fmt.Errorf("oracle violations: %s%s", res.Oracles, kept)
	case res.Restarts < w.Restarts:
		return 1, fmt.Errorf("restart schedule incomplete: %d of %d restarts", res.Restarts, w.Restarts)
	}
	return 0, nil
}

func render(res *fastba.LoadResult) {
	fmt.Printf("decision log: runtime=%s depth=%d workload=%s\n", res.Runtime, res.Depth, res.Workload.Label())
	fmt.Printf("  committed  %d entries (%d of %d proposed payloads, max acked seq %d) in %v\n",
		res.Committed, res.CommittedPayloads, res.Proposed, res.MaxAckedSeq, res.Elapsed.Round(time.Millisecond))
	if res.Overloads > 0 || res.Lost > 0 {
		fmt.Printf("  rejected   %d overload-shed, %d lost\n", res.Overloads, res.Lost)
	}
	fmt.Printf("  throughput %.1f entries/s, %.1f payloads/s\n", res.EntriesPerSec, res.PayloadsPerSec)
	fmt.Printf("  latency    p50 %v, p99 %v\n", res.CommitP50.Round(time.Microsecond), res.CommitP99.Round(time.Microsecond))
	if res.Restarts > 0 {
		fmt.Printf("  durability %d crash/recover cycles", res.Restarts)
		if res.Recovered > 0 {
			fmt.Printf(", %d entries recovered from the store", res.Recovered)
		}
		fmt.Println()
	}
	if n := res.Net; n.Dials > 0 {
		fmt.Printf("  net        %d dials, %d redials (%d failed), %d suspects, %d recoveries, %d dead links, %d dropped-down\n",
			n.Dials, n.Redials, n.FailedDials, n.Suspects, n.Recoveries, n.DeadLinks, n.DroppedDown)
		if n.FramesSent > 0 {
			fmt.Printf("  wire       %d frames carried %d messages (%d batch frames, %.2f msgs/frame)\n",
				n.FramesSent, n.MessagesSent, n.BatchFrames, float64(n.MessagesSent)/float64(n.FramesSent))
		}
		if n.ChaosStrikes > 0 || n.LinksSevered > 0 {
			fmt.Printf("  chaos      %d strikes (%d skipped), %d distinct links severed\n",
				n.ChaosStrikes, n.ChaosSkips, n.LinksSevered)
		}
	}
	if len(res.Frontiers) > 0 {
		fmt.Printf("  stores     frontiers %v, byte-identical common prefix %d\n", res.Frontiers, res.CommonPrefix)
	}
	if len(res.Scraped) > 0 {
		fmt.Printf("  metrics    commits=%.0f appends=%.0f shed=%.0f (leader /metrics)\n",
			res.Scraped["fastba_commits_total"], res.Scraped["fastba_appends_total"], res.Scraped["fastba_overload_shed_total"])
	}
	if len(res.Hist) > 0 {
		fmt.Printf("  histogram  ")
		for i, b := range res.Hist {
			if b.Count == 0 {
				continue
			}
			if b.UpToMs > 0 {
				fmt.Printf("≤%gms:%d ", b.UpToMs, b.Count)
			} else {
				fmt.Printf(">%gms:%d ", res.Hist[i-1].UpToMs, b.Count)
			}
		}
		fmt.Println()
	}
	fmt.Printf("  oracles    %s\n", res.Oracles)
}
