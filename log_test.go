package fastba

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"github.com/fastba/fastba/internal/store"
)

// conformancePayloads derives a deterministic workload: entry k is a
// batch of k%3+1 payloads whose bytes are pure functions of (seed, k, i).
func conformancePayloads(seed uint64, entries int) [][][]byte {
	batches := make([][][]byte, entries)
	for k := range batches {
		batch := make([][]byte, k%3+1)
		for i := range batch {
			batch[i] = []byte(fmt.Sprintf("seed=%d/entry=%d/payload=%d", seed, k, i))
		}
		batches[k] = batch
	}
	return batches
}

// runConformanceLog appends the deterministic workload on the given
// runtime and returns the committed log.
func runConformanceLog(t *testing.T, runtime LogRuntime, entries int, opts ...Option) []LogEntry {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	cfg := NewConfig(16,
		append([]Option{
			WithSeed(7),
			WithKnowFrac(1),
			WithCorruptFrac(0),
			WithLogRuntime(runtime),
			WithLogDepth(2),
		}, opts...)...)
	log, err := OpenLog(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, batch := range conformancePayloads(7, entries) {
		if _, err := log.Append(ctx, batch); err != nil {
			t.Fatalf("append on %v: %v", runtime, err)
		}
	}
	if err := log.Close(); err != nil {
		t.Fatalf("close on %v: %v", runtime, err)
	}
	return log.Committed()
}

// TestDecisionLogConformance: the same seed and workload yield
// byte-identical committed logs on the in-process fabric, over real TCP
// sockets and on a cluster of daemons — sequence numbers, decided values
// and payload bytes all equal. This is the determinism contract of the
// decision log: committed state is a function of (seed, batches), not of
// transport scheduling or of which host runs which node.
func TestDecisionLogConformance(t *testing.T) {
	const entries = 6
	fabric := runConformanceLog(t, RuntimeFabric, entries)
	tcp := runConformanceLog(t, RuntimeTCP, entries)
	if len(fabric) != entries || len(tcp) != entries {
		t.Fatalf("committed %d (fabric) and %d (tcp) entries, want %d", len(fabric), len(tcp), entries)
	}
	for i := range fabric {
		f, c := fabric[i], tcp[i]
		if f.Seq != c.Seq || f.Value != c.Value {
			t.Errorf("entry %d diverges: fabric (seq=%d value=%s) vs tcp (seq=%d value=%s)",
				i, f.Seq, f.Value, c.Seq, c.Value)
		}
		if len(f.Payloads) != len(c.Payloads) {
			t.Errorf("entry %d payload count diverges: %d vs %d", i, len(f.Payloads), len(c.Payloads))
			continue
		}
		for j := range f.Payloads {
			if string(f.Payloads[j]) != string(c.Payloads[j]) {
				t.Errorf("entry %d payload %d diverges: %q vs %q", i, j, f.Payloads[j], c.Payloads[j])
			}
		}
	}
	for _, entries := range [][]LogEntry{fabric, tcp} {
		if rep := CheckLogInvariants(entries, 1); !rep.OK() {
			t.Errorf("oracle violations: %s", rep)
		}
	}
	if testing.Short() {
		return
	}

	// One commit engine, three hosts: a daemon cluster, each daemon hosting
	// a slice of the population, commits the canonical (Seq, Value,
	// Payloads) bytes of the in-process fabric and TCP logs. The daemons
	// form batches from client traffic; one append at a time makes them
	// the fixed one-payload batches the logs are given.
	const daemons, k = 4, 2
	ds, _, dirs := startDaemons(t, daemons, k, 32)
	seed := testDaemonConfig(nil, dirs, 0, k, 32).Seed
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	logs := make(map[string][]store.Record)
	for _, runtime := range []LogRuntime{RuntimeFabric, RuntimeTCP} {
		log, err := OpenLog(ctx, NewConfig(daemons*k, WithSeed(seed), WithKnowFrac(1), WithCorruptFrac(0),
			WithLogRuntime(runtime), WithLogDepth(2)))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < entries; i++ {
			if _, err := log.Append(ctx, [][]byte{[]byte(fmt.Sprintf("conformance-%d", i))}); err != nil {
				t.Fatalf("append on %v: %v", runtime, err)
			}
		}
		if err := log.Close(); err != nil {
			t.Fatalf("close on %v: %v", runtime, err)
		}
		// The committed prefix as a catch-up peer would be served it.
		if logs[runtime.String()], err = store.DecodeRun(0, log.eng.CatchupRecords(0, entries)); err != nil {
			t.Fatal(err)
		}
	}
	lc, err := DialLog(ctx, ClientConfig{Addr: ds[0].ClientAddr()})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	for i := 0; i < entries; i++ {
		if seq, err := lc.Append(ctx, []byte(fmt.Sprintf("conformance-%d", i))); err != nil || seq != uint64(i) {
			t.Fatalf("daemon append %d: seq %d, %v", i, seq, err)
		}
	}
	// Every daemon reaches the frontier before the first one stops: a
	// lagging follower repairs from its peers, so none may leave early.
	for i, d := range ds {
		for d.Frontier() < entries {
			if ctx.Err() != nil {
				t.Fatalf("daemon %d frontier %d, want %d", i, d.Frontier(), entries)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	for i, d := range ds {
		if err := d.Shutdown(ctx); err != nil {
			t.Fatalf("daemon %d shutdown: %v", i, err)
		}
		st, err := store.Open(dirs[i], store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		recs := st.Records()
		st.Close()
		logs[fmt.Sprintf("daemon %d", i)] = recs
		for _, r := range recs {
			// Each daemon reports its own slice: k hosted correct nodes, and
			// at least the one certified decider it commits on.
			if r.Correct != k || r.Deciders < 1 || r.Deciders > k {
				t.Errorf("daemon %d seq %d: %d deciders of %d correct, hosting %d", i, r.Seq, r.Deciders, r.Correct, k)
			}
		}
	}
	want := logs[RuntimeFabric.String()]
	for host, recs := range logs {
		if len(recs) != entries {
			t.Errorf("%s committed %d entries, want %d", host, len(recs), entries)
			continue
		}
		for i := range recs {
			if string(canonicalRecordBytes(recs[i])) != string(canonicalRecordBytes(want[i])) {
				t.Errorf("%s entry %d diverges from the fabric log", host, i)
			}
		}
	}
}

// TestDecisionLogLosslessFaultsUnderLoad: a lossless fault plan
// (duplication, delay, reordering) on the shared transport must leave
// every safety oracle clean while the pipeline runs at depth with
// Byzantine nodes present.
func TestDecisionLogLosslessFaultsUnderLoad(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	cfg := NewConfig(16,
		WithSeed(5),
		WithKnowFrac(1),
		WithCorruptFrac(0.1),
		WithLogDepth(4),
		WithFaults(FaultPlan{Seed: 21, DupProb: 0.25, DelayProb: 0.4, MaxDelay: 4}),
	)
	log, err := OpenLog(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	const entries = 8
	for _, batch := range conformancePayloads(5, entries) {
		if _, err := log.Append(ctx, batch); err != nil {
			t.Fatal(err)
		}
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	committed := log.Committed()
	if len(committed) != entries {
		t.Fatalf("committed %d entries, want %d", len(committed), entries)
	}
	if rep := CheckLogInvariants(committed, 1); !rep.OK() {
		t.Errorf("oracle violations under lossless faults: %s", rep)
	}
}

// TestDecisionLogProposeBatching: client proposals batch into instances
// and every ticket resolves with its entry.
func TestDecisionLogProposeBatching(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	cfg := NewConfig(16,
		WithSeed(2), WithKnowFrac(1), WithCorruptFrac(0),
		WithLogDepth(2), WithLogBatch(4), WithLogLinger(time.Millisecond))
	log, err := OpenLog(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var tickets []*Ticket
	for i := 0; i < 10; i++ {
		tk, err := log.Propose(ctx, []byte(fmt.Sprintf("p%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		tickets = append(tickets, tk)
	}
	for i, tk := range tickets {
		entry, err := tk.Wait(ctx)
		if err != nil {
			t.Fatalf("ticket %d: %v", i, err)
		}
		if entry.PayloadCount == 0 {
			t.Fatalf("ticket %d resolved against an empty entry", i)
		}
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	committed := log.Committed()
	total := 0
	for _, e := range committed {
		total += e.PayloadCount
	}
	if total != 10 {
		t.Fatalf("%d payloads across %d entries, want 10", total, len(committed))
	}
	if rep := CheckLogInvariants(committed, 1); !rep.OK() {
		t.Errorf("oracle violations: %s", rep)
	}
}

// TestDecisionLogObserverCommits: EventCommit streams one event per
// committed entry, in sequence order.
func TestDecisionLogObserverCommits(t *testing.T) {
	ctx := context.Background()
	var seqs []int
	cfg := NewConfig(16,
		WithSeed(3), WithKnowFrac(1), WithCorruptFrac(0), WithLogDepth(1),
		WithObserver(func(ev Event) {
			if ev.Type == EventCommit {
				seqs = append(seqs, ev.Time)
			}
		}))
	log, err := OpenLog(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := log.Append(ctx, [][]byte{[]byte(fmt.Sprintf("v%d", i))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	if len(seqs) != 3 {
		t.Fatalf("observed %d commit events, want 3", len(seqs))
	}
	for i, s := range seqs {
		if s != i {
			t.Fatalf("commit events out of order: %v", seqs)
		}
	}
}

// TestLogOracleCatchesGap: a fabricated hole in the committed sequence is
// a log-gap-free violation (the oracle is not a tautology of the commit
// rule — it cross-checks it).
func TestLogOracleCatchesGap(t *testing.T) {
	entries := []LogEntry{
		{Seq: 0, DistinctValues: 1, MatchesProposal: true},
		{Seq: 2, DistinctValues: 1, MatchesProposal: true},
	}
	rep := CheckLogInvariants(entries, 1)
	found := false
	for _, v := range rep.Violations {
		if v.Oracle == OracleLogGapFree {
			found = true
		}
	}
	if !found {
		t.Fatalf("gap not caught: %s", rep)
	}
	// Divergence and cert deficits are caught too.
	bad := []LogEntry{{Seq: 0, DistinctValues: 2, CertDeficits: 1, MatchesProposal: false}}
	rep = CheckLogInvariants(bad, 1)
	caught := map[string]bool{}
	for _, v := range rep.Violations {
		caught[v.Oracle] = true
	}
	for _, want := range []string{OracleLogAgreement, OracleLogCertificates, OracleLogValidity} {
		if !caught[want] {
			t.Errorf("%s not caught: %s", want, rep)
		}
	}
	// Below the a.e. precondition, validity is skipped, not violated.
	rep = CheckLogInvariants(bad, 0.5)
	if _, skipped := rep.Skipped[OracleLogValidity]; !skipped {
		t.Errorf("validity not skipped below the precondition: %s", rep)
	}
}

// TestRunLoadSuiteWorkloadAxis: workloads are a first-class sweep
// dimension — KindLog cells are labeled per workload and carry
// throughput/latency statistics and oracle verdicts.
func TestRunLoadSuiteWorkloadAxis(t *testing.T) {
	rep, err := RunSuite(context.Background(), Suite{
		Name: "load",
		Kind: KindLog,
		Sweep: Sweep{
			Ns: []int{16},
			Workloads: []Workload{
				{Clients: 4, PayloadBytes: 16, Duration: 500 * time.Millisecond},
				{Clients: 8, Rate: 50, PayloadBytes: 16, Duration: 500 * time.Millisecond},
			},
			Options: []Option{WithKnowFrac(1), WithCorruptFrac(0), WithLogDepth(2)},
		},
		Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Cells) != 2 {
		t.Fatalf("want 2 workload cells, got %d", len(rep.Cells))
	}
	for _, cr := range rep.Cells {
		if cr.Cell.Workload == "" {
			t.Errorf("cell %v missing workload label", cr.Cell)
		}
		if cr.OracleViolations != 0 {
			t.Errorf("cell %q has oracle violations: %+v", cr.Cell.Workload, cr.Records)
		}
		if cr.Load == nil {
			t.Fatalf("cell %q missing load stats", cr.Cell.Workload)
		}
		if cr.Load.Committed.Mean <= 0 {
			t.Errorf("cell %q committed nothing", cr.Cell.Workload)
		}
		for _, rec := range cr.Records {
			if rec.Committed > 0 && rec.CommitP99Ms < rec.CommitP50Ms {
				t.Errorf("cell %q: p99 %.2fms below p50 %.2fms", cr.Cell.Workload, rec.CommitP99Ms, rec.CommitP50Ms)
			}
		}
	}
}

// countGoroutines samples the goroutine count after a settling pause.
func countGoroutines() int {
	time.Sleep(150 * time.Millisecond)
	return runtime.NumGoroutine()
}

// TestTCPModelCancelNoLeak: a cancelled TCP-model run tears the netrun
// cluster down promptly — no accept loops, read loops or delivery
// goroutines survive the return.
func TestTCPModelCancelNoLeak(t *testing.T) {
	before := countGoroutines()
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before the run starts: the run must still clean up
	if _, err := RunAERContext(ctx, NewConfig(16, WithSeed(1), WithModel(TCP))); err == nil {
		t.Fatal("cancelled TCP run returned no error")
	}
	ctx2, cancel2 := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel2()
	if _, err := RunAERContext(ctx2, NewConfig(24, WithSeed(2), WithModel(TCP))); err == nil {
		// A fast run may legitimately beat the 50ms deadline; accept both.
		t.Log("tcp run finished before the cancellation deadline")
	}
	after := countGoroutines()
	if after > before+3 {
		t.Fatalf("goroutines grew from %d to %d after cancelled TCP runs", before, after)
	}
}

// TestDecisionLogCancelNoLeak: cancelling a log's context aborts open
// instances and tears the TCP transport down without Close.
func TestDecisionLogCancelNoLeak(t *testing.T) {
	before := countGoroutines()
	ctx, cancel := context.WithCancel(context.Background())
	cfg := NewConfig(16, WithSeed(4), WithKnowFrac(1), WithCorruptFrac(0),
		WithLogRuntime(RuntimeTCP), WithLogDepth(2))
	log, err := OpenLog(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := log.Append(ctx, [][]byte{[]byte("x")}); err != nil {
		t.Fatal(err)
	}
	ticket, err := log.Propose(ctx, []byte("pending"))
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	// Tickets must resolve on engine failure without waiting for Close
	// (the Ticket.Wait contract).
	waitCtx, waitCancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer waitCancel()
	if _, err := ticket.Wait(waitCtx); err == nil || waitCtx.Err() != nil {
		t.Fatalf("ticket did not resolve with an error after cancellation: %v / %v", err, waitCtx.Err())
	}
	// After cancellation the engine is aborted; Close only cleans up the
	// batcher and must not hang.
	done := make(chan struct{})
	go func() { log.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Close hung after context cancellation")
	}
	after := countGoroutines()
	if after > before+3 {
		t.Fatalf("goroutines grew from %d to %d after cancelled log", before, after)
	}
}
