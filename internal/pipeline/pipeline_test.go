package pipeline

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/fastba/fastba/internal/core"
	"github.com/fastba/fastba/internal/simnet"
	"github.com/fastba/fastba/internal/store"
)

// appendAll feeds count deterministic single-payload batches and waits for
// every commit.
func appendAll(t *testing.T, e *Engine, count int) []Entry {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	var last uint64
	for i := 0; i < count; i++ {
		seq, err := e.Append(ctx, [][]byte{[]byte(fmt.Sprintf("payload-%d", i))})
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		last = seq
	}
	if _, err := e.WaitSeq(ctx, last); err != nil {
		t.Fatalf("wait seq %d: %v", last, err)
	}
	return e.Entries()
}

func checkLog(t *testing.T, entries []Entry, want int) {
	t.Helper()
	if len(entries) != want {
		t.Fatalf("committed %d entries, want %d", len(entries), want)
	}
	for i, entry := range entries {
		if entry.Seq != uint64(i) {
			t.Errorf("entry %d has seq %d: the log has a gap", i, entry.Seq)
		}
		if entry.DistinctValues != 1 {
			t.Errorf("seq %d: %d distinct decided values", entry.Seq, entry.DistinctValues)
		}
		if entry.CertDeficits != 0 {
			t.Errorf("seq %d: %d cert deficits", entry.Seq, entry.CertDeficits)
		}
		if !entry.MatchesProposal {
			t.Errorf("seq %d: decided value differs from the batch digest", entry.Seq)
		}
	}
}

func TestEngineFabricLog(t *testing.T) {
	e, err := New(Config{N: 16, Seed: 1, KnowFrac: 1, Depth: 2, InstanceTimeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	e.StartFabric()
	entries := appendAll(t, e, 6)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	checkLog(t, entries, 6)
}

func TestEngineTCPLog(t *testing.T) {
	e, err := New(Config{N: 16, Seed: 1, KnowFrac: 1, Depth: 2, InstanceTimeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.StartTCP(); err != nil {
		t.Fatal(err)
	}
	entries := appendAll(t, e, 4)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	checkLog(t, entries, 4)
}

// TestEngineCorruptPopulation: the log commits with fail-silent Byzantine
// nodes present, and the deciders are exactly the correct nodes.
func TestEngineCorruptPopulation(t *testing.T) {
	e, err := New(Config{N: 24, Seed: 3, CorruptFrac: 0.1, KnowFrac: 1, Depth: 2})
	if err != nil {
		t.Fatal(err)
	}
	e.StartFabric()
	entries := appendAll(t, e, 4)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	checkLog(t, entries, 4)
	for _, entry := range entries {
		if entry.Deciders != e.Correct() {
			t.Errorf("seq %d: %d deciders of %d correct", entry.Seq, entry.Deciders, e.Correct())
		}
	}
}

// TestEngineLosslessFaults: delay/duplication on the send path must not
// break commits, values or certificates.
func TestEngineLosslessFaults(t *testing.T) {
	plan := simnet.FaultPlan{Seed: 11, DupProb: 0.2, DelayProb: 0.3, MaxDelay: 3}
	e, err := New(Config{N: 16, Seed: 5, KnowFrac: 1, Depth: 3, Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	e.StartFabric()
	entries := appendAll(t, e, 5)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	checkLog(t, entries, 5)
}

// TestEngineAbort: aborting mid-run releases blocked waiters promptly with
// the cancellation error.
func TestEngineAbort(t *testing.T) {
	e, err := New(Config{N: 16, Seed: 1, KnowFrac: 1, Depth: 1})
	if err != nil {
		t.Fatal(err)
	}
	e.StartFabric()
	ctx := context.Background()
	seq, err := e.Append(ctx, [][]byte{[]byte("x")})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.WaitSeq(ctx, seq); err != nil {
		t.Fatal(err)
	}
	e.Abort()
	if _, err := e.Append(ctx, [][]byte{[]byte("y")}); err == nil {
		t.Fatal("append after abort succeeded")
	}
}

// samplerFootprint runs a fabric log of the given length and returns how
// many strings' permutation sets its shared samplers hold at the end.
func samplerFootprint(t *testing.T, instances int) int {
	t.Helper()
	e, err := New(Config{N: 8, Seed: 3, KnowFrac: 1, Depth: 4, InstanceTimeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	e.StartFabric()
	entries := appendAll(t, e, instances)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	checkLog(t, entries, instances)
	smp := e.nodes[0].(*MuxNode).smp.For(0)
	return smp.I.CachedStrings() + smp.H.CachedStrings()
}

// TestMuxNodesShareAttemptSamplers: the nodes of one engine share each
// attempt's samplers, so the rows of a reopened attempt are derived once
// for all of them, and nodes that use an attempt first at the same time
// agree on one table.
func TestMuxNodesShareAttemptSamplers(t *testing.T) {
	e, err := New(Config{N: 8, Seed: 3, KnowFrac: 1, InstanceTimeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	a, b := e.nodes[2].(*MuxNode), e.nodes[5].(*MuxNode)
	base := a.smp.For(0)
	for k := uint32(0); k < 4; k++ {
		var got [2]*core.Samplers
		var wg sync.WaitGroup
		for i, m := range []*MuxNode{a, b} {
			i, m := i, m
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i] = m.smp.For(k)
			}()
		}
		wg.Wait()
		if got[0] == nil || got[0] != got[1] {
			t.Fatalf("attempt %d: the two nodes got samplers %p and %p", k, got[0], got[1])
		}
		if (k == 0) != (got[0] == base) {
			t.Fatalf("attempt %d: samplers %p, attempt 0's are %p", k, got[0], base)
		}
	}
}

// TestSamplerFootprintIndependentOfLogLength: every committed instance
// brings the shared samplers a string they have never seen, and the log
// shares one Samplers for its whole life — its footprint must not grow with
// the log.
func TestSamplerFootprintIndependentOfLogLength(t *testing.T) {
	short, long := samplerFootprint(t, 500), samplerFootprint(t, 5000)
	if short == 0 || long != short {
		t.Fatalf("sampler holds %d strings after 500 instances and %d after 5000", short, long)
	}
}

// TestEngineReproposesWedgedHead: at the default population (10% corrupt,
// 85% knowledgeable) a run of the randomized protocol regularly leaves a
// correct node wedged, and a log that commits on every correct node used
// to die there ("21 of 22 required deciders"). The engine re-runs the head
// under fresh labels and quorum geometry instead, and the log goes on.
func TestEngineReproposesWedgedHead(t *testing.T) {
	e, err := New(Config{N: 24, Seed: 1, CorruptFrac: 0.1, KnowFrac: 0.85, Depth: 4,
		InstanceTimeout: 30 * time.Second, ReproposeAfter: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	e.StartFabric()
	entries := appendAll(t, e, 20)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	checkLog(t, entries, 20)
	for _, entry := range entries {
		if entry.Deciders != e.Correct() {
			t.Errorf("seq %d: %d deciders of %d correct", entry.Seq, entry.Deciders, e.Correct())
		}
	}
	if e.Reproposed() == 0 {
		t.Fatal("no instance wedged: the run no longer exercises reproposal")
	}
}

// splitEngines runs one population as two engines over one Fabric, no
// sockets: lead hosts ids below k and sequences, follow hosts the rest and
// takes lead's opens through ship (nil: straight into follow.Open).
func splitEngines(t *testing.T, base Config, k int, ship func(follow *Engine, seq uint64, attempt uint32, payloads [][]byte)) (lead, follow *Engine) {
	t.Helper()
	low, high := make([]bool, base.N), make([]bool, base.N)
	for id := range low {
		low[id], high[id] = id < k, id >= k
	}
	if ship == nil {
		ship = func(f *Engine, seq uint64, attempt uint32, payloads [][]byte) { f.Open(seq, attempt, payloads) }
	}
	leadCfg, followCfg := base, base
	leadCfg.Net.Hosted, followCfg.Net.Hosted = low, high
	leadCfg.Broadcast = func(seq uint64, attempt uint32, payloads [][]byte) { ship(follow, seq, attempt, payloads) }
	var err error
	if lead, err = New(leadCfg); err != nil {
		t.Fatal(err)
	}
	if follow, err = New(followCfg); err != nil {
		t.Fatal(err)
	}
	nodes := append([]simnet.Node(nil), lead.Nodes()...)
	copy(nodes[k:], follow.Nodes()[k:])
	fab := simnet.NewFabric(nodes, simnet.CounterClock, true)
	fab.Start()
	lead.Start(fab.InjectLocal)
	follow.Start(fab.InjectLocal)
	t.Cleanup(func() {
		lead.Abort()
		follow.Abort()
		fab.Stop()
	})
	return lead, follow
}

// waitFrontier polls until the engine has committed want entries.
func waitFrontier(t *testing.T, e *Engine, want uint64) {
	t.Helper()
	for deadline := time.Now().Add(30 * time.Second); e.Frontier() < want; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("frontier %d, want %d (err: %v)", e.Frontier(), want, e.Err())
		}
	}
}

func sameLog(t *testing.T, what string, got, want []Entry) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d entries, want %d", what, len(got), len(want))
	}
	for i := range want {
		g, w := RecordOf(got[i]), RecordOf(want[i])
		g.Deciders, g.Correct, g.OpenedNs, g.CommittedNs = w.Deciders, w.Correct, w.OpenedNs, w.CommittedNs
		if string(store.AppendRecord(nil, g)) != string(store.AppendRecord(nil, w)) {
			t.Errorf("%s: entry %d diverges: %+v vs %+v", what, i, got[i], want[i])
		}
	}
}

// TestSplitEnginesFollowerCommits: the follower path — opens arriving
// through Open, no Depth token, commits on the hosted slice's own
// decisions — yields the leader's log, and each engine reports its own
// hosted correct population.
func TestSplitEnginesFollowerCommits(t *testing.T) {
	lead, follow := splitEngines(t, Config{N: 16, Seed: 3, CorruptFrac: 0.1, KnowFrac: 1, Depth: 2}, 8, nil)
	entries := appendAll(t, lead, 6)
	checkLog(t, entries, 6)
	waitFrontier(t, follow, 6)
	sameLog(t, "follower vs leader", follow.Entries(), entries)
	if lead.Correct()+follow.Correct() != 15 {
		t.Fatalf("hosted correct populations %d + %d, want the 15 correct nodes of n = 16", lead.Correct(), follow.Correct())
	}
	for _, e := range []*Engine{lead, follow} {
		for _, entry := range e.Entries() {
			if entry.Correct != e.Correct() || entry.Deciders != e.Correct() {
				t.Errorf("seq %d: %d deciders of %d, engine hosts %d correct nodes", entry.Seq, entry.Deciders, entry.Correct, e.Correct())
			}
		}
	}
	if err := follow.Close(); err != nil {
		t.Fatal(err)
	}
	if err := lead.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestReproposalReachesFollowerThatMissedTheOpen: the first broadcast of
// seq 1 is lost; the leader's reproposal ships it again, the follower
// registers it at attempt 1, and both commit.
func TestReproposalReachesFollowerThatMissedTheOpen(t *testing.T) {
	base := Config{N: 16, Seed: 5, KnowFrac: 1, Depth: 2, ReproposeAfter: 100 * time.Millisecond}
	lead, follow := splitEngines(t, base, 8, func(f *Engine, seq uint64, attempt uint32, payloads [][]byte) {
		if seq == 1 && attempt == 0 {
			return
		}
		f.Open(seq, attempt, payloads)
	})
	entries := appendAll(t, lead, 3)
	checkLog(t, entries, 3)
	waitFrontier(t, follow, 3)
	sameLog(t, "follower vs leader", follow.Entries(), entries)
	if lead.Reproposed() == 0 {
		t.Fatal("the leader never reproposed the instance its follower missed")
	}
}

// TestOpenDuplicateStaleAndClose drives the follower entry point on an
// engine whose instances cannot decide (the other half of the population
// is nowhere): duplicate and stale opens change nothing, a higher attempt
// re-opens, and Close does not wait for instances it did not sequence.
func TestOpenDuplicateStaleAndClose(t *testing.T) {
	hosted := make([]bool, 16)
	for id := 8; id < 16; id++ {
		hosted[id] = true
	}
	cfg := Config{N: 16, Seed: 1, KnowFrac: 1, InstanceTimeout: 30 * time.Second}
	cfg.Net.Hosted = hosted
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fab := simnet.NewFabric(e.Nodes(), simnet.CounterClock, true)
	fab.Start()
	defer fab.Stop()
	e.Start(fab.InjectLocal)

	attempt := func(seq uint64) (uint32, *instance) {
		e.mu.Lock()
		defer e.mu.Unlock()
		inst := e.open[seq]
		if inst == nil {
			t.Fatalf("seq %d not open", seq)
		}
		if inst.slot {
			t.Fatalf("seq %d holds a Depth token it was never given", seq)
		}
		return inst.attempt, inst
	}
	payloads := [][]byte{[]byte("p")}
	e.Open(0, 0, payloads)
	_, first := attempt(0)
	e.Open(0, 0, payloads) // duplicate
	if a, inst := attempt(0); a != 0 || inst != first {
		t.Fatalf("duplicate open replaced the instance (attempt %d)", a)
	}
	e.Open(0, 2, payloads)            // reopen
	e.Open(0, 1, payloads)            // stale
	e.Open(0, MaxAttempt+1, payloads) // no tag can carry it: dropped
	if a, inst := attempt(0); a != 2 || inst != first {
		t.Fatalf("after reopen 2, stale 1 and attempt %d the instance is at attempt %d", MaxAttempt+1, a)
	}
	e.Open(5, 3, payloads) // first seen at a later attempt, ahead of the frontier
	if a, _ := attempt(5); a != 3 {
		t.Fatalf("seq 5 registered at attempt %d, want 3", a)
	}
	e.mu.Lock()
	next := e.nextSeq
	e.mu.Unlock()
	if next != 6 {
		t.Fatalf("next sequence %d after an open of seq 5, want 6", next)
	}

	start := time.Now()
	if err := e.Close(); err != nil {
		t.Fatalf("close with undecidable follower instances: %v", err)
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Fatalf("close waited %v on instances another engine sequenced", took)
	}
	e.Open(6, 0, payloads) // closed: dropped
	if got := len(e.Entries()); got != 0 {
		t.Fatalf("%d entries committed out of nowhere", got)
	}
}

// TestRepairCommitsPeerRecords: an engine that saw no open at all commits
// a peer's records — handed over out of order, the tail before the head —
// strictly in sequence, reports them as repaired, and sequences past them
// afterwards.
func TestRepairCommitsPeerRecords(t *testing.T) {
	donor, err := New(Config{N: 16, Seed: 9, KnowFrac: 1, Depth: 2})
	if err != nil {
		t.Fatal(err)
	}
	donor.StartFabric()
	want := appendAll(t, donor, 4)
	run, err := store.DecodeRun(0, donor.CatchupRecords(0, 16))
	if err != nil || len(run) != 4 {
		t.Fatalf("donor served %d records (%v), want 4", len(run), err)
	}
	if err := donor.Close(); err != nil {
		t.Fatal(err)
	}

	var repaired []uint64
	cfg := Config{N: 16, Seed: 9, KnowFrac: 1, OnCommit: func(e Entry, viaRepair bool) {
		if viaRepair {
			repaired = append(repaired, e.Seq)
		}
	}}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.Start(func(simnet.Envelope) {}) // no protocol traffic: repair alone must carry it
	if n := e.Repair(run[1:]); n != 3 {
		t.Fatalf("repair kept %d records, want 3", n)
	}
	if n := e.Repair(run[:2]); n != 2 {
		t.Fatalf("repair kept %d records, want 2", n)
	}
	waitFrontier(t, e, 4)
	if n := e.Repair(run); n != 0 {
		t.Fatalf("repair kept %d records behind the frontier", n)
	}
	e.Abort() // the watcher is the OnCommit caller: join it before reading
	sameLog(t, "repaired vs donor", e.Entries(), want)
	if e.Repaired() != 4 || fmt.Sprint(repaired) != "[0 1 2 3]" {
		t.Fatalf("%d repaired commits counted, observed in order %v, want 0..3", e.Repaired(), repaired)
	}
	e.mu.Lock()
	next := e.nextSeq
	e.mu.Unlock()
	if next != 4 {
		t.Fatalf("next sequence %d after repairing 4 entries, want 4", next)
	}
}
