package pipeline

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeSeq is a Sequencer with no protocol behind it: Append assigns the
// next seq and announces the batch; the test decides when (and whether)
// each seq commits, whether Append has to wait for a slot, and when the
// engine fails.
type fakeSeq struct {
	ing     *Ingest
	batches chan [][]byte // every appended batch, in order
	slot    chan struct{} // non-nil: Append waits for a token
	failCh  chan struct{}
	// commitInAppend reports the commit from inside Append, before the
	// caller has the seq to track the batch under.
	commitInAppend bool

	mu        sync.Mutex
	next      uint64
	open      map[uint64][][]byte
	committed map[uint64]Entry
	err       error
}

func newFakeSeq() *fakeSeq {
	return &fakeSeq{
		batches:   make(chan [][]byte, 64), // more batches than any test appends
		failCh:    make(chan struct{}),
		open:      make(map[uint64][][]byte),
		committed: make(map[uint64]Entry),
	}
}

func (f *fakeSeq) Append(_ context.Context, payloads [][]byte) (uint64, error) {
	if f.slot != nil {
		select {
		case <-f.slot:
		case <-f.failCh:
			return 0, f.Err()
		}
	}
	f.mu.Lock()
	seq := f.next
	f.next++
	f.open[seq] = payloads
	f.mu.Unlock()
	f.batches <- payloads
	if f.commitInAppend {
		f.commit(seq)
	}
	return seq, nil
}

// commit marks seq committed and reports it the way an engine's OnCommit
// does.
func (f *fakeSeq) commit(seq uint64) {
	f.mu.Lock()
	e := Entry{Seq: seq, Payloads: f.open[seq]}
	f.committed[seq] = e
	f.mu.Unlock()
	f.ing.Commit(e)
}

func (f *fakeSeq) CommittedSeq(seq uint64) (Entry, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	e, ok := f.committed[seq]
	return e, ok
}

func (f *fakeSeq) fail(err error) {
	f.mu.Lock()
	f.err = err
	f.mu.Unlock()
	close(f.failCh)
}

func (f *fakeSeq) Failed() <-chan struct{} { return f.failCh }

func (f *fakeSeq) Err() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.err
}

// fakeTimers hands the batcher timers the test fires by hand.
type fakeTimers struct{ armed chan *fakeTimer }

type fakeTimer struct {
	c       chan time.Time
	stopped atomic.Bool
}

func (ft *fakeTimers) new(time.Duration) (<-chan time.Time, func() bool) {
	t := &fakeTimer{c: make(chan time.Time, 1)}
	ft.armed <- t
	return t.c, func() bool { t.stopped.Store(true); return true }
}

// startIngest runs an ingest stage over f, with hand-fired linger timers
// when timers is non-nil.
func startIngest(f *fakeSeq, maxQueue, maxBatch int, linger time.Duration, timers *fakeTimers) *Ingest {
	ing := newIngest(f, maxQueue, maxBatch, linger)
	if timers != nil {
		ing.newTimer = timers.new
	}
	f.ing = ing
	go ing.run()
	return ing
}

// ledger records every completion by payload name.
type ledger struct {
	mu    sync.Mutex
	calls map[string]int
	seqs  map[string]uint64
	errs  map[string]error
}

func newLedger() *ledger {
	return &ledger{calls: map[string]int{}, seqs: map[string]uint64{}, errs: map[string]error{}}
}

type probe struct {
	l    *ledger
	name string
}

func (p probe) Complete(e Entry, latency time.Duration, err error) {
	p.l.mu.Lock()
	defer p.l.mu.Unlock()
	p.l.calls[p.name]++
	p.l.seqs[p.name] = e.Seq
	p.l.errs[p.name] = err
	if latency < 0 {
		p.l.errs[p.name] = fmt.Errorf("negative latency %v", latency)
	}
}

func (l *ledger) offer(t *testing.T, s *Source, name string) {
	t.Helper()
	if err := s.Offer([]byte(name), probe{l, name}); err != nil {
		t.Fatalf("offer %s: %v", name, err)
	}
}

// want asserts that name completed exactly once, with an error matching
// target (nil: a commit).
func (l *ledger) want(t *testing.T, name string, target error) {
	t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.calls[name] != 1 {
		t.Errorf("%s completed %d times, want 1", name, l.calls[name])
	}
	if err := l.errs[name]; !errors.Is(err, target) {
		t.Errorf("%s completed with %v, want %v", name, err, target)
	}
}

func names(batch []item) []string {
	out := make([]string, len(batch))
	for i, it := range batch {
		out[i] = string(it.payload)
	}
	return out
}

func wantBatch(t *testing.T, f *fakeSeq, want ...string) {
	t.Helper()
	got := <-f.batches
	if fmt.Sprint(got) != fmt.Sprint(toBytes(want)) {
		t.Fatalf("batch = %q, want %q", got, want)
	}
}

func toBytes(ss []string) [][]byte {
	out := make([][]byte, len(ss))
	for i, s := range ss {
		out[i] = []byte(s)
	}
	return out
}

// The four admission cases, as inputs to the ingest stage.

// TestIngestOverloadIsPerSource: the maxQueue+1'th offer of one source is
// refused with ErrFull; another source is unaffected.
func TestIngestOverloadIsPerSource(t *testing.T) {
	ing := newIngest(newFakeSeq(), 3, 16, time.Hour)
	l := newLedger()
	s1, s2 := ing.Attach(), ing.Attach()
	for i := 0; i < 3; i++ {
		l.offer(t, s1, fmt.Sprint("x", i))
	}
	if err := s1.Offer([]byte("x3"), probe{l, "x3"}); !errors.Is(err, ErrFull) {
		t.Fatalf("over-limit offer: %v, want ErrFull", err)
	}
	l.offer(t, s2, "y")
}

// TestIngestRoundRobinAndFIFO: batches interleave sources — a firehose
// cannot starve a trickle out of a batch — and each source drains in
// order.
func TestIngestRoundRobinAndFIFO(t *testing.T) {
	ing := newIngest(newFakeSeq(), 64, 4, 0)
	l := newLedger()
	hose, drip := ing.Attach(), ing.Attach()
	for i := 0; i < 6; i++ {
		l.offer(t, hose, fmt.Sprint("hose-", i))
	}
	l.offer(t, drip, "drip")
	batch, queued, _ := ing.cut(false)
	if got := fmt.Sprint(names(batch)); got != "[hose-0 drip hose-1 hose-2]" {
		t.Fatalf("first batch %s: want the trickle source's payload inside it and the hose in order", got)
	}
	if queued != 3 {
		t.Fatalf("%d left queued, want 3", queued)
	}
	batch, _, _ = ing.cut(false)
	if got := fmt.Sprint(names(batch)); got != "[hose-3 hose-4 hose-5]" {
		t.Fatalf("second batch %s", got)
	}
	if batch, _, _ = ing.cut(false); batch != nil {
		t.Fatalf("dry queues cut %v", names(batch))
	}
}

// TestIngestCloseDrainsThenReportsDone: Close refuses new offers, drains
// what was queued into a final batch, and returns only once that batch has
// committed.
func TestIngestCloseDrainsThenReportsDone(t *testing.T) {
	f := newFakeSeq()
	ing := startIngest(f, 8, 16, time.Hour, nil)
	l := newLedger()
	s := ing.Attach()
	l.offer(t, s, "queued")
	closed := make(chan struct{})
	go func() {
		ing.Close(context.Background())
		close(closed)
	}()
	wantBatch(t, f, "queued") // the drain: the linger would have held it an hour
	if err := s.Offer([]byte("late"), probe{l, "late"}); !errors.Is(err, ErrClosed) {
		t.Fatalf("offer after close: %v, want ErrClosed", err)
	}
	<-ing.done
	select {
	case <-closed:
		t.Fatal("Close returned with a batch still in flight")
	default:
	}
	f.commit(0)
	<-closed
	l.want(t, "queued", nil)
}

// TestIngestDetachAbandonsQueuedOnly: a departed source's unbatched
// payloads are dropped untold; in-flight ones complete, exactly once even
// when the commit is reported twice.
func TestIngestDetachAbandonsQueuedOnly(t *testing.T) {
	f := newFakeSeq()
	f.slot = make(chan struct{}, 2)
	ing := startIngest(f, 8, 1, 0, nil)
	l := newLedger()
	s1, s2 := ing.Attach(), ing.Attach()
	f.slot <- struct{}{}
	l.offer(t, s1, "inflight")
	wantBatch(t, f, "inflight")
	// The batcher now waits for a slot with the next batch in hand, so
	// what is offered below stays queued.
	l.offer(t, s2, "held")
	l.offer(t, s1, "abandoned")
	l.offer(t, s2, "kept")
	s1.Detach()
	if err := s1.Offer([]byte("x"), probe{l, "x"}); !errors.Is(err, ErrClosed) {
		t.Fatalf("offer on a detached source: %v, want ErrClosed", err)
	}
	f.commit(0)
	f.commit(0)
	f.slot <- struct{}{}
	f.slot <- struct{}{}
	wantBatch(t, f, "held")
	wantBatch(t, f, "kept")
	f.commit(1)
	f.commit(2)
	ing.Close(context.Background())
	for _, name := range []string{"inflight", "held", "kept"} {
		l.want(t, name, nil)
	}
	if l.calls["abandoned"] != 0 {
		t.Fatal("an abandoned payload was completed")
	}
}

// The cut rule.

func TestIngestCutRule(t *testing.T) {
	t.Run("full batch cuts at once", func(t *testing.T) {
		f := newFakeSeq()
		ing := startIngest(f, 8, 3, time.Hour, nil)
		l := newLedger()
		s := ing.Attach()
		for _, name := range []string{"a", "b", "c"} {
			l.offer(t, s, name)
		}
		wantBatch(t, f, "a", "b", "c")
		f.commit(0)
		ing.Close(context.Background())
	})
	t.Run("linger cuts a partial batch", func(t *testing.T) {
		f := newFakeSeq()
		timers := &fakeTimers{armed: make(chan *fakeTimer, 1)}
		ing := startIngest(f, 8, 3, time.Hour, timers)
		l := newLedger()
		s := ing.Attach()
		l.offer(t, s, "a")
		timer := <-timers.armed
		l.offer(t, s, "b")
		select {
		case got := <-f.batches:
			t.Fatalf("batch %q cut before the linger expired", got)
		default:
		}
		timer.c <- time.Time{}
		wantBatch(t, f, "a", "b")
		f.commit(0)
		ing.Close(context.Background())
	})
	t.Run("linger 0 cuts whatever is queued when the batcher is free", func(t *testing.T) {
		f := newFakeSeq()
		f.slot = make(chan struct{}, 2)
		ing := startIngest(f, 8, 16, 0, nil)
		l := newLedger()
		s := ing.Attach()
		l.offer(t, s, "a") // the batcher takes it and waits for a slot
		f.slot <- struct{}{}
		wantBatch(t, f, "a")
		f.slot <- struct{}{}
		// Whether b and c share a batch depends on when the batcher looks;
		// that every queued payload is cut without a timer does not.
		l.offer(t, s, "b")
		l.offer(t, s, "c")
		got := <-f.batches
		if len(got) == 1 {
			f.slot <- struct{}{}
			got = append(got, (<-f.batches)...)
		}
		if fmt.Sprintf("%s", got) != "[b c]" {
			t.Fatalf("cut %s, want b then c", got)
		}
		f.fail(errors.New("done"))
		ing.Close(context.Background())
	})
	t.Run("a stale tick cannot cut the next window short", func(t *testing.T) {
		f := newFakeSeq()
		timers := &fakeTimers{armed: make(chan *fakeTimer, 1)}
		ing := startIngest(f, 8, 4, time.Hour, timers)
		l := newLedger()
		s := ing.Attach()
		l.offer(t, s, "a")
		first := <-timers.armed
		for _, name := range []string{"b", "c", "d"} {
			l.offer(t, s, name)
		}
		wantBatch(t, f, "a", "b", "c", "d") // cut by size, its timer still armed
		first.c <- time.Time{}              // … which now fires late
		l.offer(t, s, "e")
		second := <-timers.armed // the batcher saw e and opened a new window
		if !first.stopped.Load() {
			t.Fatal("the cut window's timer was not stopped")
		}
		for _, name := range []string{"f", "g", "h"} {
			l.offer(t, s, name)
		}
		wantBatch(t, f, "e", "f", "g", "h")
		if !second.stopped.Load() {
			t.Fatal("the second window's timer was not stopped at its cut")
		}
		f.fail(errors.New("done"))
		ing.Close(context.Background())
	})
}

// TestIngestCommitBeforeTrack: a sequencer that reports the commit before
// Append has returned — so before the batch can be tracked under its seq —
// still gets every payload completed, exactly once. This is the window the
// daemon's batch loop lost acks in.
func TestIngestCommitBeforeTrack(t *testing.T) {
	f := newFakeSeq()
	f.commitInAppend = true
	ing := startIngest(f, 64, 4, 0, nil)
	l := newLedger()
	s := ing.Attach()
	var all []string
	for i := 0; i < 32; i++ {
		all = append(all, fmt.Sprint("p", i))
		l.offer(t, s, all[i])
	}
	// A context that has already ended: the drain still appends every
	// batch, and nothing may be left in flight for Close to give up on.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ing.Close(ctx)
	for _, name := range all {
		l.want(t, name, nil)
	}
}

// TestIngestEngineFailureCompletesEverythingOnce: in-flight, mid-Append and
// queued payloads all complete with the engine's error, once, and the gate
// closes.
func TestIngestEngineFailureCompletesEverythingOnce(t *testing.T) {
	f := newFakeSeq()
	f.slot = make(chan struct{}, 1)
	ing := startIngest(f, 8, 1, 0, nil)
	l := newLedger()
	s := ing.Attach()
	f.slot <- struct{}{}
	l.offer(t, s, "inflight")
	wantBatch(t, f, "inflight")
	l.offer(t, s, "appending") // waits for a slot inside Append
	l.offer(t, s, "queued")
	boom := errors.New("instance timeout")
	f.fail(boom)
	<-ing.done
	for _, name := range []string{"inflight", "appending", "queued"} {
		l.want(t, name, boom)
	}
	if err := s.Offer([]byte("late"), probe{l, "late"}); !errors.Is(err, ErrClosed) {
		t.Fatalf("offer after failure: %v, want ErrClosed", err)
	}
	ing.Close(context.Background())
	f.commit(0) // a straggling commit report finds nothing left to complete
	l.want(t, "inflight", boom)
}

// TestIngestCloseContextFailsWhatIsLeft: Close stops waiting for commits
// when its context ends and completes the rest with an error.
func TestIngestCloseContextFailsWhatIsLeft(t *testing.T) {
	f := newFakeSeq()
	ing := startIngest(f, 8, 16, 0, nil)
	l := newLedger()
	l.offer(t, ing.Attach(), "never")
	wantBatch(t, f, "never")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ing.Close(ctx)
	l.want(t, "never", errUncommitted)
}

// TestIngestBlockedOfferReturns: OfferWait blocks on a full queue in the
// caller's goroutine and returns when its context ends or the gate closes.
func TestIngestBlockedOfferReturns(t *testing.T) {
	f := newFakeSeq()
	ing := startIngest(f, 1, 16, time.Hour, nil)
	l := newLedger()
	s := ing.Attach()
	l.offer(t, s, "fills the queue")

	ctx, cancel := context.WithCancel(context.Background())
	res := make(chan error, 2)
	go func() { res <- s.OfferWait(ctx, []byte("b1"), probe{l, "b1"}) }()
	cancel()
	if err := <-res; !errors.Is(err, context.Canceled) {
		t.Fatalf("blocked offer on cancel: %v", err)
	}

	go func() { res <- s.OfferWait(context.Background(), []byte("b2"), probe{l, "b2"}) }()
	closed := make(chan struct{})
	go func() {
		ing.Close(context.Background())
		close(closed)
	}()
	if err := <-res; !errors.Is(err, ErrClosed) {
		t.Fatalf("blocked offer on close: %v", err)
	}
	wantBatch(t, f, "fills the queue")
	f.commit(0)
	<-closed
	if l.calls["b1"]+l.calls["b2"] != 0 {
		t.Fatal("a refused offer was completed")
	}
}
