package pipeline

import (
	"context"
	"errors"
	"sync"
	"time"
)

// ErrFull reports a non-blocking Offer on a source whose queue is at its
// bound: the overload contract — a client that outruns the pipeline is
// told so, never buffered without bound.
var ErrFull = errors.New("pipeline: source queue full")

// errUncommitted completes what Close could not see commit before its
// context ended.
var errUncommitted = errors.New("pipeline: closed before the payload committed")

// Sequencer is what an Ingest feeds; *Engine is the one in production.
type Sequencer interface {
	Append(ctx context.Context, payloads [][]byte) (uint64, error)
	CommittedSeq(seq uint64) (Entry, bool)
	Failed() <-chan struct{}
	Err() error
}

// Completion is the host's end of one offered payload. Complete is called
// exactly once: with the committed entry and the payload's queue-to-commit
// latency, or with the error that ended it. Abandoned payloads (Detach)
// are the exception — their source is gone and nobody is told.
type Completion interface {
	Complete(e Entry, latency time.Duration, err error)
}

type item struct {
	payload []byte
	done    Completion
	queued  time.Time
}

// Source is one client's bounded FIFO in front of the batch former.
type Source struct {
	ing *Ingest
	// slots holds one token per queued item: the queue bound, and what a
	// blocking Offer waits on.
	slots    chan struct{}
	queue    []item // guarded by ing.mu
	detached bool   // guarded by ing.mu
}

// Ingest is the decision log's one ingest stage: bounded per-source FIFO
// queues, a fair round-robin batch former (one payload per source per
// pass, so a firehose cannot starve a trickle), the cut rule, seq → batch
// tracking until commit, and the drain at Close. Both hosts run it in
// front of Engine.Append; they differ in the values they pass and in what
// their Completions do (DESIGN.md §7).
//
// Cut rule: a batch is cut when maxBatch payloads are queued, or linger
// after the free batcher first saw a payload queued (linger 0: at once),
// or when the gate has closed.
//
// Tracking rule: a batch is registered under its seq after Append returns
// and the sequencer is then re-checked for that seq, because the commit
// may have been reported in between; Commit and the re-check both claim
// the batch under mu, so whoever finds it completes it, once.
type Ingest struct {
	seq      Sequencer
	maxBatch int
	maxQueue int
	linger   time.Duration
	// newTimer arms the linger; a test substitutes a hand-fired one.
	newTimer func(time.Duration) (<-chan time.Time, func() bool)

	work chan struct{} // batcher kick (capacity 1)
	gate chan struct{} // closed with the gate: releases blocked offers
	done chan struct{} // closed when the batcher has exited

	mu       sync.Mutex
	order    []*Source // round-robin visit order
	rr       int
	queued   int
	inflight map[uint64][]item // seq → batch awaiting its commit
	settled  chan struct{}     // Close's wait: closed when inflight empties
	closed   bool
}

// NewIngest starts the ingest stage in front of seq: each source queues
// at most maxQueue payloads, a batch folds at most maxBatch of them.
func NewIngest(seq Sequencer, maxQueue, maxBatch int, linger time.Duration) *Ingest {
	ing := newIngest(seq, maxQueue, maxBatch, linger)
	go ing.run()
	return ing
}

func newIngest(seq Sequencer, maxQueue, maxBatch int, linger time.Duration) *Ingest {
	return &Ingest{
		seq:      seq,
		maxBatch: maxBatch,
		maxQueue: maxQueue,
		linger:   linger,
		newTimer: func(d time.Duration) (<-chan time.Time, func() bool) {
			t := time.NewTimer(d)
			return t.C, t.Stop
		},
		work:     make(chan struct{}, 1),
		gate:     make(chan struct{}),
		done:     make(chan struct{}),
		inflight: make(map[uint64][]item),
	}
}

// Attach registers a new source.
func (ing *Ingest) Attach() *Source {
	s := &Source{ing: ing, slots: make(chan struct{}, ing.maxQueue)}
	ing.mu.Lock()
	ing.order = append(ing.order, s)
	ing.mu.Unlock()
	return s
}

// Detach drops a departed source and abandons its unbatched payloads.
// Payloads already in a batch still complete.
func (s *Source) Detach() {
	ing := s.ing
	ing.mu.Lock()
	defer ing.mu.Unlock()
	for i, o := range ing.order {
		if o == s {
			ing.order = append(ing.order[:i], ing.order[i+1:]...)
			break
		}
	}
	s.drain()
	s.detached = true
}

// drain empties the source's queue and returns what was in it. Callers
// hold ing.mu.
func (s *Source) drain() []item {
	q := s.queue
	for range q {
		<-s.slots
	}
	s.ing.queued -= len(q)
	s.queue = nil
	return q
}

// Offer queues one payload without blocking: ErrClosed once the gate has
// closed, ErrFull when the source's queue is at its bound.
func (s *Source) Offer(payload []byte, done Completion) error {
	queued := time.Now()
	select {
	case s.slots <- struct{}{}:
		return s.enqueue(item{payload, done, queued})
	case <-s.ing.gate:
		return ErrClosed
	default:
		return ErrFull
	}
}

// OfferWait is Offer with backpressure: it blocks while the source's
// queue is full, until ctx ends or the gate closes.
func (s *Source) OfferWait(ctx context.Context, payload []byte, done Completion) error {
	queued := time.Now()
	select {
	case s.slots <- struct{}{}:
		return s.enqueue(item{payload, done, queued})
	case <-ctx.Done():
		return ctx.Err()
	case <-s.ing.gate:
		return ErrClosed
	}
}

// enqueue appends under the lock that closes the gate, so a payload is
// either refused or seen by the final drain.
func (s *Source) enqueue(it item) error {
	ing := s.ing
	ing.mu.Lock()
	if ing.closed || s.detached {
		ing.mu.Unlock()
		<-s.slots
		return ErrClosed
	}
	s.queue = append(s.queue, it)
	ing.queued++
	ing.mu.Unlock()
	ing.kick()
	return nil
}

func (ing *Ingest) kick() {
	select {
	case ing.work <- struct{}{}:
	default:
	}
}

// run is the batcher: the only loop that forms batches and appends them.
// It exits when the gate is closed and the queues are dry, or when the
// sequencer fails.
func (ing *Ingest) run() {
	defer close(ing.done)
	var (
		lingerC <-chan time.Time // armed while a partial batch waits
		stop    func() bool
		expired bool
	)
	for {
		select {
		case <-ing.seq.Failed():
			ing.fail(ing.seq.Err())
			return
		default:
		}
		batch, queued, closed := ing.cut(expired)
		if stop != nil && (batch != nil || queued == 0) {
			// The window is over (cut, or abandoned by Detach). Each window
			// gets a fresh timer: a late tick of this one has no reader, so
			// it cannot cut the next window short.
			stop()
			lingerC, stop, expired = nil, nil, false
		}
		if batch != nil {
			ing.ship(batch)
			continue
		}
		if closed {
			return
		}
		if queued > 0 && lingerC == nil {
			lingerC, stop = ing.newTimer(ing.linger)
		}
		select {
		case <-ing.work:
		case <-lingerC:
			expired = true
		case <-ing.seq.Failed():
		}
	}
}

// cut forms the next batch if the cut rule allows one: round-robin passes
// over the sources, one payload each, until maxBatch or every queue is dry.
func (ing *Ingest) cut(expired bool) (batch []item, queued int, closed bool) {
	ing.mu.Lock()
	defer ing.mu.Unlock()
	if ing.queued == 0 || ing.queued < ing.maxBatch && ing.linger > 0 && !expired && !ing.closed {
		return nil, ing.queued, ing.closed
	}
	batch = make([]item, 0, min(ing.queued, ing.maxBatch))
	for ing.queued > 0 && len(batch) < ing.maxBatch {
		for i := 0; i < len(ing.order) && len(batch) < ing.maxBatch; i++ {
			s := ing.order[ing.rr%len(ing.order)]
			ing.rr++
			if len(s.queue) == 0 {
				continue
			}
			batch = append(batch, s.queue[0])
			s.queue = s.queue[1:]
			ing.queued--
			<-s.slots
		}
	}
	return batch, ing.queued, ing.closed
}

// ship appends one batch and tracks it until its commit (the tracking
// rule above).
func (ing *Ingest) ship(batch []item) {
	payloads := make([][]byte, len(batch))
	for i, it := range batch {
		payloads[i] = it.payload
	}
	seq, err := ing.seq.Append(context.Background(), payloads)
	if err != nil {
		complete(batch, Entry{}, err)
		return
	}
	ing.mu.Lock()
	ing.inflight[seq] = batch
	ing.mu.Unlock()
	if e, ok := ing.seq.CommittedSeq(seq); ok {
		ing.Commit(e)
	}
}

// Commit completes the batch tracked under the committed entry's seq, if
// this ingest appended it. Hosts call it from the engine's OnCommit.
func (ing *Ingest) Commit(e Entry) {
	ing.mu.Lock()
	batch := ing.inflight[e.Seq]
	delete(ing.inflight, e.Seq)
	if len(ing.inflight) == 0 && ing.settled != nil {
		close(ing.settled)
		ing.settled = nil
	}
	ing.mu.Unlock()
	complete(batch, e, nil)
}

func complete(batch []item, e Entry, err error) {
	now := time.Now()
	for _, it := range batch {
		it.done.Complete(e, now.Sub(it.queued), err)
	}
}

// fail closes the gate and completes everything queued or in flight with
// err.
func (ing *Ingest) fail(err error) {
	ing.mu.Lock()
	ing.closeGate()
	var all []item
	for _, s := range ing.order {
		all = append(all, s.drain()...)
	}
	for seq, batch := range ing.inflight {
		all = append(all, batch...)
		delete(ing.inflight, seq)
	}
	ing.mu.Unlock()
	complete(all, Entry{}, err)
}

// closeGate refuses further offers. Callers hold ing.mu.
func (ing *Ingest) closeGate() {
	if !ing.closed {
		ing.closed = true
		close(ing.gate)
	}
}

// Close shuts the stage down in the no-lost-completion order: close the
// gate (offers get ErrClosed) → let the batcher drain the queues into
// final batches → wait for every in-flight batch's commit, until ctx ends
// or the sequencer fails → fail what is left. The host closes the
// sequencer afterwards.
func (ing *Ingest) Close(ctx context.Context) {
	ing.mu.Lock()
	ing.closeGate()
	ing.mu.Unlock()
	ing.kick()
	<-ing.done

	settled := make(chan struct{})
	ing.mu.Lock()
	if len(ing.inflight) == 0 {
		close(settled)
	} else {
		ing.settled = settled
	}
	ing.mu.Unlock()
	select {
	case <-settled:
		return
	case <-ctx.Done():
	case <-ing.seq.Failed():
	}
	err := ing.seq.Err()
	if err == nil {
		err = errUncommitted
	}
	ing.fail(err)
}
