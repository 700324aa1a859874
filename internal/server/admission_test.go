package server

import (
	"context"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/fastba/fastba/internal/metrics"
	"github.com/fastba/fastba/internal/pipeline"
)

// The admission contract at the wire: what a session's appends come back
// as. The queueing and batching behind it is internal/pipeline's Ingest
// and is tested there; these tests hold the codes and the acks.

// stubSeq sequences batches without a protocol: a seq commits when the
// test says so (or inside Append, with commitAtAppend).
type stubSeq struct {
	ing            *pipeline.Ingest
	appended       chan uint64 // every assigned seq, in order
	commitAtAppend bool

	mu        sync.Mutex
	next      uint64
	committed map[uint64]pipeline.Entry
}

func (s *stubSeq) Append(context.Context, [][]byte) (uint64, error) {
	s.mu.Lock()
	seq := s.next
	s.next++
	s.mu.Unlock()
	if s.commitAtAppend {
		s.commit(seq)
	}
	s.appended <- seq
	return seq, nil
}

func (s *stubSeq) commit(seq uint64) {
	e := pipeline.Entry{Seq: seq}
	s.mu.Lock()
	s.committed[seq] = e
	s.mu.Unlock()
	s.ing.Commit(e)
}

func (s *stubSeq) CommittedSeq(seq uint64) (pipeline.Entry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.committed[seq]
	return e, ok
}

func (s *stubSeq) Failed() <-chan struct{} { return nil }
func (s *stubSeq) Err() error              { return nil }

func stubIngest(t *testing.T, maxQueue, maxBatch int, linger time.Duration) (*pipeline.Ingest, *stubSeq) {
	// 8 seqs: more than any test here appends.
	s := &stubSeq{appended: make(chan uint64, 8), committed: make(map[uint64]pipeline.Entry)}
	s.ing = pipeline.NewIngest(s, maxQueue, maxBatch, linger)
	t.Cleanup(func() {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		s.ing.Close(ctx) // stops the batcher of a test that did not
	})
	return s.ing, s
}

// pipeSession is a session over an in-memory connection; acks receives
// every AppendAck the daemon side writes to it.
func pipeSession(t *testing.T, ing *pipeline.Ingest) (*session, <-chan AppendAck) {
	t.Helper()
	c1, c2 := net.Pipe()
	t.Cleanup(func() { c1.Close(); c2.Close() })
	latency := metrics.NewRegistry().Histogram("latency", "", metrics.LatencyBucketsSeconds())
	acks := make(chan AppendAck, 8)
	go func() {
		defer close(acks)
		for {
			msg, err := ReadClientMsg(c2)
			if err != nil {
				return
			}
			acks <- msg.(AppendAck)
		}
	}()
	return &session{conn: c1, src: ing.Attach(), latency: latency}, acks
}

func offer(s *session, req uint64) byte {
	if err := s.src.Offer([]byte(fmt.Sprint("payload-", req)), &pending{sess: s, req: req}); err != nil {
		return rejectCode(err)
	}
	return CodeOK
}

// TestAdmissionOverload: the per-session queue is bounded; the
// maxQueue+1'th append sheds with CodeOverload, and other sessions are
// unaffected.
func TestAdmissionOverload(t *testing.T) {
	ing, _ := stubIngest(t, 3, 16, time.Hour)
	s1, _ := pipeSession(t, ing)
	s2, _ := pipeSession(t, ing)
	for req := uint64(0); req < 3; req++ {
		if code := offer(s1, req); code != CodeOK {
			t.Fatalf("append %d: %s", req, CodeString(code))
		}
	}
	if code := offer(s1, 3); code != CodeOverload {
		t.Fatalf("over-limit append: %s, want overload", CodeString(code))
	}
	if code := offer(s2, 0); code != CodeOK {
		t.Fatalf("other session sheds too: %s", CodeString(code))
	}
}

// TestAdmissionRoundRobin: one instance acks a firehose session and a
// trickle session alike — CodeOK, the committed seq, each session's acks
// in its request order.
func TestAdmissionRoundRobin(t *testing.T) {
	ing, seq := stubIngest(t, 64, 4, time.Hour)
	seq.commitAtAppend = true
	hose, hoseAcks := pipeSession(t, ing)
	drip, dripAcks := pipeSession(t, ing)
	for req := uint64(0); req < 3; req++ {
		offer(hose, req)
	}
	offer(drip, 9) // the fourth payload: the batch is full and cut
	for want := uint64(0); want < 3; want++ {
		if ack := <-hoseAcks; ack.Req != want || ack.Code != CodeOK || ack.Seq != 0 {
			t.Fatalf("hose ack %+v, want req %d committed at seq 0", ack, want)
		}
	}
	if ack := <-dripAcks; ack.Req != 9 || ack.Code != CodeOK || ack.Seq != 0 {
		t.Fatalf("drip ack %+v, want req 9 committed at seq 0", ack)
	}
}

// TestAdmissionShutdownDrain: a closing gate answers new appends with
// CodeShutdown, still sequences what was queued, and — when the drain's
// context ends before the commit — acks the rest CodeFailed.
func TestAdmissionShutdownDrain(t *testing.T) {
	ing, seq := stubIngest(t, 8, 16, time.Hour)
	s, acks := pipeSession(t, ing)
	offer(s, 1)
	ctx, cancel := context.WithCancel(context.Background())
	closed := make(chan struct{})
	go func() {
		ing.Close(ctx)
		close(closed)
	}()
	<-seq.appended // the drain sequenced the queued append
	if code := offer(s, 2); code != CodeShutdown {
		t.Fatalf("append after close: %s, want shutdown", CodeString(code))
	}
	cancel()
	if ack := <-acks; ack.Req != 1 || ack.Code != CodeFailed {
		t.Fatalf("ack %+v, want req 1 failed", ack)
	}
	<-closed
}

// TestAdmissionDetachDropsQueue: a departed session's unbatched appends
// are abandoned without an ack; the others' commit is acked exactly once.
func TestAdmissionDetachDropsQueue(t *testing.T) {
	ing, seq := stubIngest(t, 8, 16, time.Hour)
	s1, acks1 := pipeSession(t, ing)
	s2, acks2 := pipeSession(t, ing)
	offer(s1, 1)
	offer(s2, 2)
	s1.src.Detach()
	closed := make(chan struct{})
	go func() {
		ing.Close(context.Background())
		close(closed)
	}()
	seq.commit(<-seq.appended)
	seq.commit(0)
	if ack := <-acks2; ack.Req != 2 || ack.Code != CodeOK {
		t.Fatalf("ack %+v, want req 2 ok", ack)
	}
	<-closed
	s1.conn.Close()
	s2.conn.Close()
	if ack, ok := <-acks1; ok {
		t.Fatalf("abandoned append acked: %+v", ack)
	}
	if ack, ok := <-acks2; ok {
		t.Fatalf("second ack for one append: %+v", ack)
	}
}
