package fastba

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/fastba/fastba/internal/prng"
)

// The shared client loop, driven with fake append functions: no socket,
// no process, no log.

// oneSession dials every client onto the same append function.
func oneSession(app appendFunc) dialFunc {
	return func(context.Context, int) (appendFunc, func(), error) { return app, func() {}, nil }
}

// TestDriveLoadClassifiesOutcomes: each outcome is counted exactly once —
// ack (with its latency and sequence number), overload, lost, and a call
// cut short by the run's own context (run over, counted nowhere).
func TestDriveLoadClassifiesOutcomes(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	drive, stop := context.WithTimeout(ctx, time.Minute)
	defer stop()
	calls := 0
	app := func(ctx context.Context, _ []byte) (uint64, error) {
		calls++
		switch calls {
		case 1:
			return 5, nil
		case 2:
			return 0, fmt.Errorf("wrapped: %w", ErrOverload)
		case 3:
			return 0, errors.New("session lost")
		case 4:
			return 2, nil
		default:
			cancel() // the run ends under this call
			return 0, ctx.Err()
		}
	}
	got := driveLoad(ctx, drive, Workload{Clients: 1, Pipeline: 1, PayloadBytes: 8}, 1, 0, oneSession(app))
	if got.proposed != 5 || got.acked != 2 || got.overloads != 1 || got.lost != 1 {
		t.Fatalf("tally %+v, want 5 proposed, 2 acked, 1 overload, 1 lost", got)
	}
	if got.maxAckedSeq != 5 || len(got.latencies) != 2 {
		t.Fatalf("max acked seq %d with %d latencies, want 5 and 2", got.maxAckedSeq, len(got.latencies))
	}
}

// TestDriveLoadInFlightBound: Clients × Pipeline workers each keep one
// append in flight — the loop reaches that bound and never exceeds it.
func TestDriveLoadInFlightBound(t *testing.T) {
	const clients, pipeline = 3, 4
	drive, stop := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer stop()
	var inflight, peak atomic.Int64
	full := make(chan struct{})
	var fullOnce sync.Once
	app := func(ctx context.Context, _ []byte) (uint64, error) {
		n := inflight.Add(1)
		defer inflight.Add(-1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		if n == clients*pipeline {
			fullOnce.Do(func() { close(full) })
		}
		select { // hold every first call until all workers are in flight
		case <-full:
		case <-ctx.Done():
		case <-time.After(5 * time.Second):
		}
		time.Sleep(time.Millisecond)
		return 1, nil
	}
	got := driveLoad(context.Background(), drive, Workload{Clients: clients, Pipeline: pipeline, PayloadBytes: 8}, 1, 0, oneSession(app))
	if p := peak.Load(); p != clients*pipeline {
		t.Fatalf("peak in-flight appends %d, want exactly %d", p, clients*pipeline)
	}
	if got.acked == 0 || got.acked != got.proposed {
		t.Fatalf("tally %+v: every append should have acked", got)
	}
}

// TestDriveLoadCountsAcksAfterDrive: an append in flight when the drive
// phase ends is waited out, and its ack counts.
func TestDriveLoadCountsAcksAfterDrive(t *testing.T) {
	drive, stop := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer stop()
	app := func(context.Context, []byte) (uint64, error) {
		<-drive.Done()
		time.Sleep(20 * time.Millisecond) // the ack lands during the drain
		return 7, nil
	}
	got := driveLoad(context.Background(), drive, Workload{Clients: 2, Pipeline: 1, PayloadBytes: 8}, 1, 0, oneSession(app))
	if got.proposed != 2 || got.acked != 2 || got.lost != 0 || got.maxAckedSeq != 7 {
		t.Fatalf("tally %+v, want both in-flight appends acked after the drive phase", got)
	}
}

// TestDriveLoadPayloadStreams: worker k of client c on leg l draws from
// DeriveKey(seed, "load/client", l<<32|c<<16|k) — a pure function of the
// seed, so reproducible, and distinct per (leg, client, worker).
func TestDriveLoadPayloadStreams(t *testing.T) {
	const clients, pipeline, size = 2, 2, 16
	// firstPayloads runs the loop until every worker has issued exactly one
	// append and returns them keyed by client.
	firstPayloads := func(seed uint64, leg int) map[int][]string {
		drive, stop := context.WithCancel(context.Background())
		defer stop()
		var (
			mu  sync.Mutex
			got = map[int][]string{}
			n   int
		)
		all := make(chan struct{})
		dial := func(_ context.Context, c int) (appendFunc, func(), error) {
			return func(ctx context.Context, p []byte) (uint64, error) {
				mu.Lock()
				got[c] = append(got[c], string(p))
				n++
				if n == clients*pipeline {
					stop()
					close(all)
				}
				mu.Unlock()
				<-all
				return 0, nil
			}, func() {}, nil
		}
		driveLoad(context.Background(), drive, Workload{Clients: clients, Pipeline: pipeline, PayloadBytes: size}, seed, leg, dial)
		return got
	}
	want := func(seed uint64, leg, c, k int) string {
		src := prng.New(prng.DeriveKey(seed, "load/client", uint64(leg)<<32|uint64(c)<<16|uint64(k)))
		p := make([]byte, size)
		for i := range p {
			p[i] = byte(src.Uint64())
		}
		return string(p)
	}
	seen := map[string]string{}
	for _, seed := range []uint64{3, 4} {
		for _, leg := range []int{0, 1} {
			got := firstPayloads(seed, leg)
			for c := 0; c < clients; c++ {
				if len(got[c]) != pipeline {
					t.Fatalf("seed %d leg %d client %d issued %d appends, want %d", seed, leg, c, len(got[c]), pipeline)
				}
				for k := 0; k < pipeline; k++ {
					p := want(seed, leg, c, k)
					if got[c][0] != p && got[c][1] != p {
						t.Errorf("seed %d leg %d client %d: worker %d's stream missing", seed, leg, c, k)
					}
					id := fmt.Sprintf("seed %d leg %d client %d worker %d", seed, leg, c, k)
					if prev, dup := seen[p]; dup {
						t.Errorf("%s repeats the payload of %s", id, prev)
					}
					seen[p] = id
				}
			}
		}
	}
}
