package netrun

import (
	"net"
	"testing"
	"time"

	"github.com/fastba/fastba/internal/simnet"
)

// TestFetchCatchupSilentPeer: a peer that accepts and then never writes
// fails the fetch within the per-frame read deadline instead of blocking
// the caller forever (a stopped daemon's kernel still completes the
// handshake).
func TestFetchCatchupSilentPeer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		if conn, err := ln.Accept(); err == nil {
			accepted <- conn // held open, never written
		}
	}()
	done := make(chan error, 1)
	go func() {
		_, err := FetchCatchup(ln.Addr().String(), 0, 200*time.Millisecond)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("fetch from a silent peer succeeded")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("fetch from a silent peer still blocked after 5 s")
	}
	select {
	case conn := <-accepted:
		conn.Close()
	default:
	}
}

// TestCatchupConnsReleased: a served catch-up connection stops being
// tracked once its peer hangs up, so repeated repair fetches do not pile
// up connections for the cluster's whole life.
func TestCatchupConnsReleased(t *testing.T) {
	cluster, err := NewWithOptions([]simnet.Node{noopNode{}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	addr, err := cluster.ServeCatchup(func(from uint64, max int) [][]byte { return nil })
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if recs, err := FetchCatchup(addr, 0, 2*time.Second); err != nil || len(recs) != 0 {
			t.Fatalf("fetch %d: %d records, %v", i, len(recs), err)
		}
	}
	tracked := func() int {
		cluster.mu.Lock()
		defer cluster.mu.Unlock()
		return len(cluster.catchupConns)
	}
	deadline := time.Now().Add(5 * time.Second)
	for tracked() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d catch-up connections still tracked after their peers hung up", tracked())
		}
		time.Sleep(5 * time.Millisecond)
	}
}
