package server

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"github.com/fastba/fastba/internal/netrun"
	"github.com/fastba/fastba/internal/store"
)

// reserveBases probes for daemons contiguous free port blocks of k+3
// ports each and returns the base addresses. The listeners are closed
// before returning, so a parallel process could steal a port — the probe
// retries across the ephemeral range to make that unlikely.
func reserveBases(t *testing.T, daemons, k int) []string {
	t.Helper()
	block := k + 3
	rnd := rand.New(rand.NewSource(time.Now().UnixNano()))
	for attempt := 0; attempt < 50; attempt++ {
		base := 21000 + rnd.Intn(30000)
		var lns []net.Listener
		ok := true
		for p := base; p < base+daemons*block; p++ {
			ln, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", p))
			if err != nil {
				ok = false
				break
			}
			lns = append(lns, ln)
		}
		for _, ln := range lns {
			ln.Close()
		}
		if ok {
			bases := make([]string, daemons)
			for d := range bases {
				bases[d] = fmt.Sprintf("127.0.0.1:%d", base+d*block)
			}
			return bases
		}
	}
	t.Fatal("no free port block found")
	return nil
}

// testCluster starts an in-process D-daemon cluster (daemon 0 leads) and
// returns the running daemons plus their store directories.
func testCluster(t *testing.T, daemons, k int) ([]*Daemon, []string, []string) {
	t.Helper()
	bases := reserveBases(t, daemons, k)
	dirs := make([]string, daemons)
	ds := make([]*Daemon, daemons)
	for i := range ds {
		dirs[i] = t.TempDir()
		d, err := New(testConfig(bases, dirs, i, k))
		if err != nil {
			t.Fatalf("daemon %d: %v", i, err)
		}
		ds[i] = d
	}
	for _, d := range ds {
		d.Start()
	}
	t.Cleanup(func() {
		for _, d := range ds {
			d.Kill() // no-op if already shut down
		}
	})
	return ds, dirs, bases
}

func testConfig(bases, dirs []string, i, k int) Config {
	return Config{
		ClusterAddrs:    bases,
		Daemon:          i,
		PerDaemon:       k,
		Seed:            42,
		Epoch:           1,
		StoreDir:        dirs[i],
		Depth:           2,
		BatchMax:        4,
		QueueMax:        32,
		SyncWindow:      time.Millisecond,
		JoinEvery:       100 * time.Millisecond,
		InstanceTimeout: 20 * time.Second,
		ReproposeAfter:  300 * time.Millisecond,
		// A dead peer's links give up fast, so its queued frames drop and
		// the restart tests exercise catch-up repair rather than riding the
		// redial queue.
		Reconnect:   netrun.ReconnectPolicy{Base: 5 * time.Millisecond, Cap: 50 * time.Millisecond, MaxAttempts: 2},
		RepairEvery: 50 * time.Millisecond,
		StallAfter:  200 * time.Millisecond,
	}
}

// appendAll submits n payloads on one client connection and waits for
// every ack, returning req → committed seq for the CodeOK ones.
func appendAll(t *testing.T, addr string, n int, tag string) map[uint64]uint64 {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(60 * time.Second))
	for i := 0; i < n; i++ {
		if err := WriteClientMsg(conn, Append{Req: uint64(i), Payload: []byte(fmt.Sprintf("%s-%d", tag, i))}); err != nil {
			t.Fatal(err)
		}
	}
	seqs := make(map[uint64]uint64, n)
	for len(seqs) < n {
		msg, err := ReadClientMsg(conn)
		if err != nil {
			t.Fatalf("after %d of %d acks: %v", len(seqs), n, err)
		}
		ack, ok := msg.(AppendAck)
		if !ok {
			t.Fatalf("unexpected reply %#v", msg)
		}
		if ack.Code != CodeOK {
			t.Fatalf("append %d: %s", ack.Req, CodeString(ack.Code))
		}
		seqs[ack.Req] = ack.Seq
	}
	return seqs
}

func waitFrontier(t *testing.T, d *Daemon, want uint64, within time.Duration) {
	t.Helper()
	deadline := time.Now().Add(within)
	for d.Frontier() < want {
		if time.Now().After(deadline) {
			t.Fatalf("daemon %d frontier %d, want ≥ %d (replica err: %v)",
				d.cfg.Daemon, d.Frontier(), want, d.Err())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// canonicalPrefix fetches a daemon's committed prefix through its
// catch-up listener and re-encodes it with the daemon-local observation
// fields (decider counts, timestamps) zeroed: what is left — seq, value,
// payloads, validity — is exactly what agreement promises to be
// byte-identical across daemons.
func canonicalPrefix(t *testing.T, catchupAddr string, n uint64) []string {
	t.Helper()
	enc, err := netrun.FetchCatchup(catchupAddr, 0, 2*time.Second)
	if err != nil {
		t.Fatalf("catch-up from %s: %v", catchupAddr, err)
	}
	if uint64(len(enc)) < n {
		t.Fatalf("catch-up from %s returned %d records, want ≥ %d", catchupAddr, len(enc), n)
	}
	out := make([]string, 0, n)
	for _, e := range enc[:n] {
		rec, err := store.DecodeRecord(e)
		if err != nil {
			t.Fatal(err)
		}
		rec.Deciders, rec.Correct, rec.DistinctValues, rec.CertDeficits = 0, 0, 0, 0
		rec.OpenedNs, rec.CommittedNs = 0, 0
		out = append(out, string(store.AppendRecord(nil, rec)))
	}
	return out
}

func checkAgreement(t *testing.T, ds []*Daemon, upTo uint64) {
	t.Helper()
	want := canonicalPrefix(t, ds[0].rep.CatchupAddr(), upTo)
	for _, d := range ds[1:] {
		got := canonicalPrefix(t, d.rep.CatchupAddr(), upTo)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("daemon %d record %d diverges from daemon 0", d.cfg.Daemon, i)
			}
		}
	}
}

// TestClusterCommitsAndConverges: a 4-daemon × 2-node cluster commits
// client appends over real sockets; every daemon converges to the same
// canonical committed prefix; the metrics and health endpoints serve.
func TestClusterCommitsAndConverges(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-daemon TCP cluster")
	}
	ds, _, _ := testCluster(t, 4, 2)

	seqs := appendAll(t, ds[0].ClientAddr(), 12, "conv")
	var top uint64
	for _, seq := range seqs {
		if seq >= top {
			top = seq + 1
		}
	}
	for _, d := range ds {
		waitFrontier(t, d, top, 30*time.Second)
	}
	checkAgreement(t, ds, top)

	// Status probe against a follower.
	conn, err := net.Dial("tcp", ds[2].ClientAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := WriteClientMsg(conn, Status{}); err != nil {
		t.Fatal(err)
	}
	msg, err := ReadClientMsg(conn)
	if err != nil {
		t.Fatal(err)
	}
	st, ok := msg.(StatusAck)
	if !ok || st.Node != 2 || st.Leader || st.Frontier < top {
		t.Fatalf("status = %#v", msg)
	}
	if st.PeersAlive < 4 {
		t.Errorf("peers alive = %d, want 4 (join loop)", st.PeersAlive)
	}

	// Metrics + health endpoints.
	body := httpGet(t, "http://"+ds[0].MetricsAddr()+"/metrics")
	for _, want := range []string{"fastba_commit_seq", "fastba_commits_total", "fastba_net_frames_sent_total", "fastba_peers_alive"} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
	if h := httpGet(t, "http://"+ds[0].MetricsAddr()+"/healthz"); !strings.Contains(h, "ok") {
		t.Errorf("/healthz = %q", h)
	}
}

func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// TestClusterKillRestart: killing one daemon (25% of the population,
// under the < 1/3 fail-silent bound) must not stop commits. The append
// stream keeps flowing across the kill and the restart, so the restarted
// daemon exercises both recovery paths: the WAL prefix plus startup
// catch-up for everything committed while it was dark, and the runtime
// repair loop for instances whose LogOpen broadcast it missed (open at
// restart time, committed just after its startup fetch). Everyone
// converges on the same canonical log.
func TestClusterKillRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-daemon TCP cluster")
	}
	ds, dirs, bases := testCluster(t, 4, 2)

	first := appendAll(t, ds[0].ClientAddr(), 8, "pre")
	var top uint64
	for _, seq := range first {
		if seq >= top {
			top = seq + 1
		}
	}
	waitFrontier(t, ds[3], top, 30*time.Second)
	preKill := ds[3].Frontier()

	ds[3].Kill()

	// Background stream: keeps the pipeline full while daemon 3 is dark
	// and while it restarts, so some LogOpen broadcasts are lost for good
	// and only catch-up repair can close those instances on daemon 3.
	stop := make(chan struct{})
	streamed := make(chan uint64, 1)
	go func() {
		var streamTop uint64
		defer func() { streamed <- streamTop }() // also on t.Fatal's Goexit
		round := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, seq := range appendAll(t, ds[0].ClientAddr(), 4, fmt.Sprintf("live-%d", round)) {
				if seq >= streamTop {
					streamTop = seq + 1
				}
			}
			round++
		}
	}()

	time.Sleep(300 * time.Millisecond) // commits accumulate with daemon 3 dark

	re, err := New(testConfig(bases, dirs, 3, 2))
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	// New performed the startup catch-up fetch; while the daemon is still
	// off the mesh, the stream commits (and retires) more instances. Those
	// are gone from the open set by the time the mesh joins — no broadcast
	// or reproposal will ever mention them again — so only the runtime
	// repair loop can close that gap. Hold Start until the leader is
	// demonstrably past the fetched prefix so the gap really exists.
	preFetch := re.rep.Frontier()
	for deadline := time.Now().Add(30 * time.Second); ds[0].Frontier() < preFetch+3; {
		if time.Now().After(deadline) {
			t.Fatalf("leader never advanced past the restart's fetched prefix %d", preFetch)
		}
		time.Sleep(10 * time.Millisecond)
	}
	re.Start()
	ds[3] = re
	t.Cleanup(re.Kill)
	if got := re.rep.Recovered(); got < int(preKill) {
		t.Errorf("restarted daemon recovered %d records, want ≥ the pre-kill frontier %d", got, preKill)
	}

	time.Sleep(500 * time.Millisecond) // stream spans the restart window
	close(stop)
	if st := <-streamed; st > top {
		top = st
	}

	for _, d := range ds {
		waitFrontier(t, d, top, 60*time.Second)
	}
	checkAgreement(t, ds, top)
	if re.rep.Repaired() == 0 {
		t.Error("restarted daemon repaired nothing through catch-up")
	}
	if re.rep.Recovered() <= int(preKill) {
		t.Errorf("startup catch-up transferred nothing: recovered %d, pre-kill frontier %d", re.rep.Recovered(), preKill)
	}
}

// TestShutdownNoLostAcks: a graceful shutdown racing a burst of appends
// must resolve every request exactly once, and every CodeOK ack must
// name a sequence that is durable in the WAL after the daemon exits —
// acked implies on disk.
func TestShutdownNoLostAcks(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-daemon TCP cluster")
	}
	ds, dirs, _ := testCluster(t, 4, 2)

	conn, err := net.Dial("tcp", ds[0].ClientAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(60 * time.Second))
	const burst = 24
	for i := 0; i < burst; i++ {
		if err := WriteClientMsg(conn, Append{Req: uint64(i), Payload: []byte(fmt.Sprintf("ack-%d", i))}); err != nil {
			t.Fatal(err)
		}
	}
	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 45*time.Second)
		defer cancel()
		shutdownDone <- ds[0].Shutdown(ctx)
	}()

	acked := make(map[uint64]byte, burst)
	okSeqs := make(map[uint64]string)
	for len(acked) < burst {
		msg, err := ReadClientMsg(conn)
		if err != nil {
			break // daemon closed the connection after the drain
		}
		ack, ok := msg.(AppendAck)
		if !ok {
			t.Fatalf("unexpected reply %#v", msg)
		}
		if _, dup := acked[ack.Req]; dup {
			t.Fatalf("request %d acked twice", ack.Req)
		}
		acked[ack.Req] = ack.Code
		if ack.Code == CodeOK {
			okSeqs[ack.Seq] = fmt.Sprintf("ack-%d", ack.Req)
		}
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if len(okSeqs) == 0 {
		t.Fatal("no append committed before the drain finished")
	}
	for req, code := range acked {
		if code != CodeOK && code != CodeShutdown {
			t.Errorf("request %d resolved with %s", req, CodeString(code))
		}
	}

	// Durability: every CodeOK-acked payload is in the closed WAL.
	st, err := store.Open(dirs[0], store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	recs := st.Records()
	for seq, payload := range okSeqs {
		if seq >= uint64(len(recs)) {
			t.Fatalf("acked seq %d beyond recovered frontier %d", seq, len(recs))
			continue
		}
		found := false
		for _, p := range recs[seq].Payloads {
			if string(p) == payload {
				found = true
			}
		}
		if !found {
			t.Errorf("acked payload %q missing from durable record %d", payload, seq)
		}
	}

	// The drained daemon no longer accepts connections.
	if c, err := net.DialTimeout("tcp", ds[0].ClientAddr(), 500*time.Millisecond); err == nil {
		c.Close()
		t.Error("shut-down daemon still accepting connections")
	}
}

// TestLeaderFirstShutdownDoesNotBlockFollowers: in a sequential shutdown
// the leader exits first, and a follower may still hold opens that only
// the leader could have carried to a commit. The follower abandons them to
// its WAL and to repair after the next start: every Shutdown returns nil,
// promptly, instead of waiting out the instance timeout on them.
func TestLeaderFirstShutdownDoesNotBlockFollowers(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-daemon TCP cluster")
	}
	ds, _, _ := testCluster(t, 4, 2)
	seqs := appendAll(t, ds[0].ClientAddr(), 4, "drain")
	var top uint64
	for _, seq := range seqs {
		if seq >= top {
			top = seq + 1
		}
	}
	for _, d := range ds {
		waitFrontier(t, d, top, 30*time.Second)
	}
	// An open no daemon but this follower ever hears of: its two nodes
	// cannot decide it alone, and the leader that would repropose it is
	// about to leave.
	for _, d := range ds[1:] {
		d.rep.Open(top+100, 0, [][]byte{[]byte("orphan")})
	}
	for i, d := range ds {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		start := time.Now()
		err := d.Shutdown(ctx)
		cancel()
		if err != nil {
			t.Errorf("daemon %d shutdown: %v", i, err)
		}
		if took := time.Since(start); took > 2*time.Second {
			t.Errorf("daemon %d shutdown took %v", i, took)
		}
	}
}
