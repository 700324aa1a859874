package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"github.com/fastba/fastba/internal/metrics"
	"github.com/fastba/fastba/internal/netrun"
	"github.com/fastba/fastba/internal/pipeline"
	"github.com/fastba/fastba/internal/store"
)

// Config shapes one balogd daemon.
type Config struct {
	// ClusterAddrs are the daemons' base addresses ("host:port"), one per
	// daemon, identical on every daemon. Each daemon owns the port block
	// [port, port+k+2]: ports port..port+k-1 are its k node-mesh
	// listeners, port+k the catch-up listener, port+k+1 the client/admin
	// listener, port+k+2 the metrics HTTP endpoint.
	ClusterAddrs []string
	// Daemon is this process's index into ClusterAddrs. Daemon 0 leads:
	// it sequences client appends.
	Daemon int
	// PerDaemon is k, the protocol nodes each daemon hosts (default 4;
	// the population n = len(ClusterAddrs)·k must be ≥ 8).
	PerDaemon int
	// Seed keys the cluster's shared derivations; identical everywhere.
	Seed uint64
	// Epoch is the starting configuration epoch.
	Epoch uint64
	// StoreDir is this daemon's WAL directory.
	StoreDir string
	// Depth bounds concurrently open instances (default 4); BatchMax the
	// payloads folded into one instance (default 16); QueueMax each client
	// session's admission queue (default 64).
	Depth    int
	BatchMax int
	QueueMax int
	// InstanceTimeout fails the leader on a stuck head instance
	// (default 30s); ReproposeAfter re-runs a stalled head instance with a
	// bumped attempt well before that (default 2s). Followers never fail on
	// a stall — they repair from peers instead.
	InstanceTimeout time.Duration
	ReproposeAfter  time.Duration
	// SyncWindow is the WAL group-commit window (default 2ms).
	SyncWindow time.Duration
	// JoinEvery is the membership handshake period (default 1s); it also
	// paces the liveness TTL (3×JoinEvery).
	JoinEvery time.Duration
	// Reconnect and Heartbeat tune the mesh's link supervision (zero
	// values: netrun defaults). They bound how long a dead peer's queued
	// frames survive — past the redial budget the frames drop and the
	// peer recovers through catch-up repair instead.
	Reconnect netrun.ReconnectPolicy
	Heartbeat netrun.HeartbeatPolicy
	// RepairEvery paces the catch-up repair scan (default 250ms);
	// StallAfter is the no-progress window that triggers a repair fetch
	// (default 1s).
	RepairEvery time.Duration
	StallAfter  time.Duration
	// Registry receives the daemon's metrics (nil: a private registry).
	Registry *metrics.Registry
	// Logf, when non-nil, receives the status ticker and lifecycle lines.
	Logf func(format string, args ...any)
}

func (cfg *Config) withDefaults() error {
	if len(cfg.ClusterAddrs) == 0 {
		return fmt.Errorf("server: no cluster addresses")
	}
	if cfg.Daemon < 0 || cfg.Daemon >= len(cfg.ClusterAddrs) {
		return fmt.Errorf("server: daemon index %d outside cluster of %d", cfg.Daemon, len(cfg.ClusterAddrs))
	}
	if cfg.StoreDir == "" {
		return fmt.Errorf("server: no store directory")
	}
	if cfg.PerDaemon <= 0 {
		cfg.PerDaemon = 4
	}
	if cfg.Depth <= 0 {
		cfg.Depth = 4
	}
	if cfg.BatchMax <= 0 {
		cfg.BatchMax = 16
	}
	if cfg.QueueMax <= 0 {
		cfg.QueueMax = 64
	}
	if cfg.SyncWindow <= 0 {
		cfg.SyncWindow = 2 * time.Millisecond
	}
	if cfg.JoinEvery <= 0 {
		cfg.JoinEvery = time.Second
	}
	if cfg.RepairEvery <= 0 {
		cfg.RepairEvery = 250 * time.Millisecond
	}
	if cfg.StallAfter <= 0 {
		cfg.StallAfter = time.Second
	}
	if cfg.Registry == nil {
		cfg.Registry = metrics.NewRegistry()
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	return nil
}

// clusterLayout derives every listener address of every daemon from the
// base addresses (see Config.ClusterAddrs).
type clusterLayout struct {
	nodeAddrs    []string // n entries
	catchupAddrs []string // one per daemon
	clientAddrs  []string
	metricsAddrs []string
}

func layoutCluster(bases []string, k int) (clusterLayout, error) {
	var lay clusterLayout
	for _, base := range bases {
		host, portStr, err := net.SplitHostPort(base)
		if err != nil {
			return lay, fmt.Errorf("server: cluster address %q: %w", base, err)
		}
		port, err := strconv.Atoi(portStr)
		if err != nil || port <= 0 || port+k+2 > 65535 {
			return lay, fmt.Errorf("server: cluster address %q: port block [%s, %s+%d] unusable", base, portStr, portStr, k+2)
		}
		for i := 0; i < k; i++ {
			lay.nodeAddrs = append(lay.nodeAddrs, net.JoinHostPort(host, strconv.Itoa(port+i)))
		}
		lay.catchupAddrs = append(lay.catchupAddrs, net.JoinHostPort(host, strconv.Itoa(port+k)))
		lay.clientAddrs = append(lay.clientAddrs, net.JoinHostPort(host, strconv.Itoa(port+k+1)))
		lay.metricsAddrs = append(lay.metricsAddrs, net.JoinHostPort(host, strconv.Itoa(port+k+2)))
	}
	return lay, nil
}

// peerCatchup lists every daemon's catch-up address but self's.
func (lay clusterLayout) peerCatchup(self int) []string {
	var peers []string
	for d, addr := range lay.catchupAddrs {
		if d != self {
			peers = append(peers, addr)
		}
	}
	return peers
}

// session is one client connection: its admission queue (a source of the
// ingest stage) and a write lock serializing ack frames (the commit path
// and the read loop both write to the connection).
type session struct {
	conn    net.Conn
	wmu     sync.Mutex
	src     *pipeline.Source
	latency *metrics.Histogram
}

// write sends one frame to the client, serialized against concurrent
// ack writers. The deadline bounds how long a wedged client can stall
// the commit observer. Errors are the connection's problem: the client
// is gone and the commit it missed is recoverable through Status.
func (s *session) write(msg any) error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	_ = s.conn.SetWriteDeadline(time.Now().Add(10 * time.Second))
	return WriteClientMsg(s.conn, msg)
}

// pending is one admitted client append; the ingest stage completes it
// with the commit, or with the error that ended it, and the ack goes out.
type pending struct {
	sess *session
	req  uint64
}

func (p *pending) Complete(e pipeline.Entry, latency time.Duration, err error) {
	if err != nil {
		_ = p.sess.write(AppendAck{Req: p.req, Code: rejectCode(err)})
		return
	}
	p.sess.latency.Observe(latency.Seconds())
	_ = p.sess.write(AppendAck{Req: p.req, Code: CodeOK, Seq: e.Seq, LatencyNs: int64(latency)})
}

// rejectCode maps an ingest error to the wire: the session's queue is
// full, the daemon is draining, or the replica failed.
func rejectCode(err error) byte {
	switch {
	case errors.Is(err, pipeline.ErrFull):
		return CodeOverload
	case errors.Is(err, pipeline.ErrClosed), errors.Is(err, context.Canceled):
		return CodeShutdown
	default:
		return CodeFailed
	}
}

// Daemon is one running balogd process: a replica (the commit engine over
// k protocol nodes + WAL + repair), the client/admin listener with
// admission control (the ingest stage: bounded per-session queues, fair
// batches), the membership join loop, the metrics endpoint and the status
// ticker.
type Daemon struct {
	cfg  Config
	lay  clusterLayout
	logf func(string, ...any)

	st  *store.Store
	rep *Replica
	ing *pipeline.Ingest
	mem *membership

	leader   bool
	clientLn net.Listener
	httpLn   net.Listener
	httpSrv  *http.Server

	reg        *metrics.Registry
	ctrAppends *metrics.Counter
	ctrShed    *metrics.Counter
	ctrCommits *metrics.Counter
	ctrRepair  *metrics.Counter
	gCommit    *metrics.Gauge
	gEpoch     *metrics.Gauge
	hLatency   *metrics.Histogram

	connMu sync.Mutex
	conns  map[net.Conn]struct{}

	done chan struct{}
	wg   sync.WaitGroup

	closeOnce   sync.Once
	shutdownErr error
}

// New assembles a daemon: opens (and, when peers are up, catches up) the
// WAL, builds the partially hosted replica and binds the client and
// metrics listeners. The daemon is inert until Start.
func New(cfg Config) (*Daemon, error) {
	if err := cfg.withDefaults(); err != nil {
		return nil, err
	}
	lay, err := layoutCluster(cfg.ClusterAddrs, cfg.PerDaemon)
	if err != nil {
		return nil, err
	}
	d := &Daemon{
		cfg:    cfg,
		lay:    lay,
		logf:   cfg.Logf,
		leader: cfg.Daemon == 0,
		reg:    cfg.Registry,
		mem:    newMembership(cfg.Daemon, len(cfg.ClusterAddrs), cfg.Epoch, 3*cfg.JoinEvery),
		conns:  make(map[net.Conn]struct{}),
		done:   make(chan struct{}),
	}

	st, err := store.Open(cfg.StoreDir, store.Options{SyncWindow: cfg.SyncWindow})
	if err != nil {
		return nil, err
	}
	d.st = st

	// Startup catch-up: close as much of the committed gap as any live
	// peer can serve before joining the mesh. Best-effort — at cluster
	// boot no peer is up yet, and the replica's stall scan covers
	// whatever is still missing once traffic flows.
	d.catchUpFromPeers(lay.peerCatchup(cfg.Daemon))

	rep, err := newReplica(cfg, lay, st, d.onCommit)
	if err != nil {
		st.Close()
		return nil, err
	}
	d.rep = rep

	d.clientLn, err = net.Listen("tcp", lay.clientAddrs[cfg.Daemon])
	if err == nil {
		d.httpLn, err = net.Listen("tcp", lay.metricsAddrs[cfg.Daemon])
	}
	if err != nil {
		if d.clientLn != nil {
			d.clientLn.Close()
		}
		rep.Abort()
		st.Close()
		return nil, err
	}

	d.registerMetrics()
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = d.reg.WritePrometheus(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		if err := d.rep.Err(); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		fmt.Fprintln(w, "ok")
	})
	d.httpSrv = &http.Server{Handler: mux}
	// Linger 0: a batch is whatever is queued when the batcher is free.
	d.ing = pipeline.NewIngest(rep.Engine, cfg.QueueMax, cfg.BatchMax, 0)
	return d, nil
}

// catchUpFromPeers ingests committed records past our frontier from the
// first peer that serves them.
func (d *Daemon) catchUpFromPeers(peers []string) {
	for _, peer := range peers {
		enc, err := netrun.FetchCatchup(peer, d.st.Frontier(), time.Second)
		if err != nil {
			continue
		}
		// A gap or a corrupt record ends the run; the good prefix stays.
		recs, _ := store.DecodeRun(d.st.Frontier(), enc)
		if len(recs) == 0 {
			continue
		}
		if err := d.st.AppendBatch(recs); err == nil {
			d.logf("balogd[%d]: caught up %d records from %s (frontier now %d)",
				d.cfg.Daemon, len(recs), peer, d.st.Frontier())
			return
		}
	}
}

func (d *Daemon) registerMetrics() {
	label := []string{"daemon", strconv.Itoa(d.cfg.Daemon)}
	d.ctrAppends = d.reg.Counter("fastba_appends_total", "Client append requests admitted.", label...)
	d.ctrShed = d.reg.Counter("fastba_overload_shed_total", "Client append requests shed by admission control.", label...)
	d.ctrCommits = d.reg.Counter("fastba_commits_total", "Instances committed by this daemon.", label...)
	d.ctrRepair = d.reg.Counter("fastba_repaired_total", "Instances committed through peer catch-up repair.", label...)
	d.gCommit = d.reg.Gauge("fastba_commit_seq", "The daemon's committed frontier.", label...)
	d.gEpoch = d.reg.Gauge("fastba_membership_epoch", "The configuration epoch of the peer set.", label...)
	d.hLatency = d.reg.Histogram("fastba_commit_latency_seconds", "Client-observed commit latency.", metrics.LatencyBucketsSeconds(), label...)
	d.reg.GaugeFunc("fastba_peers_alive", "Peer daemons answering membership handshakes.", func() float64 {
		return float64(d.mem.Alive())
	}, label...)
	d.reg.GaugeFunc("fastba_sessions", "Open client sessions.", func() float64 {
		return float64(d.sessionCount())
	}, label...)
	d.reg.GaugeFunc("fastba_reproposals", "Stalled head instances re-opened with a bumped attempt.", func() float64 {
		return float64(d.rep.Reproposed())
	}, label...)
	metrics.RegisterNetStats(d.reg, d.rep.NetStats, label...)
	d.gCommit.Set(float64(d.rep.Frontier()))
	d.gEpoch.Set(float64(d.mem.Epoch()))
}

// Start launches the replica and every daemon loop.
func (d *Daemon) Start() {
	d.rep.Start()
	d.wg.Add(4)
	go d.acceptLoop()
	go d.joinLoop()
	go d.statusLoop()
	go func() {
		defer d.wg.Done()
		_ = d.httpSrv.Serve(d.httpLn)
	}()
	d.logf("balogd[%d]: up — client %s metrics http://%s/metrics leader=%v epoch=%d frontier=%d",
		d.cfg.Daemon, d.ClientAddr(), d.MetricsAddr(), d.leader, d.mem.Epoch(), d.rep.Frontier())
}

// ClientAddr returns the bound client/admin address; MetricsAddr the
// bound metrics HTTP address; LeaderAddr the leader's client address.
func (d *Daemon) ClientAddr() string  { return d.clientLn.Addr().String() }
func (d *Daemon) MetricsAddr() string { return d.httpLn.Addr().String() }
func (d *Daemon) LeaderAddr() string  { return d.lay.clientAddrs[0] }

// Frontier returns the committed frontier; Err the replica's fatal
// error, if any.
func (d *Daemon) Frontier() uint64 { return d.rep.Frontier() }
func (d *Daemon) Err() error       { return d.rep.Err() }

// Failed closes when the replica can no longer make progress (instance
// timeout, store failure). The process should exit nonzero so a
// supervisor restarts it.
func (d *Daemon) Failed() <-chan struct{} { return d.rep.Failed() }

// onCommit is the replica's commit observer: it updates the metrics and
// has the ingest stage ack every client append folded into the instance.
func (d *Daemon) onCommit(e pipeline.Entry, repaired bool) {
	d.ctrCommits.Inc()
	d.gCommit.Set(float64(e.Seq + 1))
	if repaired {
		d.ctrRepair.Inc()
	}
	d.ing.Commit(e)
}

// acceptLoop admits client connections.
func (d *Daemon) acceptLoop() {
	defer d.wg.Done()
	for {
		conn, err := d.clientLn.Accept()
		if err != nil {
			return
		}
		d.connMu.Lock()
		d.conns[conn] = struct{}{}
		d.connMu.Unlock()
		d.wg.Add(1)
		go d.handleConn(conn)
	}
}

func (d *Daemon) dropConn(conn net.Conn) {
	d.connMu.Lock()
	delete(d.conns, conn)
	d.connMu.Unlock()
	conn.Close()
}

// sessionCount reports open client sessions.
func (d *Daemon) sessionCount() int {
	d.connMu.Lock()
	defer d.connMu.Unlock()
	return len(d.conns)
}

func (d *Daemon) closeConns() {
	d.connMu.Lock()
	for conn := range d.conns {
		conn.Close()
	}
	d.connMu.Unlock()
}

// handleConn serves one client session.
func (d *Daemon) handleConn(conn net.Conn) {
	defer d.wg.Done()
	defer d.dropConn(conn)
	sess := &session{conn: conn, src: d.ing.Attach(), latency: d.hLatency}
	defer sess.src.Detach()
	for {
		msg, err := ReadClientMsg(conn)
		if err != nil {
			return
		}
		switch m := msg.(type) {
		case Hello:
			err = sess.write(HelloAck{
				Node:       uint32(d.cfg.Daemon),
				Epoch:      d.mem.Epoch(),
				Leader:     d.leader,
				LeaderAddr: d.LeaderAddr(),
				Frontier:   d.rep.Frontier(),
			})
		case Append:
			if !d.leader {
				err = sess.write(AppendAck{Req: m.Req, Code: CodeNotLeader})
				break
			}
			// Queued: the ack follows at commit. Refused: it goes out now.
			if oerr := sess.src.Offer(m.Payload, &pending{sess: sess, req: m.Req}); oerr == nil {
				d.ctrAppends.Inc()
			} else {
				code := rejectCode(oerr)
				if code == CodeOverload {
					d.ctrShed.Inc()
				}
				err = sess.write(AppendAck{Req: m.Req, Code: code})
			}
		case Status:
			err = sess.write(StatusAck{
				Node:       uint32(d.cfg.Daemon),
				Epoch:      d.mem.Epoch(),
				Leader:     d.leader,
				Frontier:   d.rep.Frontier(),
				Recovered:  uint64(d.rep.Recovered()),
				Repaired:   uint64(d.rep.Repaired()),
				PeersAlive: uint32(d.mem.Alive()),
				Sessions:   uint32(d.sessionCount()),
			})
		case Join:
			ack := d.mem.HandleJoin(m.Epoch, m.Node)
			d.gEpoch.Set(float64(ack.Epoch))
			err = sess.write(ack)
		case Leave:
			err = sess.write(d.mem.HandleLeave(m.Epoch, m.Node))
		default:
			return
		}
		if err != nil {
			return
		}
	}
}

// joinLoop runs the periodic membership handshake against every peer.
func (d *Daemon) joinLoop() {
	defer d.wg.Done()
	d.joinPeersOnce()
	ticker := time.NewTicker(d.cfg.JoinEvery)
	defer ticker.Stop()
	for {
		select {
		case <-d.done:
			return
		case <-ticker.C:
			d.joinPeersOnce()
		}
	}
}

func (d *Daemon) joinPeersOnce() {
	for peer, addr := range d.lay.clientAddrs {
		if peer == d.cfg.Daemon {
			continue
		}
		ack, err := d.handshake(addr, Join{Epoch: d.mem.Epoch(), Node: uint32(d.cfg.Daemon)})
		if err != nil {
			continue
		}
		if ja, ok := ack.(JoinAck); ok && (ja.Code == CodeOK || ja.Code == CodeStaleEpoch) {
			d.mem.Observe(peer, ja.Epoch)
			d.gEpoch.Set(float64(d.mem.Epoch()))
		}
	}
}

// handshake performs one one-shot request/response exchange with a peer's
// client listener.
func (d *Daemon) handshake(addr string, req any) (any, error) {
	conn, err := net.DialTimeout("tcp", addr, d.cfg.JoinEvery)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(2 * d.cfg.JoinEvery))
	if err := WriteClientMsg(conn, req); err != nil {
		return nil, err
	}
	return ReadClientMsg(conn)
}

// statusLoop is the 1s progress ticker: committed watermark, TPS since
// the last tick, membership view.
func (d *Daemon) statusLoop() {
	defer d.wg.Done()
	ticker := time.NewTicker(time.Second)
	defer ticker.Stop()
	last := d.rep.Frontier()
	for {
		select {
		case <-d.done:
			return
		case <-ticker.C:
			fr := d.rep.Frontier()
			d.logf("balogd[%d]: commit=%d tps=%d epoch=%d peers=%d sessions=%d shed=%d repaired=%d",
				d.cfg.Daemon, fr, fr-last, d.mem.Epoch(), d.mem.Alive(),
				d.sessionCount(), d.ctrShed.Value(), d.rep.Repaired())
			last = fr
		}
	}
}

// Shutdown drains the daemon gracefully, in the no-lost-acks order:
// the ingest stage's Close (stop admitting — new appends get CodeShutdown
// → drain the queues → wait until every inflight instance's commit acks
// are written, or ctx ends and the rest get CodeFailed) → close client
// connections → tear the replica down → close the WAL last (its close
// performs the final group-commit flush, so anything acked is on disk
// before the process exits).
func (d *Daemon) Shutdown(ctx context.Context) error {
	d.closeOnce.Do(func() {
		d.logf("balogd[%d]: shutting down", d.cfg.Daemon)
		d.broadcastLeave()
		close(d.done)
		d.clientLn.Close()
		d.ing.Close(ctx)
		d.closeConns()
		repErr := d.rep.Close()
		if errors.Is(repErr, context.Canceled) {
			repErr = nil
		}
		d.httpSrv.Close()
		stErr := d.st.Close()
		d.wg.Wait()
		d.shutdownErr = errors.Join(repErr, stErr)
		d.logf("balogd[%d]: down (frontier %d)", d.cfg.Daemon, d.st.Frontier())
	})
	return d.shutdownErr
}

// broadcastLeave sends the advisory departure note to every peer.
func (d *Daemon) broadcastLeave() {
	for peer, addr := range d.lay.clientAddrs {
		if peer == d.cfg.Daemon {
			continue
		}
		_, _ = d.handshake(addr, Leave{Epoch: d.mem.Epoch(), Node: uint32(d.cfg.Daemon)})
	}
}

// Kill tears the daemon down abruptly — no drain, no final WAL flush
// beyond what group commit already made durable. It models a crash for
// restart tests (the in-process analogue of SIGKILL).
func (d *Daemon) Kill() {
	d.closeOnce.Do(func() {
		close(d.done)
		d.clientLn.Close()
		d.closeConns()
		d.rep.Abort()
		d.httpSrv.Close()
		d.st.Crash()
		d.ing.Close(context.Background()) // returns at once: the abort failed everything
		d.wg.Wait()
		d.shutdownErr = fmt.Errorf("server: killed")
	})
}
