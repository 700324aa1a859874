package server

import (
	"sync"
	"time"

	"github.com/fastba/fastba/internal/netrun"
	"github.com/fastba/fastba/internal/pipeline"
	"github.com/fastba/fastba/internal/simnet"
	"github.com/fastba/fastba/internal/store"
)

// Replica is the daemon's host adapter around the decision log's one
// commit engine (pipeline.Engine, embedded): sequencing, decisions,
// in-order commit, persist-before-surface and reproposal are the engine's.
// The replica adds what only a multi-process host has: this daemon's slice
// of the population on a partially hosted TCP mesh, LogOpen interception
// and broadcast, the stall scan that fetches committed records from peer
// daemons for the engine's Repair, and the fixed catch-up listener
// (DESIGN.md §7 has the table of what each host passes the engine).
type Replica struct {
	*pipeline.Engine
	cfg         Config
	cluster     *netrun.Cluster
	catchupAddr string
	peers       []string // the peer daemons' catch-up addresses

	done     chan struct{}
	scan     sync.WaitGroup
	teardown sync.Once
}

// newReplica builds the engine over this daemon's node slice and the
// partially hosted cluster around it, and binds the catch-up listener.
// The replica is inert until Start.
func newReplica(cfg Config, lay clusterLayout, st *store.Store, onCommit func(pipeline.Entry, bool)) (*Replica, error) {
	r := &Replica{cfg: cfg, peers: lay.peerCatchup(cfg.Daemon), done: make(chan struct{})}
	hosted := make([]bool, len(lay.nodeAddrs))
	for i := 0; i < cfg.PerDaemon; i++ {
		hosted[cfg.Daemon*cfg.PerDaemon+i] = true
	}
	mesh := netrun.Options{
		Hosted:    hosted,
		Addrs:     lay.nodeAddrs,
		Reconnect: cfg.Reconnect,
		Heartbeat: cfg.Heartbeat,
	}
	eng, err := pipeline.New(pipeline.Config{
		N:     len(lay.nodeAddrs),
		Seed:  cfg.Seed,
		Depth: cfg.Depth,
		// Every node is correct and learns the proposed batch digest: the
		// daemon's adversary is the network and the processes that die.
		KnowFrac: 1,
		// One certified local decision commits: it carries the poll quorum
		// certificate, and the randomized protocol only promises
		// almost-everywhere decisions — at small n a daemon waiting for all
		// of its nodes would stall on every per-node wedge. Repair covers a
		// daemon whose nodes all wedged.
		Need:            1,
		InstanceTimeout: cfg.InstanceTimeout,
		ReproposeAfter:  cfg.ReproposeAfter,
		Net:             mesh,
		Broadcast:       r.broadcastOpen,
		OnCommit:        onCommit,
		Store:           st,
	})
	if err != nil {
		return nil, err
	}
	r.Engine = eng

	// Hosted protocol nodes sit behind shims (LogOpen interception); the
	// fabric routes every send to a remote id through the TCP transport.
	nodes := append([]simnet.Node(nil), eng.Nodes()...)
	for id, node := range nodes {
		if mux, ok := node.(*pipeline.MuxNode); ok {
			nodes[id] = &shimNode{MuxNode: mux, eng: eng}
		}
	}
	if r.cluster, err = netrun.NewWithOptions(nodes, mesh); err != nil {
		return nil, err
	}
	if r.catchupAddr, err = r.cluster.ServeCatchupOn(lay.catchupAddrs[cfg.Daemon], eng.CatchupRecords); err != nil {
		r.cluster.Close()
		return nil, err
	}
	return r, nil
}

// shimNode is a hosted MuxNode that takes the daemon-level LogOpen
// broadcast out of the message stream and hands it to the engine.
type shimNode struct {
	*pipeline.MuxNode
	eng *pipeline.Engine
}

func (s *shimNode) Deliver(ctx simnet.Context, from simnet.NodeID, msg simnet.Message) {
	if lo, ok := msg.(simnet.LogOpen); ok {
		s.eng.Open(lo.Seq, lo.Attempt, lo.Payloads)
		return
	}
	s.MuxNode.Deliver(ctx, from, msg)
}

// Start launches the engine, the mesh and the stall scan.
func (r *Replica) Start() {
	r.Engine.Start(r.cluster.Inject)
	r.cluster.Start()
	r.scan.Add(1)
	go r.repairLoop()
}

// CatchupAddr returns the catch-up listener's bound address.
func (r *Replica) CatchupAddr() string { return r.catchupAddr }

// NetStats snapshots the mesh's supervision counters (safe mid-run).
func (r *Replica) NetStats() simnet.NetStats { return r.cluster.NetStats() }

// broadcastOpen is the engine's Broadcast hook: it ships the batch to one
// representative node per peer daemon. A dark peer's frames die in its
// supervised link (dropped-down), and the peer later closes the gap
// through the stall scan or a reproposal. Reproposals rotate the
// representative so a single bad link cannot eat every attempt.
func (r *Replica) broadcastOpen(seq uint64, attempt uint32, payloads [][]byte) {
	k := r.cfg.PerDaemon
	lo := simnet.LogOpen{Seq: seq, Attempt: attempt, Payloads: payloads}
	for d := range r.cfg.ClusterAddrs {
		if d != r.cfg.Daemon {
			r.cluster.Send(simnet.Envelope{From: r.cfg.Daemon * k, To: d*k + int(attempt)%k, Msg: lo})
		}
	}
}

// repairLoop watches the commit frontier: when it stalls past StallAfter
// — a restart gap, a missed broadcast, hosted nodes that all wedged — it
// fetches committed records from peer daemons and hands the contiguous
// run to the engine.
func (r *Replica) repairLoop() {
	defer r.scan.Done()
	if len(r.peers) == 0 {
		return
	}
	ticker := time.NewTicker(r.cfg.RepairEvery)
	defer ticker.Stop()
	lastSeen := r.Frontier()
	lastMove := time.Now()
	next := 0 // rotating peer cursor
	for {
		select {
		case <-r.done:
			return
		case <-ticker.C:
		}
		fr := r.Frontier()
		if fr != lastSeen {
			lastSeen, lastMove = fr, time.Now()
			continue
		}
		if time.Since(lastMove) < r.cfg.StallAfter {
			continue
		}
		for i := range r.peers {
			enc, err := netrun.FetchCatchup(r.peers[(next+i)%len(r.peers)], fr, 0)
			if err != nil {
				continue
			}
			// A gap or a corrupt record ends the run; the good prefix stays.
			run, _ := store.DecodeRun(fr, enc)
			if r.Repair(run) > 0 {
				next = (next + i + 1) % len(r.peers)
				lastMove = time.Now()
				break
			}
		}
	}
}

// Close drains the engine (the instances this daemon sequenced), stops the
// stall scan and tears the mesh down. The store stays open: the daemon
// closes it after the last ack has been flushed (the shutdown-ordering
// contract).
func (r *Replica) Close() error {
	err := r.Engine.Close()
	r.stop()
	return err
}

// Abort tears everything down immediately, abandoning open instances.
func (r *Replica) Abort() {
	r.Engine.Abort()
	r.stop()
}

func (r *Replica) stop() {
	r.teardown.Do(func() {
		close(r.done)
		r.scan.Wait()
		r.cluster.Close()
	})
}
