package main

// Layer micro-probes for the traced run. This is the only file of the
// benchmark that reaches into internal/*: each probe times one layer's
// primitive from outside, on inputs shaped like the n=24 rows', so a traced
// run can say what a single crossing of that layer costs.

import (
	"os"
	"time"

	"github.com/fastba/fastba/internal/bitstring"
	"github.com/fastba/fastba/internal/core"
	"github.com/fastba/fastba/internal/prng"
	"github.com/fastba/fastba/internal/sampler"
	"github.com/fastba/fastba/internal/simnet"
	"github.com/fastba/fastba/internal/store"
	"github.com/fastba/fastba/internal/wire"
)

// perOp times iters calls of fn five times over and returns the median
// nanoseconds per call.
func perOp(iters int, fn func(i int)) float64 {
	var runs []float64
	for r := 0; r < 5; r++ {
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			fn(i)
		}
		runs = append(runs, float64(time.Since(t0).Nanoseconds())/float64(iters))
	}
	return median(runs)
}

// layerProbes runs every micro-probe and returns its per-layer metrics.
func layerProbes(e *env) (map[string]float64, error) {
	out := map[string]float64{}

	// sampler: one quorum and one inverse query at the aer row's geometry.
	const samplerN = 256
	p := core.DefaultParams(samplerN)
	q := sampler.NewPermQuorum(samplerN, p.QuorumSize, p.SamplerSeed, "I")
	s := bitstring.Random(prng.New(1), p.StringBits)
	dst := make([]int, 0, p.QuorumSize)
	out["sampler.quorum_ns"] = perOp(200000, func(i int) { dst = q.QuorumAppend(dst[:0], s, i%samplerN) })
	out["sampler.inverse_ns"] = perOp(200000, func(i int) { q.Inverse(s, i%samplerN) })

	// wire: a push message carrying a string of the n=24 rows' size.
	msg := core.MsgPush{S: bitstring.Random(prng.New(2), core.DefaultParams(24).StringBits)}
	frame, err := wire.AppendFrame(nil, 3, 7, msg)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, 0, len(frame))
	out["wire.encode_ns"] = perOp(500000, func(int) { buf, _ = wire.AppendFrame(buf[:0], 3, 7, msg) })
	out["wire.decode_ns"] = perOp(500000, func(int) { wire.DecodeEnvelope(frame[4:]) })
	const batchMsgs = 12 // what the n=24 TCP row coalesces per frame
	frames := make([][]byte, batchMsgs)
	for i := range frames {
		frames[i] = frame
	}
	batch, err := wire.AppendBatchFrame(nil, frames)
	if err != nil {
		return nil, err
	}
	envs := make([]simnet.Envelope, 0, batchMsgs)
	out["wire.batch_decode_ns_per_msg"] = perOp(50000, func(int) {
		envs, _ = wire.DecodeBatchAppend(envs[:0], batch[4:], true)
	}) / batchMsgs

	// simnet: one envelope through a mailbox, put then drained.
	box := simnet.NewMailbox()
	env := simnet.Envelope{From: 3, To: 7, Msg: msg}
	out["simnet.mailbox_hop_ns"] = perOp(500000, func(int) {
		box.Put(env)
		b, _ := box.Drain()
		simnet.RecycleBatch(b)
	})

	// store: fsynced appends of a full n=24 batch on the scratch file
	// system and on the checkout's disk, then a replay of what was written.
	rec := store.Record{Value: msg.S, Deciders: 22, Correct: 22, DistinctValues: 1, MatchesProposal: true}
	for i := 0; i < 16; i++ {
		rec.Payloads = append(rec.Payloads, payloadFor(1, i, 0))
	}
	const appends = 256
	for _, target := range []struct{ metric, base string }{
		{"store.append_us", e.scratch},
		{"store.append_disk_us", e.buildDir()},
	} {
		dir, err := os.MkdirTemp(target.base, "probe-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		st, err := store.Open(dir, store.Options{SnapshotEvery: -1})
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		for i := 0; i < appends; i++ {
			rec.Seq = uint64(i)
			if err := st.Append(rec); err != nil {
				st.Close()
				return nil, err
			}
		}
		out[target.metric] = float64(time.Since(t0).Microseconds()) / appends
		if err := st.Close(); err != nil {
			return nil, err
		}
		if target.base != e.scratch {
			continue
		}
		out["store.replay_us_per_record"] = perOp(20, func(int) {
			if st, err := store.Open(dir, store.Options{SnapshotEvery: -1}); err == nil {
				st.Close()
			}
		}) / 1e3 / appends
	}
	return out, nil
}
