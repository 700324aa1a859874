package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"testing"

	"github.com/fastba/fastba/internal/bitstring"
	"github.com/fastba/fastba/internal/simnet"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files instead of comparing")

// aerOutcome is what one synchronous agreement is pinned to: who decided
// what and when, every message count but Fw1's, the number of (x, w) tuples
// the Fw1 messages stand for, the bits per node as upper bounds, and what
// each correct node sent in what order.
type aerOutcome struct {
	Case          string           `json:"case"`
	GString       string           `json:"gstring"`
	Decided       int              `json:"decided"`
	Rounds        int              `json:"rounds"`
	DecisionTimes []int            `json:"decisionTimes"`
	Messages      map[string]int64 `json:"messages"` // by kind, without fw1
	Fw1Tuples     int64            `json:"fw1Tuples"`
	// MeanBitsPerNode and MaxBitsPerNode are bounds: a run may send fewer
	// bits than recorded, never more.
	MeanBitsPerNode float64 `json:"meanBitsPerNode"`
	MaxBitsPerNode  int64   `json:"maxBitsPerNode"`
	// Sends holds one digest per correct node, in id order, of everything
	// it sent: destination, kind and payload of each send, in send order.
	// A node's sends follow the order its deliveries reached it, so a
	// runner that reorders deliveries moves them.
	Sends []string `json:"sends"`

	n    int
	seed uint64
	cfg  ScenarioConfig
}

// outcomeCases are the sync non-rushing runs the golden holds: n ∈ {8, 24,
// 64, 256}, seeds 1–6, on the bench's populations — a tenth fail-silent with
// 95 % or all of the correct nodes knowing the string, and no corruption at
// n = 8.
func outcomeCases() []aerOutcome {
	var cases []aerOutcome
	for _, n := range []int{8, 24, 64, 256} {
		corrupt := 0.1
		if n == 8 {
			corrupt = 0
		}
		for _, know := range []float64{0.95, 1} {
			for seed := uint64(1); seed <= 6; seed++ {
				cases = append(cases, aerOutcome{
					Case: fmt.Sprintf("n=%d/corrupt=%g/know=%g/seed=%d", n, corrupt, know, seed),
					n:    n, seed: seed,
					cfg: ScenarioConfig{CorruptFrac: corrupt, KnowFrac: know, SharedJunk: true, AdvBits: 1.0 / 3},
				})
			}
		}
	}
	return cases
}

// run executes the case on the sync non-rushing runner and fills in what
// the golden pins.
func (o aerOutcome) run(t *testing.T) aerOutcome {
	t.Helper()
	sc, err := NewScenario(DefaultParams(o.n), o.seed, o.cfg)
	if err != nil {
		t.Fatal(err)
	}
	nodes, correct := sc.Build(nil)
	var recs []*sendRecorder
	for id, nd := range correct {
		if nd != nil {
			rec := &sendRecorder{Node: nd, h: sha256.New()}
			nodes[id] = rec
			recs = append(recs, rec)
		}
	}
	m := simnet.NewSync(nodes, sc.Corrupt).Run(64)
	o.Sends = []string{}
	for _, rec := range recs {
		o.Sends = append(o.Sends, hex.EncodeToString(rec.h.Sum(nil)[:6]))
	}
	o.Fw1Tuples = fw1Tuples(correct)
	o.GString = hex.EncodeToString(sc.GString.Bytes())
	o.Decided = Evaluate(correct, sc.GString).Decided
	o.Rounds = m.Rounds
	o.DecisionTimes = []int{}
	for _, nd := range correct {
		if nd != nil && nd.DecidedAt() >= 0 {
			o.DecisionTimes = append(o.DecisionTimes, nd.DecidedAt())
		}
	}
	o.Messages = map[string]int64{}
	for kind, c := range m.ByKind {
		if kind != "fw1" {
			o.Messages[kind] = c
		}
	}
	o.MeanBitsPerNode = m.MeanSentBits()
	o.MaxBitsPerNode = m.MaxSentBits()
	return o
}

// sendRecorder wraps a node and digests every send it makes.
type sendRecorder struct {
	simnet.Node
	h   hash.Hash
	ctx recordingCtx
	buf []byte
}

type recordingCtx struct {
	simnet.Context
	rec *sendRecorder
}

func (c *recordingCtx) Send(to simnet.NodeID, m simnet.Message) {
	c.rec.buf = appendSend(c.rec.buf[:0], to, m)
	c.rec.h.Write(c.rec.buf)
	c.Context.Send(to, m)
}

func (r *sendRecorder) Init(ctx simnet.Context) {
	r.ctx = recordingCtx{Context: ctx, rec: r}
	r.Node.Init(&r.ctx)
}

func (r *sendRecorder) Deliver(ctx simnet.Context, from simnet.NodeID, m simnet.Message) {
	r.ctx.Context = ctx
	r.Node.Deliver(&r.ctx, from, m)
}

// appendSend appends the destination, the kind and the payload fields of
// one send: the requester x and label r where the message has them, and
// the string as its bit length and packed bytes.
func appendSend(b []byte, to int, m simnet.Message) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(to))
	b = append(b, m.Kind()...)
	var (
		x int
		s bitstring.String
		r uint64
	)
	switch msg := m.(type) {
	case MsgPush:
		s = msg.S
	case MsgPull:
		s, r = msg.S, msg.R
	case MsgPoll:
		s, r = msg.S, msg.R
	case MsgFw1:
		x, s, r = msg.X, msg.S, msg.R
	case MsgFw2:
		x, s, r = msg.X, msg.S, msg.R
	case MsgAnswer:
		s, r = msg.S, msg.R
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(x))
	b = binary.LittleEndian.AppendUint64(b, r)
	b = binary.LittleEndian.AppendUint16(b, uint16(s.Len()))
	return append(b, s.Bytes()...)
}

// TestAEROutcomesGolden pins the decisions of seeded synchronous agreements:
// each case must decide the same string at the same nodes in the same
// rounds, send the same number of every message and of Fw1 tuples, send no
// more bits per node than recorded, and have every correct node make the
// same sends in the same order. The send digests see delivery order, which
// the counts cannot: parallel round delivery must reproduce the serial
// order. Fw1's message count stays out of the counts so that a regrouping
// of the tuples reads as one moved field per case, beside the digests.
//
// Regenerate (only after an intentional change of outcomes) with:
//
//	go test ./internal/core/ -run TestAEROutcomesGolden -update
func TestAEROutcomesGolden(t *testing.T) {
	var got []aerOutcome
	for _, c := range outcomeCases() {
		got = append(got, c.run(t))
	}
	path := filepath.Join("testdata", "aer_outcomes_golden.json")
	if *updateGolden {
		// One case per line, so a diff names the cases that moved.
		raw := []byte("[\n")
		for i, o := range got {
			line, err := json.Marshal(o)
			if err != nil {
				t.Fatal(err)
			}
			if raw = append(raw, line...); i < len(got)-1 {
				raw = append(raw, ',')
			}
			raw = append(raw, '\n')
		}
		raw = append(raw, "]\n"...)
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want []aerOutcome
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden holds %d cases, the test runs %d (run with -update after an intentional change)", len(want), len(got))
	}
	for i, g := range got {
		w := want[i]
		if g.MeanBitsPerNode > w.MeanBitsPerNode || g.MaxBitsPerNode > w.MaxBitsPerNode {
			t.Errorf("%s: bits per node mean %.0f max %d exceed the recorded %.0f / %d",
				g.Case, g.MeanBitsPerNode, g.MaxBitsPerNode, w.MeanBitsPerNode, w.MaxBitsPerNode)
		}
		g.MeanBitsPerNode, g.MaxBitsPerNode = w.MeanBitsPerNode, w.MaxBitsPerNode
		gj, _ := json.Marshal(g)
		wj, _ := json.Marshal(w)
		if !bytes.Equal(gj, wj) {
			t.Errorf("outcome diverged from %s:\n got %s\nwant %s", path, gj, wj)
		}
	}
}
