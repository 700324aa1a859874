package core

import (
	"fmt"
	"slices"
	"testing"

	"github.com/fastba/fastba/internal/bitstring"
	"github.com/fastba/fastba/internal/intern"
	"github.com/fastba/fastba/internal/prng"
	"github.com/fastba/fastba/internal/simnet"
)

// directSamplers re-derives I, H and J straight from Perm.Apply/Perm.Invert:
// the reference the memo is held to. It spells out the sampler construction
// (key tags, per-string permutation keys, label reduction) independently of
// internal/sampler, so it also pins that construction: a change to any key
// moves every quorum and fails the equivalence tests.
type directSamplers struct {
	p Params
}

func (d directSamplers) quorumPerm(tag string, s bitstring.String, j int) *prng.Perm {
	seed := prng.DeriveKey(d.p.SamplerSeed, "sampler/"+tag, 0)
	return prng.NewPerm(d.p.N, prng.Hash3(seed, s.Hash64(), uint64(j)))
}

func (d directSamplers) inRange(ids ...int) bool {
	for _, id := range ids {
		if id < 0 || id >= d.p.N {
			return false
		}
	}
	return true
}

// inQuorum reports y ∈ Quorum_tag(s, x) by d forward applications.
func (d directSamplers) inQuorum(tag string, s bitstring.String, x, y int) bool {
	if !d.inRange(x, y) {
		return false
	}
	for j := 0; j < d.p.QuorumSize; j++ {
		if d.quorumPerm(tag, s, j).Apply(x) == y {
			return true
		}
	}
	return false
}

// inQuorumByInverse answers the same question by d inversions of y.
func (d directSamplers) inQuorumByInverse(tag string, s bitstring.String, x, y int) bool {
	if !d.inRange(x, y) {
		return false
	}
	for j := 0; j < d.p.QuorumSize; j++ {
		if d.quorumPerm(tag, s, j).Invert(y) == x {
			return true
		}
	}
	return false
}

// quorumSize returns |distinct Quorum_tag(s, x)|.
func (d directSamplers) quorumSize(tag string, s bitstring.String, x int) int {
	seen := map[int]bool{}
	for j := 0; j < d.p.QuorumSize; j++ {
		seen[d.quorumPerm(tag, s, j).Apply(x)] = true
	}
	return len(seen)
}

// quorumOrder returns the distinct members of Quorum_tag(s, x) in sampling
// order.
func (d directSamplers) quorumOrder(tag string, s bitstring.String, x int) []int32 {
	var order []int32
	for j := 0; j < d.p.QuorumSize; j++ {
		order = appendDistinct(order, d.quorumPerm(tag, s, j).Apply(x))
	}
	return order
}

// pollOrder returns J(x, r) in sampling order.
func (d directSamplers) pollOrder(x int, r uint64) []int32 {
	perm := d.pollPerm(x, r)
	var order []int32
	for i := 0; i < d.p.PollSize; i++ {
		order = appendDistinct(order, perm.Apply(i))
	}
	return order
}

func (d directSamplers) pollPerm(x int, r uint64) *prng.Perm {
	seed := prng.DeriveKey(d.p.SamplerSeed, "sampler/J", 0)
	return prng.NewPerm(d.p.N, prng.Hash3(seed, uint64(x), r%d.p.Labels))
}

func appendDistinct(order []int32, y int) []int32 {
	for _, seen := range order {
		if int(seen) == y {
			return order
		}
	}
	return append(order, int32(y))
}

// inPoll reports w ∈ J(x, r).
func (d directSamplers) inPoll(x int, r uint64, w int) bool {
	if !d.inRange(x, w) {
		return false
	}
	perm := d.pollPerm(x, r)
	for i := 0; i < d.p.PollSize; i++ {
		if perm.Apply(i) == w {
			return true
		}
	}
	return false
}

// checkMemoAgainstDirect interprets ops as a sequence of sampler questions —
// five bytes each: what is asked, about which string, x, y and the label —
// puts every one to a node's rows and to direct evaluation, and requires the
// same answer, the same distinct quorum size and, for the shared H and J
// rows, the same members in the same sampling order. Strings, ids and labels
// come from small pools so that rows are asked again (hits), asked about
// another string or label (another row, or another J slot tag) and asked
// with ids outside [0, n); some strings are interned by the node and some
// are not (the scratch path), and a Reset in mid-sequence checks that
// nothing stale survives it.
func checkMemoAgainstDirect(t *testing.T, ops []byte) {
	t.Helper()
	const n, me = 40, 7
	p := DefaultParams(n)
	smp := NewSamplers(p)
	direct := directSamplers{p}
	src := prng.New(99)
	strs := make([]bitstring.String, 6)
	for i := range strs {
		strs[i] = bitstring.Random(src, p.StringBits)
	}
	node := NewNode(me, strs[0], p, smp, prng.New(1))
	ids := []int{0, 1, me, 13, n - 1, n, n + 5, -1, -40, 1 << 31, 64, 31}
	id := func(b byte) int {
		if b < 0x80 {
			return int(b) % n
		}
		return ids[int(b)%len(ids)]
	}
	for ; len(ops) >= 5; ops = ops[5:] {
		kind, s := ops[0]%6, strs[int(ops[1])%len(strs)]
		x, y, r := id(ops[2]), id(ops[3]), uint64(ops[4]%8)*977
		sid := node.strs.Lookup(s)
		what := fmt.Sprintf("op %d s=%v (interned as %d) x=%d y=%d r=%d", kind, s, sid, x, y, r)
		switch kind {
		case 0: // y ∈ I(s, this)
			row := node.pushQuorum(sid, s)
			if got, want := row.Get(y), direct.inQuorum("I", s, me, y); got != want {
				t.Fatalf("%s: memo says y ∈ I(s, this) is %v, direct evaluation %v", what, got, want)
			}
			if got, want := row.Count(), direct.quorumSize("I", s, me); got != want {
				t.Fatalf("%s: memo |I(s, this)| = %d, direct %d", what, got, want)
			}
		case 1: // this ∈ H(s, x)
			got := node.proxied(sid, s).Get(x)
			if want := direct.inQuorum("H", s, x, me); got != want {
				t.Fatalf("%s: memo says this ∈ H(s, x) is %v, Perm.Apply says %v", what, got, want)
			}
			if want := direct.inQuorumByInverse("H", s, x, me); got != want {
				t.Fatalf("%s: memo says this ∈ H(s, x) is %v, Perm.Invert says %v", what, got, want)
			}
		case 2: // y ∈ H(s, x)
			row := node.pullQuorum(sid, s, x)
			if got, want := row.Get(y), direct.inQuorum("H", s, x, y); got != want {
				t.Fatalf("%s: memo says y ∈ H(s, x) is %v, direct evaluation %v", what, got, want)
			}
			if direct.inRange(x) {
				if got, want := row.Count(), direct.quorumSize("H", s, x); got != want {
					t.Fatalf("%s: memo |H(s, x)| = %d, direct %d", what, got, want)
				}
				if sid != intern.None {
					if got, want := node.pullRow(sid, s, x).Order, direct.quorumOrder("H", s, x); !slices.Equal(got, want) {
						t.Fatalf("%s: shared row H(s, x) in order %v, direct evaluation %v", what, got, want)
					}
				}
			}
		case 3: // y ∈ J(x, r)
			if got, want := node.pollList(x, r).Get(y), direct.inPoll(x, r, y); got != want {
				t.Fatalf("%s: memo says y ∈ J(x, r) is %v, direct evaluation %v", what, got, want)
			}
			if direct.inRange(x) {
				if got, want := smp.J.Row(x, r).Order, direct.pollOrder(x, r); !slices.Equal(got, want) {
					t.Fatalf("%s: shared row J(x, r) in order %v, direct evaluation %v", what, got, want)
				}
			}
		case 4: // the node comes to hold state for s
			node.strs.ID(s)
		case 5:
			if ops[1] >= 0xf0 {
				node.Reset(strs[int(ops[2])%len(strs)], smp, prng.New(2))
			}
		}
	}
}

func TestMemoMatchesDirectEvaluation(t *testing.T) {
	src := prng.New(2024)
	for round := 0; round < 40; round++ {
		ops := make([]byte, 5*400)
		for i := range ops {
			ops[i] = byte(src.Uint64())
		}
		checkMemoAgainstDirect(t, ops)
	}
}

func FuzzMemoMatchesDirectEvaluation(f *testing.F) {
	f.Add([]byte{2, 0, 3, 4, 1, 2, 0, 3, 4, 1})                   // a row, then the same row again
	f.Add([]byte{2, 0, 0x89, 4, 1, 3, 0, 4, 0x89, 1})             // x, then w, is 1<<31
	f.Add([]byte{4, 3, 0, 0, 0, 2, 3, 5, 6, 0, 2, 0, 5, 6, 0})    // one requester, two strings
	f.Add([]byte{1, 0, 9, 0, 0, 5, 0xff, 2, 0, 0, 1, 0, 9, 0, 0}) // the same question either side of a Reset
	f.Fuzz(checkMemoAgainstDirect)
}

// nodeRows returns how many sampler rows the node itself holds: its
// per-string rows, and the shared row table it keeps a pointer to.
func nodeRows(n *Node) int {
	rows := 0
	for i := range n.states {
		if n.states[i].pushQuorum.Count() > 0 {
			rows++
		}
		if n.states[i].proxied.Count() > 0 {
			rows++
		}
	}
	if n.memo.pull != nil {
		rows++
	}
	return rows
}

func TestResetLeavesNoMemoEntry(t *testing.T) {
	p, smp, s := testSetup(t, 64)
	other := bitstring.Random(prng.New(43), p.StringBits)
	n := newTestNode(5, s, p, smp)
	n.Init(&fakeCtx{})
	for x := 0; x < p.N; x++ {
		n.pullQuorum(n.sthisID, s, x)
		n.pollList(x, uint64(x))
	}
	n.proxied(n.sthisID, s)
	n.pushQuorum(n.strs.ID(other), other)
	if rows := nodeRows(n); rows != 3 {
		t.Fatalf("node holds %d rows before Reset, want 3: I(other, this), the inverse row of s and the H table of s", rows)
	}
	if rows := smp.H.PublishedRows(); rows != p.N {
		t.Fatalf("the H table of s holds %d rows, want all %d", rows, p.N)
	}
	n.Reset(other, smp, prng.New(1))
	if rows := nodeRows(n); rows != 0 {
		t.Fatalf("node holds %d rows after Reset", rows)
	}
	// other is now interned under the id s had; a stale table would answer for s.
	direct := directSamplers{p}
	for y := 0; y < p.N; y++ {
		if got, want := n.pullQuorum(n.sthisID, other, 9).Get(y), direct.inQuorum("H", other, 9, y); got != want {
			t.Fatalf("after Reset: memo says %d ∈ H(other, 9) is %v, direct evaluation %v", y, got, want)
		}
	}
}

// TestMemoDerivesRowsLazily: construction samples nothing, a junk flood
// publishes no row and interns nothing, and one question derives one row —
// never a table a junk string could make the samplers fill.
func TestMemoDerivesRowsLazily(t *testing.T) {
	p, smp, s := testSetup(t, 64)
	n := newTestNode(5, s, p, smp)
	published := func() int { return smp.H.PublishedRows() + smp.J.PublishedRows() }
	if rows := nodeRows(n); rows != 0 || published() != 0 {
		t.Fatalf("a new node holds %d rows, and the samplers publish %d", rows, published())
	}
	for i := 0; i < 100; i++ {
		junk := bitstring.Random(prng.New(uint64(77+i)), p.StringBits)
		outsider := 0
		for smp.I.Contains(junk, n.id, outsider) || smp.H.Contains(junk, outsider, n.id) {
			outsider++
		}
		n.Deliver(&fakeCtx{}, outsider, MsgPush{S: junk})
		n.Deliver(&fakeCtx{}, outsider, MsgPull{S: junk, R: uint64(i)})
	}
	if n.strs.Len() != 1 || nodeRows(n) != 0 || published() != 0 {
		t.Fatalf("junk strings from outside their quorums left %d interned strings, %d node rows and %d published rows",
			n.strs.Len(), nodeRows(n), published())
	}
	n.pullQuorum(n.sthisID, s, 11)
	n.pullQuorum(n.sthisID, s, 11)
	if rows := smp.H.PublishedRows(); rows != 1 {
		t.Fatalf("one question, asked twice, published %d H rows", rows)
	}
	n.pollList(11, 3)
	n.pollList(11, 3)
	if rows := smp.J.PublishedRows(); rows != 1 {
		t.Fatalf("one question, asked twice, published %d J rows", rows)
	}
}

// TestNodeKeepsRowTableAcrossCacheChurn: the sampler's string cache is
// shared and bounded, so other strings evict s from it; the node still holds
// the row table of its belief and answers from the rows it already has.
func TestNodeKeepsRowTableAcrossCacheChurn(t *testing.T) {
	p, smp, s := testSetup(t, 64)
	n := newTestNode(5, s, p, smp)
	row := n.pullRow(n.sthisID, s, 11)
	for i := 0; i < 1000; i++ {
		smp.H.Rows(bitstring.Random(prng.New(uint64(500+i)), p.StringBits)).Row(11)
	}
	if again := n.pullRow(n.sthisID, s, 11); again != row {
		t.Fatal("cache churn cost the node its row of H(s, 11)")
	}
}

// TestOutOfRangeIDsAreNotMembers: node ids arrive off the wire as arbitrary
// integers, and a byzantine frame must not be able to crash a correct
// process. Every id outside [0, n) is simply not a member of anything.
func TestOutOfRangeIDsAreNotMembers(t *testing.T) {
	p, smp, s := testSetup(t, 64)
	const x, r = 12, 3
	w := smp.J.List(x, r)[0]
	zID := distinct(smp.H.Quorum(s, w))[0]
	y := distinct(smp.H.Quorum(s, x))[0]
	valid := MsgFw1{X: x, S: s, R: r}
	for _, bad := range []int{-1, -64, p.N, 1 << 31, -1 << 31} {
		cases := []struct {
			name string
			from int
			msg  simnet.Message
		}{
			{"Fw1.X", y, MsgFw1{X: bad, S: s, R: r}},
			{"Fw1 from", bad, valid},
			{"Fw2.X", y, MsgFw2{X: bad, S: s, R: r}},
			{"Fw2 from", bad, MsgFw2{X: x, S: s, R: r}},
			{"Push from", bad, MsgPush{S: s}},
			{"Pull from", bad, MsgPull{S: s, R: r}},
			{"Poll from", bad, MsgPoll{S: s, R: r}},
			{"Answer from", bad, MsgAnswer{S: s, R: r}},
		}
		for _, c := range cases {
			z := newTestNode(zID, s, p, smp)
			ctx := &fakeCtx{}
			z.Init(ctx)
			sent := len(ctx.sends)
			z.Deliver(ctx, c.from, c.msg)
			if len(ctx.sends) != sent {
				t.Errorf("%s = %d: node sent %v", c.name, bad, ctx.sends[sent:])
			}
			if len(z.req.recs) != 0 || z.strs.Len() != 1 {
				t.Errorf("%s = %d: the frame left protocol state behind", c.name, bad)
			}
		}
	}
	// The same requests with every id in range do go through.
	z := newTestNode(zID, s, p, smp)
	z.Init(&fakeCtx{})
	z.Deliver(&fakeCtx{}, y, valid)
	if len(z.req.recs) != 1 {
		t.Fatal("the in-range Fw1 was not counted")
	}
	if z.memo.none.Count() != 0 {
		t.Fatal("the out-of-domain row was written to")
	}
}

// BenchmarkOnFw1 times one valid Fw1 delivery — from a member of H(s, x),
// for a request whose poll list holds a w the node serves — on a node in
// steady state: the layer's own number next to BenchmarkPermQuorum, which is
// what a single check used to cost d times over.
func BenchmarkOnFw1(b *testing.B) {
	for _, n := range []int{24, 256} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			p := DefaultParams(n)
			smp := NewSamplers(p)
			s := bitstring.Random(prng.New(42), p.StringBits)
			const zID = 5
			z := NewNode(zID, s, p, smp, prng.New(1))
			// Every (y, Fw1(x, s, r)) with y ∈ H(s, x) and some w ∈ J(x, r)
			// with z ∈ H(s, w), for one label per requester x.
			type delivery struct {
				from int
				msg  MsgFw1
			}
			var valid []delivery
			for x := 0; x < n; x++ {
				r := uint64(x) * 31
				serves := false
				for _, w := range smp.J.List(x, r) {
					serves = serves || smp.H.Contains(s, w, zID)
				}
				if !serves {
					continue
				}
				for _, y := range distinct(smp.H.Quorum(s, x)) {
					valid = append(valid, delivery{y, MsgFw1{X: x, S: s, R: r}})
				}
			}
			if len(valid) == 0 {
				b.Fatal("no valid Fw1 for this node")
			}
			ctx := &discardCtx{}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%len(valid) == 0 {
					// One pass is one instance's Fw1 traffic; start the next.
					z.Reset(s, smp, z.rng)
				}
				d := &valid[i%len(valid)]
				z.onFw1(ctx, d.from, d.msg)
			}
			b.StopTimer()
			if ctx.sent == 0 && b.N >= len(valid) {
				b.Fatal("a full pass of valid Fw1s forwarded nothing")
			}
		})
	}
}

// discardCtx counts sends without keeping them.
type discardCtx struct{ sent int }

func (c *discardCtx) Now() int                 { return 0 }
func (c *discardCtx) Send(int, simnet.Message) { c.sent++ }
