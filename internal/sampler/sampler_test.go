package sampler

import (
	"sync"
	"testing"
	"testing/quick"

	"github.com/fastba/fastba/internal/bitstring"
	"github.com/fastba/fastba/internal/prng"
)

func randStrings(seed uint64, count, bits int) []bitstring.String {
	src := prng.New(seed)
	out := make([]bitstring.String, count)
	for i := range out {
		out[i] = bitstring.Random(src, bits)
	}
	return out
}

func TestPermQuorumShape(t *testing.T) {
	const n, d = 128, 12
	q := NewPermQuorum(n, d, 1, "I")
	if q.N() != n || q.Size() != d {
		t.Fatalf("geometry mismatch: N=%d Size=%d", q.N(), q.Size())
	}
	s := randStrings(2, 1, 40)[0]
	for x := 0; x < n; x++ {
		quorum := q.Quorum(s, x)
		if len(quorum) != d {
			t.Fatalf("quorum size %d, want %d", len(quorum), d)
		}
		for _, y := range quorum {
			if y < 0 || y >= n {
				t.Fatalf("member %d out of range", y)
			}
		}
	}
}

func TestPermQuorumDeterministic(t *testing.T) {
	s := randStrings(3, 1, 40)[0]
	q1 := NewPermQuorum(64, 8, 7, "I")
	q2 := NewPermQuorum(64, 8, 7, "I")
	for x := 0; x < 64; x++ {
		a, b := q1.Quorum(s, x), q2.Quorum(s, x)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("non-deterministic quorum at x=%d", x)
			}
		}
	}
}

func TestPermQuorumTagSeparation(t *testing.T) {
	s := randStrings(4, 1, 40)[0]
	qi := NewPermQuorum(256, 8, 7, "I")
	qh := NewPermQuorum(256, 8, 7, "H")
	identical := 0
	for x := 0; x < 256; x++ {
		a, b := qi.Quorum(s, x), qh.Quorum(s, x)
		same := true
		for i := range a {
			if a[i] != b[i] {
				same = false
				break
			}
		}
		if same {
			identical++
		}
	}
	if identical > 2 {
		t.Fatalf("I and H coincide on %d/256 nodes; tags not separating", identical)
	}
}

func TestPermQuorumInverseConsistency(t *testing.T) {
	const n, d = 100, 10
	q := NewPermQuorum(n, d, 5, "I")
	s := randStrings(6, 1, 40)[0]
	for y := 0; y < n; y++ {
		inv := q.Inverse(s, y)
		if len(inv) != d {
			t.Fatalf("Inverse cardinality %d, want exactly %d (no-overload)", len(inv), d)
		}
		for _, x := range inv {
			if !q.Contains(s, x, y) {
				t.Fatalf("Inverse(%d) returned %d but Contains is false", y, x)
			}
		}
	}
}

func TestPermQuorumNoOverload(t *testing.T) {
	// The central Lemma 1 guarantee: for every string, every node sits in
	// exactly d quorums, so MaxLoad == d.
	const n, d = 200, 9
	q := NewPermQuorum(n, d, 11, "H")
	for _, s := range randStrings(7, 5, 40) {
		if load := MaxLoad(q, s); load != d {
			t.Fatalf("PermQuorum MaxLoad = %d, want %d", load, d)
		}
	}
}

// TestPermQuorumCacheBounded: the per-string permutation cache holds a fixed
// number of strings however many the sampler is asked about, and a string
// evicted and derived again samples exactly the quorums it did before.
func TestPermQuorumCacheBounded(t *testing.T) {
	const n, d = 100, 10
	q := NewPermQuorum(n, d, 5, "H")
	strs := randStrings(8, 5000, 40)
	first := make([][]int, len(strs))
	for i, s := range strs {
		first[i] = q.Quorum(s, i%n)
	}
	if held := q.CachedStrings(); held == 0 || held > permCacheSlots {
		t.Fatalf("sampler holds %d strings after %d, bound is %d", held, len(strs), permCacheSlots)
	}
	fresh := NewPermQuorum(n, d, 5, "H")
	for i, s := range strs {
		again, want := q.Quorum(s, i%n), fresh.Quorum(s, i%n)
		for j := range want {
			if first[i][j] != want[j] || again[j] != want[j] {
				t.Fatalf("string %d: quorum changed across eviction: %v, then %v, fresh sampler %v", i, first[i], again, want)
			}
		}
	}
}

// TestSharedRowsConcurrent: eight goroutines derive overlapping H and J
// rows while junk strings churn the string cache. Every row they get must be
// the one direct Perm.Apply evaluation gives, and the cache must stay within
// its bound.
func TestSharedRowsConcurrent(t *testing.T) {
	const n, d, workers, junkStrings = 96, 10, 8, 10000
	h := NewPermQuorum(n, d, 3, "H")
	j := NewPoll(n, d, n*n, 3)
	strs := randStrings(21, 4, 40)
	junk := randStrings(22, junkStrings, 40)
	directH := func(s bitstring.String, x int) []int32 {
		var order []int32
		for k := 0; k < d; k++ {
			order = appendNew(order, prng.NewPerm(n, prng.Hash3(h.seed, s.Hash64(), uint64(k))).Apply(x))
		}
		return order
	}
	directJ := func(x int, r uint64) []int32 {
		perm := prng.NewPerm(n, prng.Hash3(j.seed, uint64(x), r%j.labels))
		var order []int32
		for i := 0; i < d; i++ {
			order = appendNew(order, perm.Apply(i))
		}
		return order
	}
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < junkStrings/workers; i++ {
				s, x, r := strs[(g+i)%len(strs)], (g+3*i)%n, uint64((g*i)%40)
				if got, want := h.Rows(s).Row(x), directH(s, x); !rowIs(got, want) {
					t.Errorf("H(s%d, %d) = %v, direct %v", (g+i)%len(strs), x, got.Order, want)
					return
				}
				if got, want := j.Row(x, r), directJ(x, r); !rowIs(got, want) {
					t.Errorf("J(%d, %d) = %v, direct %v", x, r, got.Order, want)
					return
				}
				h.Rows(junk[g*(junkStrings/workers)+i]).Row(x)
			}
		}(g)
	}
	wg.Wait()
	if held := h.CachedStrings(); held > permCacheSlots {
		t.Fatalf("sampler holds %d strings after %d junk strings, bound is %d", held, junkStrings, permCacheSlots)
	}
	if held := j.PublishedRows(); held > pollSlots(n) {
		t.Fatalf("poll sampler holds %d rows, table has %d slots", held, pollSlots(n))
	}
}

func appendNew(order []int32, y int) []int32 {
	for _, seen := range order {
		if int(seen) == y {
			return order
		}
	}
	return append(order, int32(y))
}

// rowIs reports whether r holds exactly the members of order, in that order.
func rowIs(r *Row, order []int32) bool {
	if len(r.Order) != len(order) || r.Bits.Count() != len(order) {
		return false
	}
	for i, y := range order {
		if r.Order[i] != y || !r.Bits.Get(int(y)) {
			return false
		}
	}
	return true
}

func TestHashQuorumCanOverload(t *testing.T) {
	// The ablation baseline: independent hashing exceeds the d load bound.
	const n, d = 200, 9
	q := NewHashQuorum(n, d, 11, "H")
	overloaded := false
	for _, s := range randStrings(8, 5, 40) {
		if MaxLoad(q, s) > d {
			overloaded = true
			break
		}
	}
	if !overloaded {
		t.Fatal("HashQuorum never exceeded load d; ablation premise broken")
	}
}

func TestQuorumSamplerProperty(t *testing.T) {
	// Empirical Definition 1 check: with |S|/n = 0.3 and θ = 0.25, the
	// fraction of inputs whose quorum overlaps S by more than 0.55 must be
	// tiny for quorums of size 16 (Chernoff gives ≈ e^{-2·θ²·d} ≈ 0.13;
	// observed is far lower for the permutation construction).
	const n, d = 512, 16
	q := NewPermQuorum(n, d, 3, "I")
	inS := make([]bool, n)
	src := prng.New(9)
	for count := 0; count < n*3/10; {
		x := src.Intn(n)
		if !inS[x] {
			inS[x] = true
			count++
		}
	}
	st := CheckQuorumSampler(q, randStrings(10, 8, 40), inS, 0.25)
	if frac := float64(st.Exceeding) / float64(st.Inputs); frac > 0.05 {
		t.Fatalf("sampler property violated: %.3f of inputs exceed |S|/n+θ", frac)
	}
	if st.MeanOverlap < 0.25 || st.MeanOverlap > 0.35 {
		t.Fatalf("mean overlap %.3f far from |S|/n = 0.3", st.MeanOverlap)
	}
}

func TestPollListShape(t *testing.T) {
	p := NewPoll(128, 10, 128*128, 1)
	src := prng.New(2)
	for i := 0; i < 100; i++ {
		x := src.Intn(128)
		r := src.Uint64()
		list := p.List(x, r)
		if len(list) != 10 {
			t.Fatalf("list size %d", len(list))
		}
		seen := map[int]bool{}
		for _, w := range list {
			if w < 0 || w >= 128 || seen[w] {
				t.Fatalf("invalid or duplicate member %d", w)
			}
			seen[w] = true
			if !p.Contains(x, r, w) {
				t.Fatalf("Contains(%d,%d,%d) = false for a list member", x, r, w)
			}
		}
		if p.Contains(x, r, pickOutside(seen, 128)) {
			t.Fatal("Contains true for non-member")
		}
	}
}

func pickOutside(seen map[int]bool, n int) int {
	for i := 0; i < n; i++ {
		if !seen[i] {
			return i
		}
	}
	return 0
}

func TestPollLabelReduction(t *testing.T) {
	p := NewPoll(64, 8, 100, 1)
	a := p.List(5, 7)
	b := p.List(5, 107) // 107 mod 100 == 7
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("labels not reduced modulo |R|")
		}
	}
}

func TestCheckProperty1(t *testing.T) {
	const n = 256
	p := NewPoll(n, 16, n*n, 5)
	good := make([]bool, n)
	src := prng.New(3)
	// 75% good nodes (the paper's 1/2 + ε with generous ε).
	for count := 0; count < n*3/4; {
		x := src.Intn(n)
		if !good[x] {
			good[x] = true
			count++
		}
	}
	res := CheckProperty1(p, good, 4000, src)
	if res.BadFraction > 0.05 {
		t.Fatalf("Property 1 violated: %.3f of poll lists lack a good majority", res.BadFraction)
	}
}

func TestBorderExpansionFullSetIsSmall(t *testing.T) {
	// If L covers every node, every list element lands inside L*, so the
	// border is 0 — sanity check of the ∂L definition.
	const n = 32
	p := NewPoll(n, 6, n*n, 1)
	L := make([]Pair, n)
	for i := range L {
		L[i] = Pair{X: i, R: uint64(i)}
	}
	res := BorderExpansion(p, L)
	if res.Border != 0 || res.Ratio != 0 {
		t.Fatalf("full-set border = %+v, want zero", res)
	}
}

func TestBorderExpansionSingleton(t *testing.T) {
	const n = 128
	p := NewPoll(n, 8, uint64(n*n), 2)
	res := BorderExpansion(p, []Pair{{X: 3, R: 99}})
	// A single list can at most self-intersect at x itself.
	if res.Border < p.Size()-1 {
		t.Fatalf("singleton border %d below d-1", res.Border)
	}
	if res.Ratio <= 2.0/3 {
		t.Fatalf("singleton expansion ratio %.3f ≤ 2/3", res.Ratio)
	}
}

func TestBorderExpansionRejectsDuplicateNodes(t *testing.T) {
	p := NewPoll(16, 4, 256, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate node in L did not panic")
		}
	}()
	BorderExpansion(p, []Pair{{X: 1, R: 1}, {X: 1, R: 2}})
}

func TestProperty2RandomSets(t *testing.T) {
	// Random L of size n/log n must expand well beyond 2/3·d.
	const n = 512
	p := NewPoll(n, 12, uint64(n)*uint64(n), 7)
	src := prng.New(11)
	size := n / 9 // ≈ n / log₂ n
	for trial := 0; trial < 20; trial++ {
		L := make([]Pair, 0, size)
		used := map[int]bool{}
		for len(L) < size {
			x := src.Intn(n)
			if used[x] {
				continue
			}
			used[x] = true
			L = append(L, Pair{X: x, R: src.Uint64()})
		}
		res := BorderExpansion(p, L)
		if res.Ratio <= 2.0/3 {
			t.Fatalf("random L violates Property 2: ratio %.3f", res.Ratio)
		}
	}
}

func TestProperty2GreedyAdversary(t *testing.T) {
	// Even a greedy corner-seeking adversary cannot push the expansion to
	// 2/3 or below (experiment E11 in miniature).
	const n = 256
	p := NewPoll(n, 12, uint64(n)*uint64(n), 13)
	src := prng.New(17)
	res := GreedyCorner(p, n/8, 24, 6, src)
	if res.Ratio <= 2.0/3 {
		t.Fatalf("greedy adversary cornered J: ratio %.3f with |L|=%d", res.Ratio, res.L)
	}
}

func TestQuickQuorumMembershipAgree(t *testing.T) {
	q := NewPermQuorum(97, 7, 23, "I")
	s := randStrings(19, 1, 33)[0]
	f := func(x8, y8 uint8) bool {
		x, y := int(x8)%97, int(y8)%97
		inQuorum := false
		for _, m := range q.Quorum(s, x) {
			if m == y {
				inQuorum = true
			}
		}
		return inQuorum == q.Contains(s, x, y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickInverseRoundTrip(t *testing.T) {
	q := NewPermQuorum(101, 9, 29, "H")
	s := randStrings(20, 1, 33)[0]
	f := func(y8 uint8) bool {
		y := int(y8) % 101
		for _, x := range q.Inverse(s, y) {
			if !q.Contains(s, x, y) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNewPanicsOnBadGeometry(t *testing.T) {
	tests := []func(){
		func() { NewPermQuorum(0, 4, 1, "I") },
		func() { NewPermQuorum(10, 0, 1, "I") },
		func() { NewHashQuorum(0, 4, 1, "I") },
		func() { NewPoll(0, 4, 16, 1) },
		func() { NewPoll(10, 11, 16, 1) },
		func() { NewPoll(10, 4, 0, 1) },
	}
	for i, fn := range tests {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: no panic", i)
				}
			}()
			fn()
		}()
	}
}

func BenchmarkPermQuorum(b *testing.B) {
	q := NewPermQuorum(4096, 24, 1, "I")
	s := randStrings(1, 1, 48)[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Quorum(s, i%4096)
	}
}

func BenchmarkPollList(b *testing.B) {
	p := NewPoll(4096, 24, 4096*4096, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.List(i%4096, uint64(i))
	}
}
