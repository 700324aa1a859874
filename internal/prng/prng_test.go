package prng

import (
	"testing"
	"testing/quick"
)

func TestMix64Bijective(t *testing.T) {
	// Mix64 must be injective; sample a window and check for collisions.
	seen := make(map[uint64]uint64, 1<<16)
	for i := uint64(0); i < 1<<16; i++ {
		h := Mix64(i)
		if prev, ok := seen[h]; ok {
			t.Fatalf("Mix64 collision: Mix64(%d) == Mix64(%d) == %#x", i, prev, h)
		}
		seen[h] = i
	}
}

func TestSourceDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("streams diverge at %d: %#x != %#x", i, av, bv)
		}
	}
}

func TestSourceSeedSensitivity(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("seeds 1 and 2 produced %d identical samples out of 1000", same)
	}
}

func TestSourceZeroSeed(t *testing.T) {
	s := New(0)
	v := s.Uint64()
	if v == 0 && s.Uint64() == 0 && s.Uint64() == 0 {
		t.Fatal("zero seed produced a stuck all-zero stream")
	}
}

func TestIntnBounds(t *testing.T) {
	s := New(7)
	for _, n := range []int{1, 2, 3, 10, 1000, 1 << 20} {
		for i := 0; i < 200; i++ {
			v := s.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	// Chi-squared style sanity check over 8 buckets.
	s := New(99)
	const buckets, samples = 8, 80000
	var counts [buckets]int
	for i := 0; i < samples; i++ {
		counts[s.Intn(buckets)]++
	}
	want := samples / buckets
	for b, c := range counts {
		if c < want*9/10 || c > want*11/10 {
			t.Errorf("bucket %d count %d deviates more than 10%% from %d", b, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(5)
	for i := 0; i < 10000; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", f)
		}
	}
}

func TestPermFisherYates(t *testing.T) {
	s := New(11)
	p := s.Perm(100)
	seen := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("Perm produced invalid or duplicate value %d", v)
		}
		seen[v] = true
	}
}

func TestForkIndependence(t *testing.T) {
	s := New(3)
	c1 := s.Fork(1)
	c2 := s.Fork(2)
	c1again := s.Fork(1)
	if c1.Uint64() != c1again.Uint64() {
		t.Fatal("Fork with same tag is not deterministic")
	}
	if c1.Uint64() == c2.Uint64() {
		t.Fatal("Fork with different tags produced identical streams")
	}
}

func TestDeriveKeyDistinct(t *testing.T) {
	keys := map[uint64]string{}
	add := func(k uint64, desc string) {
		if prev, ok := keys[k]; ok {
			t.Fatalf("key collision between %s and %s", prev, desc)
		}
		keys[k] = desc
	}
	for i := uint64(0); i < 100; i++ {
		add(DeriveKey(1, "sampler/I", i), "I")
		add(DeriveKey(1, "sampler/H", i), "H")
		add(DeriveKey(2, "sampler/I", i), "I'")
	}
}

func TestPermIsBijection(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 16, 17, 100, 1000, 4099} {
		p := NewPerm(n, 0xdead)
		seen := make([]bool, n)
		for x := 0; x < n; x++ {
			y := p.Apply(x)
			if y < 0 || y >= n {
				t.Fatalf("n=%d: Apply(%d) = %d out of domain", n, x, y)
			}
			if seen[y] {
				t.Fatalf("n=%d: Apply not injective at %d", n, x)
			}
			seen[y] = true
			if back := p.Invert(y); back != x {
				t.Fatalf("n=%d: Invert(Apply(%d)) = %d", n, x, back)
			}
		}
	}
}

func TestPermKeySensitivity(t *testing.T) {
	const n = 512
	p1 := NewPerm(n, 1)
	p2 := NewPerm(n, 2)
	same := 0
	for x := 0; x < n; x++ {
		if p1.Apply(x) == p2.Apply(x) {
			same++
		}
	}
	// Two random permutations agree on ~1 point in expectation.
	if same > 10 {
		t.Fatalf("differently keyed permutations agree on %d/%d points", same, n)
	}
}

func TestPermQuickInverse(t *testing.T) {
	p := NewPerm(10007, 0xfeed)
	f := func(x uint16) bool {
		v := int(x) % 10007
		return p.Invert(p.Apply(v)) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPermApplyPanicsOutOfDomain(t *testing.T) {
	p := NewPerm(10, 1)
	for _, bad := range []int{-1, 10, 11} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Apply(%d) did not panic", bad)
				}
			}()
			p.Apply(bad)
		}()
	}
}

// TestIntnGoldenStream pins Source.Intn's output stream — values and the
// number of 64-bit draws its rejection loop consumes — as recorded before the
// hand-rolled 128-bit multiply gave way to math/bits.Mul64: every seeded
// choice in the tree (populations, schedulers, adversaries) hangs off it.
func TestIntnGoldenStream(t *testing.T) {
	golden := []struct {
		bound int
		want  [4]int
	}{
		{1, [4]int{0, 0, 0, 0}},
		{2, [4]int{1, 1, 0, 0}},
		{3, [4]int{2, 2, 0, 2}},
		{7, [4]int{3, 2, 4, 1}},
		{24, [4]int{13, 12, 7, 18}},
		{256, [4]int{99, 115, 3, 209}},
		{1000, [4]int{3, 903, 897, 122}},
		{65537, [4]int{19111, 16651, 43783, 40031}},
		{1 << 20, [4]int{839479, 246444, 466249, 320978}},
		{1<<31 - 1, [4]int{2042215130, 1626097256, 807107705, 361888152}},
		{1<<62 + 12345, [4]int{3770527180496589083, 4502060379241055533, 4206905216992642525, 1648483696342970484}},
		{1<<63 - 1, [4]int{5237645809306510547, 2612974658553505870, 1799682194816684339, 6920509372614704488}},
		{3 << 61, [4]int{560575356676094927, 4663807960418946733, 4418529943949431179, 5002262354389344461}},
	}
	s := New(0x5eed)
	for _, g := range golden {
		for i, want := range g.want {
			if got := s.Intn(g.bound); got != want {
				t.Fatalf("Intn(%d) draw %d = %d, want %d", g.bound, i, got, want)
			}
		}
	}
	if got, want := s.Uint64(), uint64(0xf1e892597020d3ae); got != want {
		t.Fatalf("stream position after the golden draws: next word %#x, want %#x", got, want)
	}
}

func BenchmarkMix64(b *testing.B) {
	var acc uint64
	for i := 0; i < b.N; i++ {
		acc ^= Mix64(uint64(i))
	}
	_ = acc
}

func BenchmarkSourceUint64(b *testing.B) {
	s := New(1)
	var acc uint64
	for i := 0; i < b.N; i++ {
		acc ^= s.Uint64()
	}
	_ = acc
}

func BenchmarkPermApply(b *testing.B) {
	p := NewPerm(1<<20, 42)
	var acc int
	for i := 0; i < b.N; i++ {
		acc ^= p.Apply(i & (1<<20 - 1))
	}
	_ = acc
}
