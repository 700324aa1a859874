package bitstring

import "testing"

func TestSetAddAndContains(t *testing.T) {
	var s Set
	if s.Len() != 0 || s.Contains(3) {
		t.Fatal("zero Set not empty")
	}
	if !s.Add(3) || !s.Add(7) || !s.Add(0) {
		t.Fatal("fresh adds reported as duplicates")
	}
	if s.Add(3) || s.Add(7) {
		t.Fatal("duplicate adds reported as fresh")
	}
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
	for _, v := range []int{0, 3, 7} {
		if !s.Contains(v) {
			t.Fatalf("Contains(%d) = false", v)
		}
	}
	if s.Contains(5) {
		t.Fatal("Contains(5) = true")
	}
	s.Reset()
	if s.Len() != 0 || s.Contains(3) {
		t.Fatal("Reset did not empty the set")
	}
	if !s.Add(3) {
		t.Fatal("add after Reset reported duplicate")
	}
}

func TestBitsetSetGetCount(t *testing.T) {
	var b Bitset
	if b.Get(0) || b.Get(1000) || b.Count() != 0 {
		t.Fatal("zero Bitset not empty")
	}
	for _, i := range []int{0, 1, 63, 64, 65, 300} {
		if !b.Set(i) {
			t.Fatalf("Set(%d) reported already set", i)
		}
	}
	for _, i := range []int{0, 1, 63, 64, 65, 300} {
		if b.Set(i) {
			t.Fatalf("re-Set(%d) reported newly set", i)
		}
		if !b.Get(i) {
			t.Fatalf("Get(%d) = false", i)
		}
	}
	for _, i := range []int{2, 62, 299, 301, 100000} {
		if b.Get(i) {
			t.Fatalf("Get(%d) = true for unset bit", i)
		}
	}
	if b.Count() != 6 {
		t.Fatalf("Count = %d, want 6", b.Count())
	}
	if b.Count() != b.recount() {
		t.Fatalf("maintained count %d disagrees with popcount %d", b.Count(), b.recount())
	}
}

func TestBitsetNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Set(-1) did not panic")
		}
	}()
	var b Bitset
	b.Set(-1)
}

func TestMapKeyEquality(t *testing.T) {
	a := New([]byte{1, 0, 1})
	b := New([]byte{1, 0, 1})
	c := New([]byte{1, 0, 1, 0}) // same bytes, longer
	if a.MapKey() != b.MapKey() {
		t.Fatal("equal strings have different MapKeys")
	}
	if a.MapKey() == c.MapKey() {
		t.Fatal("different-length strings share a MapKey")
	}
}

func TestBitsetGrow(t *testing.T) {
	var b Bitset
	b.Grow(130)
	words := &b.words[0]
	for _, i := range []int{0, 64, 129} {
		if b.Get(i) || !b.Set(i) || !b.Get(i) {
			t.Fatalf("bit %d after Grow", i)
		}
	}
	if &b.words[0] != words || b.Count() != 3 {
		t.Fatalf("Set reallocated or miscounted inside the grown domain (count %d)", b.Count())
	}
	b.Grow(10) // never shrinks
	if !b.Get(129) {
		t.Fatal("Grow to a smaller domain lost bits")
	}
}
