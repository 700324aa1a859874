package bitstring

import (
	"testing"
	"testing/quick"

	"github.com/fastba/fastba/internal/prng"
)

func TestNewAndBit(t *testing.T) {
	s := New([]byte{1, 0, 1, 1, 0, 0, 0, 1, 1})
	if s.Len() != 9 {
		t.Fatalf("Len = %d, want 9", s.Len())
	}
	want := []byte{1, 0, 1, 1, 0, 0, 0, 1, 1}
	for i, w := range want {
		if got := s.Bit(i); got != w {
			t.Errorf("Bit(%d) = %d, want %d", i, got, w)
		}
	}
}

func TestFromBytesMasksExcessBits(t *testing.T) {
	a, err := FromBytes([]byte{0xff}, 3)
	if err != nil {
		t.Fatal(err)
	}
	b := New([]byte{1, 1, 1})
	if !a.Equal(b) {
		t.Fatalf("FromBytes(0xff, 3) = %v, want %v", a, b)
	}
}

// TestFromBytesCopies: the String owns its data, and a canonical tail
// (excess bits already clear) costs exactly one allocation.
func TestFromBytesCopies(t *testing.T) {
	packed := []byte{0x5a, 0xc3, 0x05}
	s, err := FromBytes(packed, 20)
	if err != nil {
		t.Fatal(err)
	}
	want := s.Bytes()
	packed[0], packed[2] = 0xDB, 0xDB
	if got := s.Bytes(); string(got) != string(want) {
		t.Fatalf("FromBytes aliased its input: %x, want %x", got, want)
	}
	packed[2] = 0x05
	if allocs := testing.AllocsPerRun(100, func() { s, err = FromBytes(packed, 20) }); err != nil || allocs != 1 {
		t.Fatalf("FromBytes: %.1f allocations (err %v), want 1", allocs, err)
	}
}

func TestFromBytesShortBuffer(t *testing.T) {
	if _, err := FromBytes([]byte{0xff}, 9); err == nil {
		t.Fatal("expected error for short buffer")
	}
	if _, err := FromBytes(nil, -1); err == nil {
		t.Fatal("expected error for negative length")
	}
}

func TestKeyUniqueness(t *testing.T) {
	// Strings with different lengths but identical padding must differ.
	a := New([]byte{1, 0, 1})
	b := New([]byte{1, 0, 1, 0})
	if a.Key() == b.Key() {
		t.Fatal("keys collide across lengths")
	}
	if a.Equal(b) {
		t.Fatal("Equal ignores length")
	}
}

func TestRandomDeterminism(t *testing.T) {
	s1 := Random(prng.New(9), 64)
	s2 := Random(prng.New(9), 64)
	if !s1.Equal(s2) {
		t.Fatal("Random is not deterministic for equal seeds")
	}
	s3 := Random(prng.New(10), 64)
	if s1.Equal(s3) {
		t.Fatal("Random is seed-insensitive")
	}
}

func TestRandomBalance(t *testing.T) {
	src := prng.New(123)
	const nbits = 10000
	s := Random(src, nbits)
	ones := s.Ones()
	if ones < nbits*45/100 || ones > nbits*55/100 {
		t.Fatalf("random string has %d/%d ones; badly biased", ones, nbits)
	}
}

func TestPartiallyAdversarial(t *testing.T) {
	src := prng.New(77)
	s := PartiallyAdversarial(src, 90, 1.0/3, 0x00)
	// First 30 bits fixed to zero.
	for i := 0; i < 30; i++ {
		if s.Bit(i) != 0 {
			t.Fatalf("adversarial bit %d = %d, want 0", i, s.Bit(i))
		}
	}
	// Remaining 60 bits should not be all zero (probability 2^-60).
	rest := 0
	for i := 30; i < 90; i++ {
		rest += int(s.Bit(i))
	}
	if rest == 0 {
		t.Fatal("random suffix is all zeros")
	}
}

func TestPartiallyAdversarialClamps(t *testing.T) {
	src := prng.New(5)
	if s := PartiallyAdversarial(src, 16, -1, 0); s.Len() != 16 {
		t.Fatal("negative fraction mishandled")
	}
	s := PartiallyAdversarial(src, 16, 2, 0xff)
	for i := 0; i < 16; i++ {
		if s.Bit(i) != 1 {
			t.Fatal("fraction > 1 should fix every bit")
		}
	}
}

func TestHash64Distinguishes(t *testing.T) {
	src := prng.New(4)
	seen := make(map[uint64]String)
	for i := 0; i < 2000; i++ {
		s := Random(src, 64)
		h := s.Hash64()
		if prev, ok := seen[h]; ok && !prev.Equal(s) {
			t.Fatalf("Hash64 collision between %v and %v", prev, s)
		}
		seen[h] = s
	}
}

func TestXOR(t *testing.T) {
	a := New([]byte{1, 0, 1, 0})
	b := New([]byte{1, 1, 0, 0})
	got := XOR(a, b)
	want := New([]byte{0, 1, 1, 0})
	if !got.Equal(want) {
		t.Fatalf("XOR = %v, want %v", got, want)
	}
}

func TestXORPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("XOR with mismatched lengths did not panic")
		}
	}()
	XOR(New([]byte{1}), New([]byte{1, 0}))
}

func TestConcat(t *testing.T) {
	a := New([]byte{1, 0, 1})
	b := New([]byte{0, 0, 1, 1})
	c := Concat(a, b)
	if c.Len() != 7 {
		t.Fatalf("Concat length %d, want 7", c.Len())
	}
	want := []byte{1, 0, 1, 0, 0, 1, 1}
	for i, w := range want {
		if c.Bit(i) != w {
			t.Errorf("Concat bit %d = %d, want %d", i, c.Bit(i), w)
		}
	}
}

func TestWireSize(t *testing.T) {
	s := New(make([]byte, 33))
	if got := s.WireSize(); got != 2+5 {
		t.Fatalf("WireSize = %d, want 7", got)
	}
}

func TestStringRendering(t *testing.T) {
	var zero String
	if zero.String() != "ε" {
		t.Fatalf("zero String() = %q", zero.String())
	}
	if !zero.IsZero() {
		t.Fatal("IsZero false for zero value")
	}
	s := New([]byte{1})
	if s.IsZero() || s.String() == "" {
		t.Fatal("non-zero string misrendered")
	}
}

func TestQuickRoundTrip(t *testing.T) {
	f := func(raw []byte, lenSeed uint8) bool {
		nbits := len(raw) * 8
		if nbits == 0 {
			return true
		}
		nbits = 1 + int(lenSeed)%nbits
		s, err := FromBytes(raw, nbits)
		if err != nil {
			return false
		}
		s2, err := FromBytes(s.Bytes(), nbits)
		return err == nil && s.Equal(s2) && s.Key() == s2.Key()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickConcatLength(t *testing.T) {
	src := prng.New(8)
	f := func(a8, b8 uint8) bool {
		a := Random(src, int(a8)%100)
		b := Random(src, int(b8)%100)
		c := Concat(a, b)
		if c.Len() != a.Len()+b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if c.Bit(i) != a.Bit(i) {
				return false
			}
		}
		for i := 0; i < b.Len(); i++ {
			if c.Bit(a.Len()+i) != b.Bit(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
