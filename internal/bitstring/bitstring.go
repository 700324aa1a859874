// Package bitstring implements the candidate strings exchanged by the
// protocols: fixed-length bit strings in the agreement domain D.
//
// The paper requires gstring to be c·log n bits long with at least a
// 2/3 + ε fraction of uniformly random bits (the adversary may fix the
// rest). This package provides the representation, deterministic random
// generation with a controlled adversarial fraction, wire encoding, and the
// bit-level statistics used by the experiment harness.
package bitstring

import (
	"encoding/hex"
	"fmt"

	"github.com/fastba/fastba/internal/prng"
)

// String is an immutable bit string. The zero value is the empty string.
// Strings are compared by value; Key() returns a form usable as a map key.
type String struct {
	bits int
	data string // packed bits, little-endian within bytes; immutable
}

// New packs the given bits (each byte is 0 or 1) into a String.
func New(bits []byte) String {
	data := make([]byte, (len(bits)+7)/8)
	for i, b := range bits {
		if b != 0 {
			data[i/8] |= 1 << (i % 8)
		}
	}
	return String{bits: len(bits), data: string(data)}
}

// FromBytes builds a String of nbits bits from packed little-endian bytes,
// copying them. Excess bits in the final byte are cleared so equal strings
// compare equal; a canonical tail (already clear) costs one allocation.
func FromBytes(packed []byte, nbits int) (String, error) {
	need := (nbits + 7) / 8
	if nbits < 0 || len(packed) < need {
		return String{}, fmt.Errorf("bitstring: %d bytes cannot hold %d bits", len(packed), nbits)
	}
	rem := nbits % 8
	if rem == 0 || packed[need-1]&^(byte(1<<rem)-1) == 0 {
		return String{bits: nbits, data: string(packed[:need])}, nil
	}
	data := make([]byte, need)
	copy(data, packed[:need])
	data[need-1] &= byte(1<<rem) - 1
	return String{bits: nbits, data: string(data)}, nil
}

// Random returns a uniformly random String of nbits bits drawn from src.
func Random(src *prng.Source, nbits int) String {
	data := make([]byte, (nbits+7)/8)
	for i := 0; i < len(data); i += 8 {
		v := src.Uint64()
		for j := 0; j < 8 && i+j < len(data); j++ {
			data[i+j] = byte(v >> (8 * j))
		}
	}
	s, err := FromBytes(data, nbits)
	if err != nil {
		panic("bitstring: internal: " + err.Error()) // unreachable: buffer sized above
	}
	return s
}

// PartiallyAdversarial returns a String of nbits bits in which the first
// ⌊advFrac·nbits⌋ bits are fixed to the adversary's choice adv (cyclically)
// and the remaining bits are uniform from src. It models the paper's
// assumption that gstring has a 2/3+ε fraction of uniformly random bits,
// with the adversary generating the remaining 1/3−ε fraction.
func PartiallyAdversarial(src *prng.Source, nbits int, advFrac float64, adv byte) String {
	if advFrac < 0 {
		advFrac = 0
	}
	if advFrac > 1 {
		advFrac = 1
	}
	advBits := int(advFrac * float64(nbits))
	bits := make([]byte, nbits)
	for i := 0; i < advBits; i++ {
		bits[i] = (adv >> (i % 8)) & 1
	}
	for i := advBits; i < nbits; i++ {
		if src.Uint64()&1 == 1 {
			bits[i] = 1
		}
	}
	return New(bits)
}

// Len returns the length in bits.
func (s String) Len() int { return s.bits }

// IsZero reports whether s is the zero (empty) String.
func (s String) IsZero() bool { return s.bits == 0 }

// Bit returns bit i (0 or 1). It panics if i is out of range.
func (s String) Bit(i int) byte {
	if i < 0 || i >= s.bits {
		panic("bitstring: Bit index out of range")
	}
	return (s.data[i/8] >> (i % 8)) & 1
}

// Key returns a value that uniquely identifies s and is usable as a map
// key. Two strings have equal keys iff they are equal. Key allocates a
// fresh string per call; hot paths should use MapKey (or an intern.Table)
// instead.
func (s String) Key() string {
	return string(rune(s.bits)) + s.data
}

// MapKey is a comparable identifier of a String for use as a map key.
// Unlike Key, constructing a MapKey performs no allocation: it reuses the
// String's immutable backing data. Two strings have equal MapKeys iff they
// are equal.
type MapKey struct {
	bits int
	data string
}

// MapKey returns the allocation-free map key for s.
func (s String) MapKey() MapKey { return MapKey{bits: s.bits, data: s.data} }

// Equal reports value equality.
func (s String) Equal(o String) bool {
	return s.bits == o.bits && s.data == o.data
}

// Bytes returns the packed little-endian byte representation (a copy).
func (s String) Bytes() []byte {
	return []byte(s.data)
}

// Hash64 returns a 64-bit mix of the string contents, used to derive
// sampler keys I(s, ·), H(s, ·) from the string itself.
func (s String) Hash64() uint64 {
	h := uint64(s.bits) * 0x9e3779b97f4a7c15
	for i := 0; i < len(s.data); i += 8 {
		var v uint64
		for j := 0; j < 8 && i+j < len(s.data); j++ {
			v |= uint64(s.data[i+j]) << (8 * j)
		}
		h = prng.Hash2(h, v)
	}
	return prng.Mix64(h)
}

// Ones returns the number of set bits (used by bias statistics).
func (s String) Ones() int {
	total := 0
	for i := 0; i < s.bits; i++ {
		total += int(s.Bit(i))
	}
	return total
}

// WireSize returns the number of bytes the string occupies on the wire
// (2-byte length prefix plus packed payload); used by the bit-metering.
func (s String) WireSize() int { return 2 + len(s.data) }

// String implements fmt.Stringer with a short hex rendering.
func (s String) String() string {
	if s.bits == 0 {
		return "ε"
	}
	h := hex.EncodeToString([]byte(s.data))
	if len(h) > 16 {
		h = h[:16] + "…"
	}
	return fmt.Sprintf("%s/%db", h, s.bits)
}

// XOR returns the bitwise XOR of two equal-length strings. It panics on
// length mismatch (caller bug).
func XOR(a, b String) String {
	if a.bits != b.bits {
		panic("bitstring: XOR length mismatch")
	}
	data := make([]byte, len(a.data))
	for i := range data {
		data[i] = a.data[i] ^ b.data[i]
	}
	return String{bits: a.bits, data: string(data)}
}

// Concat concatenates the given strings in order.
func Concat(parts ...String) String {
	total := 0
	for _, p := range parts {
		total += p.bits
	}
	bits := make([]byte, 0, total)
	for _, p := range parts {
		for i := 0; i < p.bits; i++ {
			bits = append(bits, p.Bit(i))
		}
	}
	return New(bits)
}
