// Package prng provides the deterministic randomness substrate used by the
// whole simulation: a fast 64-bit mixer (splitmix64), a general-purpose
// xoshiro256** generator, keyed derivation of independent sub-streams, and
// keyed pseudorandom permutations on [0, n) built from a cycle-walking
// Feistel network.
//
// Everything in this package is deterministic given the seed, allocation
// free on the hot paths, and safe to copy by value unless documented
// otherwise. The simulation never uses the global math/rand state so that
// runs are reproducible bit-for-bit.
package prng

import "math/bits"

// Mix64 is the splitmix64 finalizer. It is a bijection on uint64 with good
// avalanche behaviour and is the basic building block for key derivation and
// for the Feistel round function.
func Mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Hash2 mixes two words into one. It is not cryptographic; it is a cheap,
// well-distributed combiner for sampler keys.
func Hash2(a, b uint64) uint64 {
	return Mix64(a ^ Mix64(b))
}

// Hash3 mixes three words into one.
func Hash3(a, b, c uint64) uint64 {
	return Mix64(Hash2(a, b) ^ Mix64(c))
}

// Hash4 mixes four words into one.
func Hash4(a, b, c, d uint64) uint64 {
	return Mix64(Hash3(a, b, c) ^ Mix64(d))
}

// Source is a xoshiro256** PRNG. The zero value is not usable; construct it
// with New. Source is not safe for concurrent use; each node of the
// simulation owns its private Source (the paper's "private random number
// generator").
type Source struct {
	s0, s1, s2, s3 uint64
}

// New returns a Source seeded from seed via splitmix64, following the
// reference xoshiro initialization.
func New(seed uint64) *Source {
	var s Source
	s.Reseed(seed)
	return &s
}

// Reseed resets the generator state as if freshly created with New(seed).
func (s *Source) Reseed(seed uint64) {
	// splitmix64 sequence, per the xoshiro authors' recommendation.
	x := seed
	next := func() uint64 {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	s.s0, s.s1, s.s2, s.s3 = next(), next(), next(), next()
	if s.s0|s.s1|s.s2|s.s3 == 0 {
		s.s0 = 1 // xoshiro must not be seeded with all zeros
	}
}

// Uint64 returns the next 64 bits of the stream.
func (s *Source) Uint64() uint64 {
	rotl := func(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }
	result := rotl(s.s1*5, 7) * 9
	t := s.s1 << 17
	s.s2 ^= s.s0
	s.s3 ^= s.s1
	s.s1 ^= s.s2
	s.s0 ^= s.s3
	s.s2 ^= t
	s.s3 = rotl(s.s3, 45)
	return result
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0, mirroring
// math/rand. Uses Lemire's nearly-divisionless bounded sampling.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("prng: Intn with non-positive n")
	}
	bound := uint64(n)
	for {
		v := s.Uint64()
		hi, lo := bits.Mul64(v, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// Float64 returns a uniform float64 in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Bool returns a uniform boolean.
func (s *Source) Bool() bool { return s.Uint64()&1 == 1 }

// Perm returns a uniform permutation of [0, n) (Fisher–Yates).
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := 1; i < n; i++ {
		j := s.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Shuffle permutes xs in place.
func (s *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		swap(i, j)
	}
}

// Fork derives an independent child Source keyed by tag. Forking the same
// Source with the same tag twice yields identical children; distinct tags
// yield (pseudo-)independent streams. Fork does not advance the parent.
func (s *Source) Fork(tag uint64) *Source {
	return New(Hash3(s.s0^s.s2, s.s1^s.s3, tag))
}

// DeriveKey produces a sub-key for the given purpose tag and index from a
// master seed. It is the canonical way the simulation splits one master seed
// into independent sampler, adversary and per-node seeds.
func DeriveKey(master uint64, purpose string, index uint64) uint64 {
	h := master
	for _, b := range []byte(purpose) {
		h = Mix64(h ^ uint64(b))
	}
	return Hash2(h, index)
}
