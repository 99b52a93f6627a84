// Package xrand provides small, fast, deterministic random number
// generators and samplers used by the graph generators and the
// property-based tests.
//
// The generators in this package are deliberately simple and fully
// reproducible: given the same seed they emit the same stream on every
// platform, which makes every synthetic dataset in this repository a
// pure function of its parameters. math/rand is avoided so that future
// Go releases cannot silently change experiment inputs.
package xrand

import "math/bits"

// SplitMix64 is the splittable PRNG of Steele et al. (OOPSLA 2014).
// It passes BigCrush, has a period of 2^64 and is primarily used here
// to seed and to hash integers into well-distributed 64-bit values.
//
// The zero value is a valid generator seeded with 0.
type SplitMix64 struct {
	state uint64
}

// NewSplitMix64 returns a SplitMix64 seeded with seed.
func NewSplitMix64(seed uint64) *SplitMix64 {
	return &SplitMix64{state: seed}
}

// Next returns the next 64-bit value in the stream.
func (s *SplitMix64) Next() uint64 {
	s.state += 0x9E3779B97F4A7C15
	z := s.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Mix64 hashes x through one SplitMix64 round. It is a bijection on
// uint64 and is used to derive independent per-worker seeds.
func Mix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// Xoshiro256 implements xoshiro256++ (Blackman & Vigna, 2019), the
// general-purpose generator used for all sampling in this repository.
type Xoshiro256 struct {
	s [4]uint64
}

// New returns a Xoshiro256 generator seeded from seed via SplitMix64,
// as recommended by the xoshiro authors.
func New(seed uint64) *Xoshiro256 {
	sm := NewSplitMix64(seed)
	var x Xoshiro256
	for i := range x.s {
		x.s[i] = sm.Next()
	}
	// An all-zero state is the one invalid state; SplitMix64 cannot
	// produce four consecutive zeros, but guard anyway.
	if x.s[0]|x.s[1]|x.s[2]|x.s[3] == 0 {
		x.s[0] = 0x9E3779B97F4A7C15
	}
	return &x
}

// Uint64 returns the next value in the xoshiro256++ stream.
func (x *Xoshiro256) Uint64() uint64 {
	result := bits.RotateLeft64(x.s[0]+x.s[3], 23) + x.s[0]
	t := x.s[1] << 17
	x.s[2] ^= x.s[0]
	x.s[3] ^= x.s[1]
	x.s[1] ^= x.s[2]
	x.s[0] ^= x.s[3]
	x.s[2] ^= t
	x.s[3] = bits.RotateLeft64(x.s[3], 45)
	return result
}

// Intn returns a uniformly distributed int in [0, n). It panics if
// n <= 0. Lemire's multiply-shift rejection method is used to avoid
// modulo bias without divisions in the common case.
func (x *Xoshiro256) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn called with n <= 0")
	}
	return int(x.Uint64n(uint64(n)))
}

// Uint64n returns a uniformly distributed uint64 in [0, n).
// It panics if n == 0.
func (x *Xoshiro256) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("xrand: Uint64n called with n == 0")
	}
	// Lemire 2018: multiply-shift with rejection.
	hi, lo := bits.Mul64(x.Uint64(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(x.Uint64(), n)
		}
	}
	return hi
}

// Float64 returns a uniformly distributed float64 in [0, 1).
func (x *Xoshiro256) Float64() float64 {
	return float64(x.Uint64()>>11) / (1 << 53)
}

// Perm returns a pseudo-random permutation of [0, n) as a slice,
// generated with a Fisher-Yates shuffle.
func (x *Xoshiro256) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	x.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// Shuffle pseudo-randomizes the order of n elements using swap,
// mirroring the contract of math/rand.Shuffle.
func (x *Xoshiro256) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := x.Intn(i + 1)
		swap(i, j)
	}
}
