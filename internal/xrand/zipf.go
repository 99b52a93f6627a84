package xrand

import "math"

// Zipf samples integers in [0, n) with probability proportional to
// 1/(k+1)^s, i.e. a power-law over ranks. It is used by the web-graph
// generator to pick hub targets with a heavy-tailed distribution.
//
// The implementation uses the rejection-inversion method of Hörmann
// and Derflinger ("Rejection-inversion to generate variates from
// monotone discrete distributions", 1996), the same algorithm as
// math/rand.Zipf, reimplemented on top of Xoshiro256 for determinism.
type Zipf struct {
	rng          *Xoshiro256
	imax         float64
	v            float64
	q            float64
	s            float64
	oneminusQ    float64
	oneminusQinv float64
	hxm          float64
	hx0minusHxm  float64
}

// NewZipf returns a Zipf sampler over [0, n) with exponent s > 1 and
// value shift v >= 1. Probability of k is proportional to
// (v + k)**(-s). It panics on invalid parameters.
func NewZipf(rng *Xoshiro256, s float64, v float64, n uint64) *Zipf {
	if rng == nil || s <= 1 || v < 1 || n == 0 {
		panic("xrand: invalid Zipf parameters")
	}
	z := &Zipf{rng: rng, s: s, v: v, imax: float64(n - 1)}
	z.q = s
	z.oneminusQ = 1 - z.q
	z.oneminusQinv = 1 / z.oneminusQ
	z.hxm = z.h(z.imax + 0.5)
	z.hx0minusHxm = z.h(0.5) - math.Exp(math.Log(z.v)*(-z.q)) - z.hxm
	return z
}

func (z *Zipf) h(x float64) float64 {
	return math.Exp(z.oneminusQ*math.Log(z.v+x)) * z.oneminusQinv
}

func (z *Zipf) hinv(x float64) float64 {
	return math.Exp(z.oneminusQinv*math.Log(z.oneminusQ*x)) - z.v
}

// Uint64 returns a Zipf-distributed value in [0, n).
func (z *Zipf) Uint64() uint64 {
	for {
		r := z.rng.Float64()
		ur := z.hxm + r*z.hx0minusHxm
		x := z.hinv(ur)
		k := math.Floor(x + 0.5)
		if k-x <= z.s {
			return uint64(k)
		}
		if ur >= z.h(k+0.5)-math.Exp(-math.Log(k+z.v)*z.q) {
			return uint64(k)
		}
	}
}

// PowerLawDegrees draws n integer degrees whose distribution follows a
// discrete power law with exponent alpha (> 1), truncated to
// [minDeg, maxDeg]. The result is deterministic in (rng state, args).
// It is used to synthesise degree sequences with controllable skew.
func PowerLawDegrees(rng *Xoshiro256, n int, alpha float64, minDeg, maxDeg int) []int {
	if n < 0 || alpha <= 1 || minDeg < 0 || maxDeg < minDeg {
		panic("xrand: invalid PowerLawDegrees parameters")
	}
	out := make([]int, n)
	if n == 0 {
		return out
	}
	// Inverse-CDF sampling of a continuous power law, then floor.
	// P(X > x) = (x/minDeg)^(1-alpha) for x >= minDeg.
	lo := float64(minDeg)
	if lo < 1 {
		lo = 1
	}
	hi := float64(maxDeg)
	oneMinusAlpha := 1 - alpha
	loPow := math.Pow(lo, oneMinusAlpha)
	hiPow := math.Pow(hi, oneMinusAlpha)
	for i := range out {
		u := rng.Float64()
		x := math.Pow(loPow+u*(hiPow-loPow), 1/oneMinusAlpha)
		d := int(x)
		if d < minDeg {
			d = minDeg
		}
		if d > maxDeg {
			d = maxDeg
		}
		out[i] = d
	}
	return out
}
