package main

import (
	"math"
	"slices"
	"time"
)

// median of x; NaN when x is empty.
func median(x []float64) float64 { return quantile(x, 0.5) }

// quantile is the q-quantile of x by linear interpolation between
// order statistics at (n+1)·q — for q = 1/4, 1/2, 3/4 exactly what
// Python's statistics.quantiles(x, n=4) returns, which is how the
// spreads in README.md and --compare are defined.
func quantile(x []float64, q float64) float64 {
	if len(x) == 0 {
		return math.NaN()
	}
	s := slices.Clone(x)
	slices.Sort(s)
	pos := float64(len(s)+1)*q - 1
	lo := int(math.Floor(pos))
	switch {
	case lo < 0:
		return s[0]
	case lo >= len(s)-1:
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// spread is the distance between the quartiles as a share of the median.
func spread(x []float64) float64 {
	if len(x) < 2 {
		return 0
	}
	return (quantile(x, 0.75) - quantile(x, 0.25)) / math.Abs(median(x))
}

// timeOp returns the wall time of fn in seconds.
func timeOp(fn func()) float64 {
	t0 := time.Now()
	fn()
	return time.Since(t0).Seconds()
}

// timeBlocks times `blocks` blocks of `per` calls of fn and returns
// the seconds per call of each block.
func timeBlocks(fn func(), per, blocks int) []float64 {
	out := make([]float64, blocks)
	for b := range out {
		out[b] = timeOp(func() {
			for i := 0; i < per; i++ {
				fn()
			}
		}) / float64(per)
	}
	return out
}

// blockShape picks how many calls of an operation taking opSeconds
// fill one block of about `block`, and how many such blocks fill
// `budget` seconds, never fewer than minBlocks.
func blockShape(opSeconds float64, block time.Duration, budget float64, minBlocks int) (per, blocks int) {
	per = max(1, int(block.Seconds()/opSeconds))
	blocks = max(minBlocks, int(budget/(float64(per)*opSeconds)))
	return per, blocks
}
