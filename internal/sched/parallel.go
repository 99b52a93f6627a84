package sched

// defaultGrain is the default minimum number of loop iterations a
// worker claims at once in dynamic schedules. It is large enough to
// amortise the atomic fetch-add, small enough to load-balance the
// skewed per-vertex work of power-law graphs.
const defaultGrain = 1024

// ForStatic splits [0, n) into one contiguous range per worker and
// runs fn(worker, lo, hi) on each. Ranges differ in size by at most
// one. It blocks until all workers finish. Static scheduling is used
// where per-element work is uniform (e.g. buffer merging). The split
// happens inside the pool workers, so the call allocates nothing.
//
//ihtl:noalloc
func (p *Pool) ForStatic(n int, fn func(worker, lo, hi int)) {
	if n <= 0 {
		return
	}
	p.dispatch(job{staticN: n, rangeFn: fn})
}

// SplitRange returns the w-th of p near-equal contiguous subranges of
// [0, n) — the static split ForStatic uses, exported for callers that
// partition work inside a fused Pool.Run region.
//
//ihtl:noalloc
func SplitRange(n, p, w int) (lo, hi int) { return splitRange(n, p, w) }

// splitRange returns the w-th of p near-equal contiguous subranges
// of [0, n).
//
//ihtl:noalloc
func splitRange(n, p, w int) (lo, hi int) {
	q, r := n/p, n%p
	lo = w*q + min(w, r)
	hi = lo + q
	if w < r {
		hi++
	}
	return lo, hi
}

// ForDynamic runs fn(worker, lo, hi) over chunks of [0, n) claimed
// with an atomic counter (guided self-scheduling). grain is the chunk
// size; grain <= 0 selects a default. Dynamic scheduling load-balances
// skewed work such as per-vertex edge loops. The claim loop runs
// inside the pool workers over the pool's reusable counter, so the
// call allocates nothing.
//
//ihtl:noalloc
func (p *Pool) ForDynamic(n, grain int, fn func(worker, lo, hi int)) {
	if n <= 0 {
		return
	}
	if grain <= 0 {
		grain = defaultGrain
	}
	p.dispatch(job{dynN: n, grain: grain, rangeFn: fn})
}

//ihtl:noalloc
func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
