package sched

// prefixSumCutoff is the array length below which the blocked parallel
// prefix sum falls back to the sequential scan: under it the two
// dispatch barriers cost more than the scan itself.
const prefixSumCutoff = 1 << 13

// PrefixSum computes the in-place inclusive prefix sum
// a[i] = a[0] + ... + a[i]. With a single worker or a short slice it
// runs sequentially; otherwise it uses the classic blocked two-pass
// scheme: each worker scans its static block locally,
// the per-block totals are prefix-summed sequentially (O(workers)),
// and a second pass adds each block's incoming offset. Both passes use
// the same ForStatic split, so the result is bit-for-bit identical to
// the sequential scan.
func PrefixSum(pool *Pool, a []int64) {
	n := len(a)
	if pool.Workers() <= 1 || n < prefixSumCutoff {
		prefixSumSeq(a)
		return
	}
	w := pool.Workers()
	// offs[i+1] holds block i's total after pass 1, and after the
	// sequential fold offs[i] is the offset to add to block i.
	offs := make([]int64, w+1)
	//ihtl:allow-nosite scan blocks are memory-only; build callers inject via their own fill sites
	pool.ForStatic(n, func(worker, lo, hi int) {
		offs[worker+1] = prefixSumBlock(a[lo:hi])
	})
	for i := 0; i < w; i++ {
		offs[i+1] += offs[i]
	}
	//ihtl:allow-nosite scan blocks are memory-only; build callers inject via their own fill sites
	pool.ForStatic(n, func(worker, lo, hi int) {
		addOffset(a[lo:hi], offs[worker])
	})
}

// prefixSumSeq is the sequential inclusive scan.
//
//ihtl:noalloc
func prefixSumSeq(a []int64) {
	var s int64
	for i := range a {
		s += a[i]
		a[i] = s
	}
}

// prefixSumBlock scans one block in place and returns its total.
//
//ihtl:noalloc
func prefixSumBlock(a []int64) int64 {
	var s int64
	for i := range a {
		s += a[i]
		a[i] = s
	}
	return s
}

// addOffset adds off to every element (pass 2 of the blocked scan).
//
//ihtl:noalloc
func addOffset(a []int64, off int64) {
	if off == 0 {
		return
	}
	for i := range a {
		a[i] += off
	}
}
