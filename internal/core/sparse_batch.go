package core

// The width switch of the sparse parts and its K-lane forms. The claim
// loop of sparse.go hands each part to sparsePullPartBatch, which picks
// its body once per part: the active-row pull (active.go) when the step
// is one, else the scalar part of sparse.go at one lane, else the lane
// loop below. The parts do not depend on the width; only the partial
// sums are K lanes wide, and the determinism argument of sparse.go
// applies per lane unchanged.

import "ihtl/internal/unchecked"

// sparsePullPartBatch pulls part p of the uniform schedule at width
// b.k, partial sums accumulated in place in dst's contiguous lane rows,
// which each destination owns exclusively.
//
//ihtl:noalloc
func (e *Engine) sparsePullPartBatch(p int, src, dst []float64) {
	b := &e.batch
	lo, hi := e.sparseBounds[p], e.sparseBounds[p+1]
	if b.active != nil {
		pullRowsActive(b.k, &e.ih.Sparse, lo, hi, b.active, b.touched, src, dst)
		return
	}
	if b.k == 1 {
		e.sparsePullPart(p, src, dst)
		return
	}
	for i := lo; i < hi; i++ {
		e.pullRowLanes(i, b.k, src, dst)
	}
}

// pullRowLanes pulls sparse row i K lanes wide into its dst lanes,
// source by source in ascending order from +0.0: the one row body of
// the K-lane pull, and the one place the batched pull picks its body
// (see Engine.pushTaskBatch): the cells at 4 and 8 lanes run their
// AVX2 bodies while laneAsm is set, the 8-lane one prefetching at the
// width's distance.
//
//ihtl:noalloc
func (e *Engine) pullRowLanes(i, k int, src, dst []float64) {
	sp := &e.ih.Sparse
	lo, hi := sp.Index[i], sp.Index[i+1]
	db := (sp.DestLo + i) * k
	// The 8-lane arm is an if/else and the 4-lane arm two cases: that
	// size keeps every function linked after this one at the entry
	// address mod 64 it had before the assembly arms (DESIGN.md §8).
	switch {
	case k == 8:
		if out := unchecked.Lanes8At(dst, db); laneAsm {
			pullRowFlat8AVX2(sp.Srcs, lo, hi, src, out, e.batch.prefetch)
		} else {
			pullRowFlat8(sp.Srcs, lo, hi, src, out)
		}
	case k == 4 && laneAsm:
		pullRowFlat4AVX2(sp.Srcs, lo, hi, src, unchecked.Lanes4At(dst, db))
	case k == 4:
		pullRowFlat4(sp.Srcs, lo, hi, src, unchecked.Lanes4At(dst, db))
	default:
		e.pullRowGeneric(i, k, src, dst[db:db+k:db+k])
	}
}

// pullRowGeneric is the row body for a run-time K: one loop trip per
// lane per edge, the fallback for what lanes.go has no fixed body for.
//
//ihtl:noalloc
func (e *Engine) pullRowGeneric(i, k int, src, out []float64) {
	clear(out)
	sp := &e.ih.Sparse
	for jj := sp.Index[i]; jj < sp.Index[i+1]; jj++ {
		sb := int(sp.Srcs[jj]) * k
		xs := src[sb : sb+k : sb+k]
		for j, x := range xs {
			out[j] += x
		}
	}
}
