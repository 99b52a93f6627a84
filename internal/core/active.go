package core

import (
	"math"
	"math/bits"

	"ihtl/internal/spmv"
	"ihtl/internal/unchecked"
)

// Active-row batched steps. A personalised-PageRank batch starts as K
// non-zero rows and, on a graph of any diameter, stays a few per cent
// of the rows for many iterations (DESIGN.md §8, "Active rows"), while
// a dense K-lane Step loads a 64-byte lane row per edge to add what is
// almost always +0.0. StepBatchActiveCtx (shell.go) takes the driver's
// word for which rows are worth loading — one bit a row — and says
// which rows of the result it wrote, so that the driver's epilogue can
// skip the rest too. Skipping a +0.0 addend is the identity every
// zero-skipping kernel here already relies on (spmv.SkipZero), so each
// lane of each written row is bit for bit what the dense Step stores.
//
// Two kernels, both at run-time K: lane arithmetic runs on the few
// active rows only, so the time is in the bit probes, not the lanes.
// Engine.setActive says which engines have them.

// pushTaskActive is pushTaskFlatBatch reading a source's SkipZeroLanes
// verdict from its bit instead of from its lanes: 64 rows per zero word,
// and a row's lanes loaded only to be pushed.
//
//ihtl:noalloc
//ihtl:nobce
//ihtl:noescape
func pushTaskActive(k int, bt *blockTask, fb *FlippedBlock, active []uint64, src, buf []float64) {
	idx, dsts := fb.Index, fb.Dsts
	for wi := bt.lo >> 6; wi<<6 < bt.hi; wi++ {
		word := unchecked.At(active, wi) & spmv.RangeMask(wi, bt.lo, bt.hi)
		for ; word != 0; word &= word - 1 {
			s := wi<<6 + bits.TrailingZeros64(word)
			xs := unchecked.SliceAt(src, s*k, k)
			end := unchecked.At(idx, s+1)
			for i := unchecked.At(idx, s); i < end; i++ {
				db := int(unchecked.At(dsts, int(i))) * k
				for j, x := range xs {
					unchecked.AddAt(buf, db+j, x)
				}
			}
		}
	}
}

// rowIn is RowSet.Has without the bounds check.
//
//ihtl:noalloc
func rowIn(set []uint64, r int) bool { return unchecked.At(set, r>>6)>>(uint(r)&63)&1 != 0 }

// noDegreeCap is pullRowsActive's maxDeg for the schedules that pull
// every row of their range.
const noDegreeCap = math.MaxInt64

// pullRowsActive pulls the sparse rows of [lo, hi) shorter than maxDeg
// that have an active source. It walks the range's EDGES, not its rows —
// one predictable branch per edge on the source's bit, no loop exit per
// row (the rows average under two edges on a web graph, DESIGN.md §17) —
// and only on a hit finds the row it is in, from the last one found. That
// row gets its lane sums — its active sources added in edge order from
// +0.0, which is the dense sum with the +0.0 addends left out — and its
// bit in touched; every other row is left unwritten. Parts meet inside
// words, so the bits go in with an atomic or, a word at a time.
//
//ihtl:noalloc
//ihtl:nobce
//ihtl:noescape
func pullRowsActive(k int, sp *SparseBlock, lo, hi int, maxDeg int64, active, touched []uint64, src, dst []float64) {
	idx, srcs := sp.Index, sp.Srcs
	row, wi, word := lo, 0, uint64(0)
	end := unchecked.At(idx, hi)
	for jj := unchecked.At(idx, lo); jj < end; jj++ {
		if !rowIn(active, int(unchecked.At(srcs, int(jj)))) {
			continue
		}
		row = rowOfEdgeFrom(idx, jj, row)
		rowEnd := unchecked.At(idx, row+1)
		if rowEnd-unchecked.At(idx, row) < maxDeg {
			r := sp.DestLo + row
			db := r * k
			clear(unchecked.SliceAt(dst, db, k))
			for ; jj < rowEnd; jj++ {
				if u := int(unchecked.At(srcs, int(jj))); rowIn(active, u) {
					for j, x := range unchecked.SliceAt(src, u*k, k) {
						unchecked.AddAt(dst, db+j, x)
					}
				}
			}
			if r>>6 != wi {
				if word != 0 {
					spmv.PutWord(unchecked.PtrAt(touched, wi), word, word)
				}
				wi, word = r>>6, 0
			}
			word |= 1 << (uint(r) & 63)
		}
		jj = rowEnd - 1
	}
	if word != 0 {
		spmv.PutWord(unchecked.PtrAt(touched, wi), word, word)
	}
}
