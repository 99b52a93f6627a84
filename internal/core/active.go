package core

import (
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
// and a row's lanes loaded only to be pushed. Each hub it adds into gets
// its bit in hubBits, the worker's bits of the task's block (hub h at
// bit h − HubLo), which is all mergeBlockActive folds.
//
//ihtl:noalloc
//ihtl:nobce
//ihtl:noescape
func pushTaskActive(k int, bt *blockTask, fb *FlippedBlock, active []uint64, src, buf []float64, hubBits []uint64) {
	idx, dsts, hubLo := fb.Index, fb.Dsts, fb.HubLo
	for wi := bt.lo >> 6; wi<<6 < bt.hi; wi++ {
		word := unchecked.At(active, wi) & spmv.RangeMask(wi, bt.lo, bt.hi)
		for ; word != 0; word &= word - 1 {
			s := wi<<6 + bits.TrailingZeros64(word)
			xs := unchecked.SliceAt(src, s*k, k)
			end := unchecked.At(idx, s+1)
			for i := unchecked.At(idx, s); i < end; i++ {
				d := int(unchecked.At(dsts, int(i)))
				h := d - hubLo
				*unchecked.PtrAt(hubBits, h>>6) |= 1 << (uint(h) & 63)
				db := d * k
				for j, x := range xs {
					unchecked.AddAt(buf, db+j, x)
				}
			}
		}
	}
}

// mergeBlockActive is mergeBlock for an active-row step: it folds only
// the hubs of block blk some worker pushed into, which the workers' hub
// bits name. Each such hub is stored from +0.0 plus the lanes of every
// worker whose bit is set, in ascending worker order, those lanes zeroed
// as they are read, and is put into touched; a hub no bit names is not
// written. A worker whose bit is clear holds all +0.0 lanes there —
// nothing else writes a buffer — so leaving it out skips +0.0 addends
// only, and each written hub is bit for bit the dense merge's (DESIGN.md
// §8, "Why the bits are the dense run's"). The block's bit words are
// then cleared. The caller holds the block's completion, as mergeBlock's
// does; the hub words of touched go in atomically, because the block's
// first and last words may be shared with a neighbouring block's merge
// or with the sparse rows.
//
//ihtl:noalloc
func (e *Engine) mergeBlockActive(blk int, dst []float64) {
	fb := &e.ih.Blocks[blk]
	b := &e.batch
	k, touched := b.k, b.touched
	words := len(b.hubBits[0]) / len(e.ih.Blocks)
	base := blk * words
	twi, tword := 0, uint64(0)
	for wi := base; wi < base+(fb.HubHi-fb.HubLo+63)>>6; wi++ {
		reached := uint64(0)
		for w := range b.hubBits {
			reached |= b.hubBits[w][wi]
		}
		for m := reached; m != 0; m &= m - 1 {
			bit := uint(bits.TrailingZeros64(m))
			h := fb.HubLo + (wi-base)<<6 + int(bit)
			out := dst[h*k : h*k+k : h*k+k]
			clear(out)
			for w, hb := range b.hubBits {
				if hb[wi]>>bit&1 == 0 {
					continue
				}
				in := b.bufs[w][h*k : h*k+k : h*k+k]
				for j, x := range in {
					out[j] += x
				}
				clear(in)
			}
			if h>>6 != twi {
				if tword != 0 {
					spmv.PutWord(&touched[twi], tword, tword)
				}
				twi, tword = h>>6, 0
			}
			tword |= 1 << (uint(h) & 63)
		}
		for _, hb := range b.hubBits {
			hb[wi] = 0
		}
	}
	if tword != 0 {
		spmv.PutWord(&touched[twi], tword, tword)
	}
}

// rowIn is RowSet.Has without the bounds check.
//
//ihtl:noalloc
func rowIn(set []uint64, r int) bool { return unchecked.At(set, r>>6)>>(uint(r)&63)&1 != 0 }

// pullRowsActive pulls the sparse rows of [lo, hi) that have an active
// source. It walks the range's EDGES, not its rows — one predictable
// branch per edge on the source's bit, no loop exit per row (the rows
// average under two edges on a web graph, DESIGN.md §17) — and only on
// a hit finds the row it is in, from the last one found. That
// row gets its lane sums — its active sources added in edge order from
// +0.0, which is the dense sum with the +0.0 addends left out — and its
// bit in touched; every other row is left unwritten. Parts meet inside
// words, so the bits go in with an atomic or, a word at a time.
//
//ihtl:noalloc
//ihtl:nobce
//ihtl:noescape
func pullRowsActive(k int, sp *SparseBlock, lo, hi int, active, touched []uint64, src, dst []float64) {
	idx, srcs := sp.Index, sp.Srcs
	row, wi, word := lo, 0, uint64(0)
	end := unchecked.At(idx, hi)
	for jj := unchecked.At(idx, lo); jj < end; jj++ {
		if !rowIn(active, int(unchecked.At(srcs, int(jj)))) {
			continue
		}
		row = rowOfEdgeFrom(idx, jj, row)
		rowEnd := unchecked.At(idx, row+1)
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
		jj = rowEnd - 1
	}
	if word != 0 {
		spmv.PutWord(unchecked.PtrAt(touched, wi), word, word)
	}
}
