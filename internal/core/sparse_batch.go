package core

// K-wide (StepBatch) variants of the sparse kernels in sparse.go. The
// schedule state is shared with the scalar path — same chunk bounds,
// same segment offsets and cursors, same heavy/light parts — only the
// contributions are K lanes wide: bin slot p's lanes live at
// batchState.binVals[p*k : (p+1)*k], mirroring the vertex-major
// interleave of the vectors themselves. The determinism argument of
// sparse.go applies per lane unchanged.

import (
	"time"

	"ihtl/internal/faultinject"
	"ihtl/internal/spmv"
	"ihtl/internal/unchecked"
)

// sparseWorkerBatch is sparseWorker with K-wide lanes: it runs worker
// w's share of the configured sparse kernel and records the same
// per-phase clocks.
//
//ihtl:noalloc
func (e *Engine) sparseWorkerBatch(b *batchState, w int, src, dst []float64) {
	clk := &e.clocks[w]
	switch e.sparseKernel {
	case SparsePullDegree:
		t0 := time.Now()
		e.sparseHeavyWorkerBatch(b, w, src, dst)
		e.sparseLightWorkerBatch(b, w, src, dst)
		clk.sparse += time.Since(t0)
	case SparsePB:
		if e.pb == nil {
			return
		}
		t0 := time.Now()
		e.pbBinWorkerBatch(b, w, src)
		t1 := time.Now()
		clk.bin += t1.Sub(t0)
		if !e.binBarrier.WaitAbort(e.pool) {
			return
		}
		t2 := time.Now()
		e.pbDrainWorkerBatch(b, w, dst)
		clk.drain += time.Since(t2)
	default:
		t0 := time.Now()
		e.sparsePullWorkerBatch(b, w, src, dst)
		clk.sparse += time.Since(t0)
	}
}

// sparsePullWorkerBatch drains the baseline K-wide pull with partial
// sums accumulated in place in dst's contiguous lane rows, which each
// destination owns exclusively.
//
//ihtl:noalloc
func (e *Engine) sparsePullWorkerBatch(b *batchState, w int, src, dst []float64) {
	nparts := len(e.sparseBounds) - 1
	if nparts <= 0 {
		return
	}
	for !e.pool.Aborted() {
		lo, hi, ok := e.sparseSched.Next(w, 1)
		if !ok {
			return
		}
		faultinject.Fire(faultinject.SiteSparsePart)
		for p := lo; p < hi; p++ {
			e.sparsePullRangeBatch(b, e.sparseBounds[p], e.sparseBounds[p+1], src, dst)
		}
	}
}

// sparsePullRangeBatch pulls rows [lo, hi) K lanes wide. Like the heavy
// and light parts below, an active-row step (active.go) hands its rows
// to pullRowsActive instead.
//
//ihtl:noalloc
func (e *Engine) sparsePullRangeBatch(b *batchState, lo, hi int, src, dst []float64) {
	if b.active != nil {
		pullRowsActive(b.k, &e.ih.Sparse, lo, hi, noDegreeCap, b.active, b.touched, src, dst)
		return
	}
	for i := lo; i < hi; i++ {
		e.pullRowLanes(i, b.k, src, dst)
	}
}

// pullRowLanes pulls sparse row i K lanes wide into its dst lanes,
// source by source in ascending order from +0.0: the one row body of
// the pull, heavy and light parts, and the one place the batched pull
// picks its body (see Engine.pushTaskBatch).
//
//ihtl:noalloc
func (e *Engine) pullRowLanes(i, k int, src, dst []float64) {
	sp := &e.ih.Sparse
	lo, hi := sp.Index[i], sp.Index[i+1]
	db := (sp.DestLo + i) * k
	switch {
	case k == 8 && !e.varint:
		pullRowFlat8(sp.Srcs, lo, hi, src, unchecked.Lanes8At(dst, db))
	case k == 4 && e.varint:
		pullRowEnc4(sp.Enc.Data, int(e.sparseRowOff[i]), hi-lo, src, unchecked.Lanes4At(dst, db))
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
	if e.varint {
		e.sparseRowAccEnc(i, k, src, out)
		return
	}
	sp := &e.ih.Sparse
	for jj := sp.Index[i]; jj < sp.Index[i+1]; jj++ {
		sb := int(sp.Srcs[jj]) * k
		xs := src[sb : sb+k : sb+k]
		for j, x := range xs {
			out[j] += x
		}
	}
}

// sparseHeavyWorkerBatch claims heavy-list parts like its scalar
// counterpart; rows stay whole per worker.
//
//ihtl:noalloc
func (e *Engine) sparseHeavyWorkerBatch(b *batchState, w int, src, dst []float64) {
	nparts := len(e.heavyBounds) - 1
	if nparts <= 0 {
		return
	}
	for !e.pool.Aborted() {
		lo, hi, ok := e.auxSched.Next(w, 1)
		if !ok {
			return
		}
		faultinject.Fire(faultinject.SiteSparsePart)
		for p := lo; p < hi; p++ {
			e.sparseHeavyPartBatch(b, p, src, dst)
		}
	}
}

//ihtl:noalloc
func (e *Engine) sparseHeavyPartBatch(b *batchState, p int, src, dst []float64) {
	sp := &e.ih.Sparse
	for _, row := range sp.Heavy[e.heavyBounds[p]:e.heavyBounds[p+1]] {
		if b.active != nil {
			pullRowsActive(b.k, sp, int(row), int(row)+1, noDegreeCap, b.active, b.touched, src, dst)
		} else {
			e.pullRowLanes(int(row), b.k, src, dst)
		}
	}
}

// sparseLightWorkerBatch pulls the short rows in coarse chunks.
//
//ihtl:noalloc
func (e *Engine) sparseLightWorkerBatch(b *batchState, w int, src, dst []float64) {
	nparts := len(e.lightBounds) - 1
	if nparts <= 0 {
		return
	}
	for !e.pool.Aborted() {
		lo, hi, ok := e.sparseSched.Next(w, 1)
		if !ok {
			return
		}
		faultinject.Fire(faultinject.SiteSparsePart)
		for p := lo; p < hi; p++ {
			e.sparseLightPartBatch(b, p, src, dst)
		}
	}
}

//ihtl:noalloc
func (e *Engine) sparseLightPartBatch(b *batchState, p int, src, dst []float64) {
	sp := &e.ih.Sparse
	heavy := sp.HeavyDeg
	if b.active != nil {
		pullRowsActive(b.k, sp, e.lightBounds[p], e.lightBounds[p+1], heavy, b.active, b.touched, src, dst)
		return
	}
	for i := e.lightBounds[p]; i < e.lightBounds[p+1]; i++ {
		if sp.Index[i+1]-sp.Index[i] < heavy {
			e.pullRowLanes(i, b.k, src, dst)
		}
	}
}

// pbBinWorkerBatch claims source chunks for the K-wide bin phase.
//
//ihtl:noalloc
func (e *Engine) pbBinWorkerBatch(b *batchState, w int, src []float64) {
	for !e.pool.Aborted() {
		lo, hi, ok := e.sparseSched.Next(w, 1)
		if !ok {
			return
		}
		faultinject.Fire(faultinject.SiteSparseBin)
		for c := lo; c < hi; c++ {
			e.pbBinChunkBatch(b, c, src)
		}
	}
}

// pbBinChunkBatch is pbBinChunk with K lanes copied per appended slot.
// SkipZeroLanes skips a source only when ALL lanes are +0.0, which is
// bit-transparent per lane by the sparse.go argument.
//
//ihtl:noalloc
func (e *Engine) pbBinChunkBatch(bs *batchState, c int, src []float64) {
	pb := e.pb
	k := bs.k
	C := pb.numChunks
	for b := 0; b < pb.numBuckets; b++ {
		pb.binCur[b*C+c] = pb.binOff[b*C+c]
	}
	shift := pb.shift
	for s := pb.chunkBounds[c]; s < pb.chunkBounds[c+1]; s++ {
		sb := s * k
		xs := src[sb : sb+k : sb+k]
		if spmv.SkipZeroLanes(xs) {
			continue
		}
		for i := pb.pushIndex[s]; i < pb.pushIndex[s+1]; i++ {
			row := pb.pushRows[i]
			seg := int(row>>shift)*C + c
			p := pb.binCur[seg]
			pb.binRows[p] = row
			vb := p * int64(k)
			copy(bs.binVals[vb:vb+int64(k)], xs)
			pb.binCur[seg] = p + 1
		}
	}
}

// pbDrainWorkerBatch claims whole destination buckets for the K-wide
// drain phase.
//
//ihtl:noalloc
func (e *Engine) pbDrainWorkerBatch(b *batchState, w int, dst []float64) {
	for !e.pool.Aborted() {
		lo, hi, ok := e.auxSched.Next(w, 1)
		if !ok {
			return
		}
		faultinject.Fire(faultinject.SiteSparseDrain)
		for bkt := lo; bkt < hi; bkt++ {
			e.pbDrainBucketBatch(b, bkt, dst)
		}
	}
}

// pbDrainBucketBatch is pbDrainBucket with K-wide accumulation.
//
//ihtl:noalloc
func (e *Engine) pbDrainBucketBatch(bs *batchState, b int, dst []float64) {
	pb := e.pb
	sp := &e.ih.Sparse
	k := bs.k
	n := e.ih.NumV - sp.DestLo
	rowLo := b << pb.shift
	rowHi := rowLo + (1 << pb.shift)
	if rowHi > n {
		rowHi = n
	}
	base := sp.DestLo
	clear(dst[(base+rowLo)*k : (base+rowHi)*k])
	C := pb.numChunks
	for c := 0; c < C; c++ {
		seg := b*C + c
		for p := pb.binOff[seg]; p < pb.binCur[seg]; p++ {
			db := (base + int(pb.binRows[p])) * k
			out := dst[db : db+k : db+k]
			vb := p * int64(k)
			xs := bs.binVals[vb : vb+int64(k) : vb+int64(k)]
			for j, x := range xs {
				out[j] += x
			}
		}
	}
}
