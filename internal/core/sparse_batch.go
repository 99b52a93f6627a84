package core

// The width switches of the sparse parts and their K-lane forms. Every
// claim loop of sparse.go and every phase-3 dispatch of the phased
// pipeline hands a part to one of the *Batch functions here, which
// picks its body once per part: the active-row pull (active.go) when
// the step is one, else the scalar part of sparse.go at one lane, else
// the lane loop below. The schedule state does not depend on the width
// — same chunk bounds, same segment offsets and cursors, same pull
// parts — only the contributions are K lanes wide: bin slot p's lanes
// live at pbState.binVals[p*k : (p+1)*k], mirroring the vertex-major
// interleave of the vectors themselves. The determinism argument of
// sparse.go applies per lane unchanged.

import (
	"ihtl/internal/spmv"
	"ihtl/internal/unchecked"
)

// sparsePullPartBatch pulls part p of the uniform schedule at width
// b.k, partial sums accumulated in place in dst's contiguous lane rows,
// which each destination owns exclusively.
//
//ihtl:noalloc
func (e *Engine) sparsePullPartBatch(b *batchState, p int, src, dst []float64) {
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
// (see Engine.pushTaskBatch): the flat cells at 4 and 8 lanes run their
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
	case k == 8 && !e.varint:
		if out := unchecked.Lanes8At(dst, db); laneAsm {
			pullRowFlat8AVX2(sp.Srcs, lo, hi, src, out, e.batch.prefetch)
		} else {
			pullRowFlat8(sp.Srcs, lo, hi, src, out)
		}
	case k == 4 && !e.varint && laneAsm:
		pullRowFlat4AVX2(sp.Srcs, lo, hi, src, unchecked.Lanes4At(dst, db))
	case k == 4 && !e.varint:
		pullRowFlat4(sp.Srcs, lo, hi, src, unchecked.Lanes4At(dst, db))
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

// pbBinChunkBatch is pbBinChunk with K lanes copied per appended slot.
// SkipZeroLanes skips a source only when ALL lanes are +0.0, which is
// bit-transparent per lane by the sparse.go argument.
//
//ihtl:noalloc
func (e *Engine) pbBinChunkBatch(bs *batchState, c int, src []float64) {
	pb := e.pb
	k := bs.k
	if k == 1 {
		e.pbBinChunk(c, src)
		return
	}
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
			copy(pb.binVals[vb:vb+int64(k):vb+int64(k)], xs)
			pb.binCur[seg] = p + 1
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
	if k == 1 {
		e.pbDrainBucket(b, dst)
		return
	}
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
			xs := pb.binVals[vb : vb+int64(k) : vb+int64(k)]
			for j, x := range xs {
				out[j] += x
			}
		}
	}
}
