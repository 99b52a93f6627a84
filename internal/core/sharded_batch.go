package core

// The width switches of the shard exchange and their K-lane forms: the
// bin and drain claim loops of sharded.go (and the phased part jobs)
// hand every chunk and bucket here, and a one-lane step goes on to the
// scalar bodies there.

import (
	"ihtl/internal/spmv"
	"ihtl/internal/unchecked"
)

// xBinChunkBatch is xBinChunk with K-wide lanes: one slot per cross
// edge as in the scalar path (the shared cursors advance by one), K
// contiguous values per slot. All-(+0.0) lane groups are skipped with
// the scalar path's bit-transparency argument applied lane-wise.
//
//ihtl:noalloc
//ihtl:nobce
//ihtl:noescape
func (se *ShardedEngine) xBinChunkBatch(c int, src []float64) {
	x := se.x
	k := se.curK
	if k == 1 {
		se.xBinChunk(c, src)
		return
	}
	C := x.numChunks
	binCur, binOff := x.binCur, x.binOff
	for b := 0; b < x.numBuckets; b++ {
		unchecked.SetAt(binCur, b*C+c, unchecked.At(binOff, b*C+c))
	}
	shift := x.shift
	xIndex, xRows := x.xIndex, x.xRows
	binRows, binVals := x.binRows, se.xBinVals
	sLo, sHi := unchecked.At(x.chunkBounds, c), unchecked.At(x.chunkBounds, c+1)
	for s := sLo; s < sHi; s++ {
		xs := unchecked.SliceAt(src, s*k, k)
		if spmv.SkipZeroLanes(xs) {
			continue
		}
		end := unchecked.At(xIndex, s+1)
		for i := unchecked.At(xIndex, s); i < end; i++ {
			row := unchecked.At(xRows, int(i))
			seg := int(row>>shift)*C + c
			p := unchecked.At(binCur, seg)
			unchecked.SetAt(binRows, int(p), row)
			copy(unchecked.SliceAt(binVals, int(p)*k, k), xs)
			unchecked.SetAt(binCur, seg, p+1)
		}
	}
}

// xDrainBucketBatch is xDrainBucket with K-wide lanes; same no-zeroing
// add-onto-local discipline.
//
//ihtl:noalloc
//ihtl:nobce
//ihtl:noescape
func (se *ShardedEngine) xDrainBucketBatch(b int, dst []float64) {
	x := se.x
	k := se.curK
	if k == 1 {
		se.xDrainBucket(b, dst)
		return
	}
	C := x.numChunks
	binOff, binCur := x.binOff, x.binCur
	binRows, binVals := x.binRows, se.xBinVals
	for c := 0; c < C; c++ {
		seg := b*C + c
		end := unchecked.At(binCur, seg)
		for p := unchecked.At(binOff, seg); p < end; p++ {
			row := int(unchecked.At(binRows, int(p)))
			vals := unchecked.SliceAt(binVals, int(p)*k, k)
			out := unchecked.SliceAt(dst, row*k, k)
			for j := 0; j < k; j++ {
				unchecked.AddAt(out, j, unchecked.At(vals, j))
			}
		}
	}
}
