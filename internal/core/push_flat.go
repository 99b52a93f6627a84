package core

import (
	"ihtl/internal/graph"
	"ihtl/internal/spmv"
	"ihtl/internal/unchecked"
)

// The flat (uncompressed) flipped-push kernels: one encoded task's
// worth of src[s] -> hub scatter, shared by the fused workers and the
// phased ablation so the inner loop exists exactly once per shape.
// These are the Algorithm 3 lines 1-4 inner loops; together with
// their varint twins in encoding.go they are //ihtl:nobce — the
// ihtlvet -bce gate pins them free of per-edge bounds checks, which
// is why every access goes through the spmv unchecked accessors
// (indices are graph data no BCE analysis can prove in range; see
// spmv/unchecked.go for the safety argument).

// pushTaskBatch pushes task bt k lanes wide, and is the one place the
// fused worker and the phased ablation pick a dense flipped kernel: the
// scalar bodies at one lane, the register-resident bodies (lanes.go) at
// 8 lanes over flat topology — its AVX2 body while laneAsm is set,
// prefetching at the width's distance — and 4 over packed gap rows, the
// generic lane loop for everything else.
// The K-lane kernels walk CSR whatever the block's layout.
//
//ihtl:noalloc
func (e *Engine) pushTaskBatch(k int, bt *blockTask, src, buf []float64) {
	fb := &e.ih.Blocks[bt.block]
	// The 8-lane arm is an if/else, as in pullRowLanes: of the forms
	// tried it is the one that keeps every function linked after this
	// one at the entry address mod 64 it had before (DESIGN.md §8).
	switch {
	case k == 1:
		e.pushTask(bt, src, buf)
	case k == 8 && !e.varint:
		if laneAsm {
			pushTaskFlat8AVX2(fb.Index, fb.Dsts, bt.lo, bt.hi, src, buf, e.batch.prefetch)
		} else {
			pushTaskFlat8(bt, fb, src, buf)
		}
	case k == 4 && e.varint:
		pushTaskEnc4(bt, fb, src, buf)
	case e.varint:
		pushTaskEncBatch(k, bt, fb, src, buf)
	default:
		pushTaskFlatBatch(k, bt, fb, src, buf)
	}
}

// pushTask pushes task bt into a worker-owned hub buffer one lane wide,
// under the engine's encoding and the block's layout: the width-1 arm
// of pushTaskBatch.
//
//ihtl:noalloc
func (e *Engine) pushTask(bt *blockTask, src, buf []float64) {
	fb := &e.ih.Blocks[bt.block]
	if e.varint {
		pushTaskEnc(bt, fb, src, buf)
	} else if adv := e.flipAdv[bt.block]; adv != nil {
		pushTaskEdgeMajor(bt, fb, adv, src, buf)
	} else if dist := pushPrefetch; dist > 0 {
		pushTaskFlatAsm(fb.Index, fb.Dsts, bt.lo, bt.hi, src, buf, dist)
	} else {
		pushTaskFlat(bt, fb, src, buf)
	}
}

// pushTaskFlat pushes flat task bt of block fb into a worker-owned
// hub buffer. It is the Go twin of pushTaskFlatAsm, which pushTask runs
// instead while pushPrefetch is set: the same adds, prefetching the
// hub entry of the edge pushPrefetch ahead.
//
//ihtl:noalloc
//ihtl:nobce
//ihtl:noescape
func pushTaskFlat(bt *blockTask, fb *FlippedBlock, src, buf []float64) {
	idx, dsts := fb.Index, fb.Dsts
	for s := bt.lo; s < bt.hi; s++ {
		x := unchecked.At(src, s)
		if spmv.SkipZero(x) {
			continue
		}
		end := unchecked.At(idx, s+1)
		for i := unchecked.At(idx, s); i < end; i++ {
			unchecked.AddAt(buf, int(unchecked.At(dsts, int(i))), x)
		}
	}
}

// pushTaskEdgeMajor is pushTaskFlat over the adv stream: the task's
// edges [Index[lo], Index[hi]) in one loop, two to a byte of adv,
// starting from the row of the edge before them (bt.prev). The pairs go
// through pushEdgePairs or its prefetching assembly (pushPrefetch
// picks); the edges they leave — one on a byte's second nibble, an
// escape, the task's odd last edge — are taken here, one at a time.
//
//ihtl:noalloc
//ihtl:nobce
//ihtl:noescape
func pushTaskEdgeMajor(bt *blockTask, fb *FlippedBlock, adv []uint8, src, buf []float64) {
	idx, dsts := fb.Index, fb.Dsts
	dist := pushPrefetch
	s := bt.prev
	i, end := int(unchecked.At(idx, bt.lo)), int(unchecked.At(idx, bt.hi))
	for i < end {
		if i&1 == 0 {
			if dist > 0 {
				i, s = pushEdgePairsAsm(adv, dsts, src, buf, i, end, s, dist)
			} else {
				i, s = pushEdgePairs(adv, dsts, src, buf, i, end, s)
			}
			if i == end {
				break
			}
		}
		s = advance(idx, i, s, advAt(adv, i))
		unchecked.AddAt(buf, int(unchecked.At(dsts, i)), unchecked.At(src, s))
		i++
	}
}

// pushEdgePairs is the pair loop of pushTaskEdgeMajor and the Go twin of
// its assembly body, pushEdgePairsAsm. From an even edge i, while
// i+1 < end, it moves s by each edge's nibble and adds src[s] into
// buf[dsts[i]] — the hub entry is the add's first operand. It stops at
// the first escape nibble, which it leaves to the caller, and returns
// the edge it stopped at (end or end-1 when the pairs ran out) and the
// source of the edge before it.
//
//ihtl:noalloc
//ihtl:nobce
//ihtl:noescape
func pushEdgePairs(adv []uint8, dsts []graph.VID, src, buf []float64, i, end, s int) (int, int) {
	for ; i+1 < end; i += 2 {
		b := unchecked.At(adv, i>>1)
		if b&advEscape == advEscape {
			return i, s
		}
		s += int(b & advEscape)
		unchecked.AddAt(buf, int(unchecked.At(dsts, i)), unchecked.At(src, s))
		if b>>4 == advEscape {
			return i + 1, s
		}
		s += int(b >> 4)
		unchecked.AddAt(buf, int(unchecked.At(dsts, i+1)), unchecked.At(src, s))
	}
	return i, s
}

// pushTaskFlatBatch is pushTaskFlat with K-wide lanes, K a run-time
// value: the fallback for what lanes.go has no fixed body for.
//
//ihtl:noalloc
//ihtl:nobce
//ihtl:noescape
func pushTaskFlatBatch(k int, bt *blockTask, fb *FlippedBlock, src, buf []float64) {
	idx, dsts := fb.Index, fb.Dsts
	for s := bt.lo; s < bt.hi; s++ {
		xs := unchecked.SliceAt(src, s*k, k)
		if spmv.SkipZeroLanes(xs) {
			continue
		}
		end := unchecked.At(idx, s+1)
		for i := unchecked.At(idx, s); i < end; i++ {
			db := int(unchecked.At(dsts, int(i))) * k
			for j, x := range xs {
				unchecked.AddAt(buf, db+j, x)
			}
		}
	}
}
