package spmv

// Batched (multi-vector) SpMM: one traversal of the edge stream drives
// K dense vectors at once. Vectors are VERTEX-MAJOR INTERLEAVED —
// vertex v's lane j lives at x[v*k+j] — so each loaded edge touches K
// contiguous float64 lanes of its source and destination. The kernels
// are otherwise identical to their scalar counterparts; the point of
// batching is that the irregular index stream (the bound resource of
// every kernel here, §4.3) is amortised over K lanes of useful
// arithmetic, the multi-vector SpMM argument.

// StepBatch is the step StepCtx runs, at width k, over the engine's
// direction: dst[v*k+j] = Σ_{u ∈ N⁻(v)} src[u*k+j] for every vertex v
// and lane j < k. src and dst must have length NumV*k and must not
// alias. k == 1
// delegates to the scalar Step, so a width-1 batch costs exactly one
// scalar iteration. Apart from batchBufs growing the PushBuffered
// accumulators on a width change (the deliberate unannotated callee),
// a steady-width StepBatch allocates nothing.
//
//ihtl:noalloc
func (e *Engine) StepBatch(src, dst []float64, k int) {
	if k == 1 {
		e.Step(src, dst)
		return
	}
	if k < 1 {
		panic("spmv: batch width < 1")
	}
	if len(src) != e.g.NumV*k || len(dst) != e.g.NumV*k {
		panic("spmv: batch vector length mismatch")
	}
	e.curSrc, e.curDst, e.curK = src, dst, k
	switch e.dir {
	case Pull:
		e.forParts(len(e.pullBounds)-1, e.pullBatchJob)
	case PushAtomic:
		e.zeroDst()
		e.forParts(len(e.pushBounds)-1, e.atomicBatchJob)
	case PushBuffered:
		e.batchBufs(k)
		e.pool.Run(e.clearBufsKJob)
		e.forParts(len(e.pushBounds)-1, e.bufferedBatchJob)
		e.pool.ForStatic(e.g.NumV, e.mergeBatchJob)
	case PushPartitioned:
		e.zeroDst()
		e.forParts(e.parts.NumParts(), e.partBatchJob)
	}
	e.curSrc, e.curDst, e.curK = nil, nil, 0
}

// pullBatchWorker is the batched Algorithm 1: per destination, the K
// partial sums accumulate directly in dst's contiguous lane row, which
// each partition owns exclusively.
//
//ihtl:noalloc
func (e *Engine) pullBatchWorker(w, lo, hi int) {
	g, src, dst, k := e.g, e.curSrc, e.curDst, e.curK
	nbrs := g.InNbrs
	for part := lo; part < hi; part++ {
		vlo, vhi := e.pullBounds[part], e.pullBounds[part+1]
		for v := vlo; v < vhi; v++ {
			db := v * k
			out := dst[db : db+k : db+k]
			for j := range out {
				out[j] = 0
			}
			for i := g.InIndex[v]; i < g.InIndex[v+1]; i++ {
				sb := int(nbrs[i]) * k
				xs := src[sb : sb+k : sb+k]
				for j, x := range xs {
					out[j] += x
				}
			}
		}
	}
}

// atomicBatchWorker is the batched Algorithm 2 with atomics: K CAS
// updates per edge. Batching does not amortise the synchronisation —
// the lane loop multiplies it — which is exactly the ablation point.
//
//ihtl:noalloc
func (e *Engine) atomicBatchWorker(w, lo, hi int) {
	g, src, dst, k := e.g, e.curSrc, e.curDst, e.curK
	nbrs := g.OutNbrs
	for part := lo; part < hi; part++ {
		vlo, vhi := e.pushBounds[part], e.pushBounds[part+1]
		for v := vlo; v < vhi; v++ {
			sb := v * k
			xs := src[sb : sb+k : sb+k]
			if SkipZeroLanes(xs) {
				continue
			}
			for i := g.OutIndex[v]; i < g.OutIndex[v+1]; i++ {
				db := int(nbrs[i]) * k
				for j, x := range xs {
					AtomicAddFloat64(&dst[db+j], x)
				}
			}
		}
	}
}

// bufferedBatchWorker is the batched X-Stream push: per-worker buffers
// hold NumV*k lanes (grown by batchBufs on a width change and reused
// after); mergeBatchWorker reduces K lanes per vertex.
//
//ihtl:noalloc
func (e *Engine) bufferedBatchWorker(w, lo, hi int) {
	g, src, k := e.g, e.curSrc, e.curK
	buf := e.threadBufsK[w]
	nbrs := g.OutNbrs
	for part := lo; part < hi; part++ {
		vlo, vhi := e.pushBounds[part], e.pushBounds[part+1]
		for v := vlo; v < vhi; v++ {
			sb := v * k
			xs := src[sb : sb+k : sb+k]
			if SkipZeroLanes(xs) {
				continue
			}
			for i := g.OutIndex[v]; i < g.OutIndex[v+1]; i++ {
				db := int(nbrs[i]) * k
				acc := buf[db : db+k : db+k]
				for j, x := range xs {
					acc[j] += x
				}
			}
		}
	}
}

// clearBufsKWorker resets one worker's K-wide accumulation buffer.
//
//ihtl:noalloc
func (e *Engine) clearBufsKWorker(w int) {
	clear(e.threadBufsK[w])
}

// mergeBatchWorker reduces every worker's K-wide buffer into dst over
// a static vertex range.
//
//ihtl:noalloc
func (e *Engine) mergeBatchWorker(w, lo, hi int) {
	bufs, dst, k := e.threadBufsK, e.curDst, e.curK
	for i := lo * k; i < hi*k; i++ {
		sum := 0.0
		for t := range bufs {
			sum += bufs[t][i]
		}
		dst[i] = sum
	}
}

// partBatchWorker is the batched GraphGrind push: partitions own
// disjoint destination ranges, so the K-lane updates need no
// synchronisation.
//
//ihtl:noalloc
func (e *Engine) partBatchWorker(w, lo, hi int) {
	src, dst, k := e.curSrc, e.curDst, e.curK
	pp := e.parts
	for p := lo; p < hi; p++ {
		part := &pp.Parts[p]
		for i, u := range part.Srcs {
			sb := int(u) * k
			xs := src[sb : sb+k : sb+k]
			if SkipZeroLanes(xs) {
				continue
			}
			for j := part.Index[i]; j < part.Index[i+1]; j++ {
				db := int(part.Dsts[j]) * k
				acc := dst[db : db+k : db+k]
				for l, x := range xs {
					acc[l] += x
				}
			}
		}
	}
}

// batchBufs ensures the per-worker K-wide accumulation buffers of the
// PushBuffered batch path exist, (re)allocating when the width
// changes. It is deliberately NOT annotated //ihtl:noalloc: growing on
// a width change is the one allocation StepBatch is allowed, through
// the unannotated-callee escape hatch.
func (e *Engine) batchBufs(k int) [][]float64 {
	if e.batchK == k {
		return e.threadBufsK
	}
	e.threadBufsK = make([][]float64, e.pool.Workers())
	for w := range e.threadBufsK {
		e.threadBufsK[w] = make([]float64, e.g.NumV*k)
	}
	e.batchK = k
	return e.threadBufsK
}
