package core

import (
	"context"
	"time"

	"ihtl/internal/faultinject"
	"ihtl/internal/sched"
	"ihtl/internal/spmv"
)

// Batched (multi-vector) execution of Algorithm 3: StepBatch runs K
// interleaved SpMVs through one traversal of the iHTL topology.
// Vectors are vertex-major interleaved (lane j of vertex v at
// x[v*k+j]), so every flipped edge drives K contiguous buffer lanes
// and every sparse edge K contiguous partial sums — the edge/index
// stream that bounds the scalar kernels is amortised K ways.
//
// The batched pipeline reuses the engine's schedulers, countdown
// gates, barriers and clocks; only the hub buffers and dirty ranges
// are K-wide, held in a batchState that grows to the widest width
// stepped (steady-state StepBatch is allocation-free, across width
// changes too). To keep a K-wide per-block buffer L2-resident the way
// §3.4 sizes the scalar one, build the IHTL with Params.ForBatch(k),
// which shrinks the effective B to L2/(8·K).

// batchState is the engine's K-wide execution state, set to one width.
type batchState struct {
	k int
	// bufs[w] is worker w's K-wide hub accumulation buffer
	// (NumHubs*k lanes, vertex-major interleaved; see ensureBatch).
	bufs [][]float64
	// dirty tracks per (worker, block) the HUB range the worker
	// touched (lane-agnostic: lanes of one hub live or die together).
	dirty []dirtyRange
	// hubClearBounds are lane-aligned flat bounds over [0, NumHubs*k)
	// for the AtomicFlipped path's cooperative clear.
	hubClearBounds []int
	// binVals are the K-wide bin contributions of the SparsePB kernel
	// (slot p's lanes at [p*k, (p+1)*k)); the slot offsets, cursors and
	// row array are shared with the scalar pbState.
	binVals []float64
	// fusedJob is the prebuilt worker body, so a fused StepBatch
	// allocates nothing.
	fusedJob func(w int)
	// active and touched are the row sets of an active-row step
	// (active.go), staged for its dispatch and nil for a dense one: where
	// the fused worker and the sparse parts pick their kernels.
	active, touched spmv.RowSet
}

// ensureBatch returns the engine's batch state set to width k. The
// daemon changes width batch by batch (a lane per coalesced query), so
// the K-wide arrays are sized for the widest width seen and resliced
// for a narrower one. That is sound because every hub buffer is
// all-zero between steps — a merge zeroes what it folds and no step
// reaches past its NumHubs*k, recoverState clears an aborted step's
// buffers whole — and binVals is written before it is read within a
// step.
func (e *Engine) ensureBatch(k int) *batchState {
	b := e.batch
	if b != nil && b.k == k {
		return b
	}
	w := len(e.clocks)
	if b == nil {
		b = &batchState{}
		if e.atomicFlipped {
			b.hubClearBounds = make([]int, w+1)
			b.fusedJob = func(worker int) { e.fusedWorkerAtomicBatch(b, worker) }
		} else {
			b.bufs = make([][]float64, w)
			b.dirty = make([]dirtyRange, w*len(e.ih.Blocks))
			b.fusedJob = func(worker int) { e.fusedWorkerBufferedBatch(b, worker) }
		}
		e.batch = b
	}
	b.k = k
	for i := 0; i+1 < len(b.hubClearBounds); i++ {
		b.hubClearBounds[i], b.hubClearBounds[i+1] = sched.SplitRangeStride(e.ih.NumHubs, k, w, i)
	}
	for i := range b.bufs {
		b.bufs[i] = resized(b.bufs[i], e.ih.NumHubs*k)
	}
	if e.pb != nil {
		b.binVals = resized(b.binVals, len(e.pb.binRows)*k)
	}
	return b
}

// resized returns s cut to n elements, or a zeroed allocation of n
// when s has no room for them.
func resized(s []float64, n int) []float64 {
	if n <= cap(s) {
		return s[:n]
	}
	return make([]float64, n)
}

// StepBatch computes dst[v*k+j] = Σ_{u ∈ N⁻(v)} src[u*k+j] for every
// vertex v and lane j < k, in iHTL ID space. src and dst must have
// length NumV*k, be vertex-major interleaved, and must not alias.
// k == 1 delegates to the scalar Step.
//
//ihtl:noalloc
func (e *Engine) StepBatch(src, dst []float64, k int) {
	e.StepBatchEpi(src, dst, k, nil)
}

// StepBatchEpi is StepBatch followed by an element-wise epilogue with
// the same contract as StepEpi's: every worker runs epi(w, lo, hi)
// over its static share [lo, hi) of the VERTEX range [0, NumV) — lane
// j of vertex v is at index v*k+j — once all of dst is complete. Under
// the fused pipeline the epilogue runs inside the same dispatch, so a
// whole K-source analytic iteration costs a single pool round-trip.
// epi may be nil.
//
//ihtl:noalloc
func (e *Engine) StepBatchEpi(src, dst []float64, k int, epi func(w, lo, hi int)) {
	if herr := e.stepBatchEpi(src, dst, k, epi); herr != nil {
		e.panicHealth(herr)
	}
}

// stepBatchEpi is the shared body of StepBatchEpi and StepBatchEpiCtx,
// returning the numeric-health verdict like stepEpi.
//
//ihtl:noalloc
func (e *Engine) stepBatchEpi(src, dst []float64, k int, epi func(w, lo, hi int)) *spmv.NumericError {
	if k == 1 {
		return e.stepEpi(src, dst, epi)
	}
	if k < 1 {
		panic("core: batch width < 1")
	}
	ih := e.ih
	if len(src) != ih.NumV*k || len(dst) != ih.NumV*k {
		panic("core: batch vector length mismatch")
	}
	b := e.ensureBatch(k)
	e.armHealth(k)
	if e.phased {
		e.stepPhasedBatch(b, src, dst)
		if e.healthArmed {
			e.curDst = dst
			e.pool.ForStatic(ih.NumV, e.healthScanJob)
			e.curDst = nil
		}
		if epi != nil {
			start := time.Now()
			e.curEpi = epi
			e.pool.Run(e.phasedEpiJob)
			e.curEpi = nil
			e.breakdown.Wall += time.Since(start)
		}
	} else {
		e.curEpi = epi
		e.stepFusedBatch(b, src, dst)
		e.curEpi = nil
	}
	e.breakdown.Steps++
	return e.collectHealth()
}

// StepBatchCtx is StepBatch with the StepCtx contract (cancellation,
// panic isolation, health verdicts, post-failure state recovery).
func (e *Engine) StepBatchCtx(ctx context.Context, src, dst []float64, k int) error {
	return e.StepBatchEpiCtx(ctx, src, dst, k, nil)
}

// StepBatchEpiCtx is StepBatchEpi with the StepCtx contract.
func (e *Engine) StepBatchEpiCtx(ctx context.Context, src, dst []float64, k int, epi func(w, lo, hi int)) error {
	end, err := e.pool.Fallible(ctx)
	if err != nil {
		return err
	}
	herr := e.stepBatchEpi(src, dst, k, epi)
	if err := end(); err != nil {
		e.recoverState()
		return err
	}
	if herr != nil {
		return herr
	}
	return nil
}

// recoverState clears the K-wide buffers and dirty ranges after an
// aborted batched step, and unstages an active-row step's sets; see
// Engine.recoverState. The buffers are cleared to their capacity, so
// that the lanes ensureBatch reslices back in are zero whatever width
// the state is set to by now.
func (b *batchState) recoverState() {
	b.active, b.touched = nil, nil
	for w := range b.bufs {
		clear(b.bufs[w][:cap(b.bufs[w])])
	}
	for i := range b.dirty {
		b.dirty[i] = dirtyRange{}
	}
}

// stepFusedBatch mirrors stepFused for a K-wide dispatch.
//
//ihtl:noalloc
func (e *Engine) stepFusedBatch(b *batchState, src, dst []float64) {
	start := time.Now()
	e.stageFusedBatch(b, src, dst)
	e.pool.Run(b.fusedJob)
	e.unstageFused()
	e.breakdown.Wall += time.Since(start)
}

// stageFusedBatch is stageFused for a K-wide step: same scheduler and
// countdown arming (the schedulers partition tasks, not lanes), with
// the vectors staged for b.fusedJob. The sharded engine stages every
// shard's batch state and runs all their worker bodies under one
// dispatch; unstageFused is the shared teardown.
//
//ihtl:noalloc
func (e *Engine) stageFusedBatch(b *batchState, src, dst []float64) {
	e.flipSched.Reset(len(e.blockTasks))
	e.resetFlipCursors()
	e.resetSparseScheds()
	if !e.atomicFlipped {
		e.blockGate.Reset(e.tasksPerBlock)
	}
	e.curSrc, e.curDst = src, dst
}

// fusedWorkerBufferedBatch is fusedWorkerBuffered with K-wide lanes:
// same task claiming, dirty-range widening, countdown-gated merges and
// barrier-free flow into the sparse pull — only the accumulation is
// over buf[d*k : d*k+k] instead of buf[d].
//
//ihtl:noalloc
func (e *Engine) fusedWorkerBufferedBatch(b *batchState, w int) {
	ih := e.ih
	k := b.k
	src, dst := e.curSrc, e.curDst
	t0 := time.Now()
	if w == 0 {
		for _, blk := range e.emptyBlocks {
			fb := &ih.Blocks[blk]
			clear(dst[fb.HubLo*k : fb.HubHi*k])
		}
	}
	nb := len(ih.Blocks)
	buf := b.bufs[w]
	var mergeTime time.Duration
	for !e.pool.Aborted() {
		lo, hi, ok := e.claimFlip(w)
		if !ok {
			break
		}
		for ti := lo; ti < hi; ti++ {
			faultinject.Fire(faultinject.SiteFlippedTask)
			bt := &e.blockTasks[ti]
			if b.active != nil {
				pushTaskActive(k, bt, &ih.Blocks[bt.block], b.active, src, buf)
			} else {
				e.pushTaskBatch(k, bt, src, buf)
			}
			if bt.dHi > bt.dLo {
				dr := &b.dirty[w*nb+bt.block]
				if dr.hi <= dr.lo {
					dr.lo, dr.hi = bt.dLo, bt.dHi
				} else {
					if bt.dLo < dr.lo {
						dr.lo = bt.dLo
					}
					if bt.dHi > dr.hi {
						dr.hi = bt.dHi
					}
				}
			}
			if e.blockGate.Done(bt.block) {
				faultinject.Fire(faultinject.SiteMergeBlock)
				tm := time.Now()
				e.mergeBlockBatch(b, bt.block, dst)
				mergeTime += time.Since(tm)
			}
		}
	}
	t1 := time.Now()
	clk := &e.clocks[w]
	clk.flipped += t1.Sub(t0) - mergeTime
	clk.merge += mergeTime
	e.sparseWorkerBatch(b, w, src, dst)
	e.runEpilogue(w)
}

// mergeBlockBatch folds every worker's dirty hub range of block blk
// into dst, K lanes per hub, and resets the consumed buffer lanes.
// Same ownership argument as mergeBlock: the caller holds the block's
// completion, and hub h's lanes [h*k, h*k+k) are dirty or clean as a
// unit because the dirty ranges track hubs, not lanes.
//
//ihtl:noalloc
func (e *Engine) mergeBlockBatch(b *batchState, blk int, dst []float64) {
	fb := &e.ih.Blocks[blk]
	k := b.k
	clear(dst[fb.HubLo*k : fb.HubHi*k])
	nb := len(e.ih.Blocks)
	for t := range b.bufs {
		dr := &b.dirty[t*nb+blk]
		if dr.hi <= dr.lo {
			continue
		}
		buf := b.bufs[t]
		for i := dr.lo * k; i < dr.hi*k; i++ {
			dst[i] += buf[i]
			buf[i] = 0
		}
		dr.lo, dr.hi = 0, 0
	}
}

// fusedWorkerAtomicBatch is the AtomicFlipped ablation's batched fused
// worker: cooperative lane-aligned hub zeroing, the clear barrier,
// stolen flipped tasks with K CAS updates per edge, then the batched
// sparse pull.
//
//ihtl:noalloc
func (e *Engine) fusedWorkerAtomicBatch(b *batchState, w int) {
	ih := e.ih
	k := b.k
	src, dst := e.curSrc, e.curDst
	clk := &e.clocks[w]
	if ih.NumHubs > 0 {
		t0 := time.Now()
		clear(dst[b.hubClearBounds[w]:b.hubClearBounds[w+1]])
		clk.merge += time.Since(t0)
		if !e.clearBarrier.WaitAbort(e.pool) {
			return
		}
	}
	t1 := time.Now()
	for !e.pool.Aborted() {
		lo, hi, ok := e.claimFlip(w)
		if !ok {
			break
		}
		for ti := lo; ti < hi; ti++ {
			faultinject.Fire(faultinject.SiteFlippedTask)
			bt := &e.blockTasks[ti]
			fb := &ih.Blocks[bt.block]
			pushTaskFlatAtomicBatch(k, bt, fb, src, dst)
		}
	}
	t2 := time.Now()
	clk.flipped += t2.Sub(t1)
	e.sparseWorkerBatch(b, w, src, dst)
	e.runEpilogue(w)
}

// stepPhasedBatch is the pre-fusion three-dispatch pipeline with
// K-wide lanes, kept for the same ablation EngineOptions.Phased serves
// in the scalar path.
func (e *Engine) stepPhasedBatch(b *batchState, src, dst []float64) {
	ih := e.ih
	k := b.k

	// Phase 1 — K-wide push traversal of the flipped blocks.
	t0 := time.Now()
	if e.atomicFlipped {
		//ihtl:allow-nosite trivial zeroing sweep with no recovery path of its own
		e.pool.ForStatic(ih.NumHubs*k, func(w, lo, hi int) {
			clear(dst[lo:hi])
		})
		e.pool.ForEachPart(len(e.blockTasks), func(w, task int) {
			bt := &e.blockTasks[task]
			fb := &ih.Blocks[bt.block]
			pushTaskFlatAtomicBatch(k, bt, fb, src, dst)
		})
	} else {
		pushTask := func(w, task int) {
			e.pushTaskBatch(k, &e.blockTasks[task], src, b.bufs[w])
		}
		if e.staticFlip {
			// See stepPhased: pinned assignment + fixed-order phase 2
			// fold keeps the batched phased pipeline bit-reproducible.
			e.pool.Run(func(w int) {
				for task := e.flipBounds[w]; task < e.flipBounds[w+1]; task++ {
					faultinject.Fire(faultinject.SiteFlippedTask)
					pushTask(w, task)
				}
			})
		} else {
			e.pool.ForEachPart(len(e.blockTasks), pushTask)
		}
	}
	t1 := time.Now()

	// Phase 2 — aggregate the K-wide thread buffers into hub data.
	// The flat sweep over [0, NumHubs*k) is element-wise, so the split
	// needs no lane alignment.
	if !e.atomicFlipped {
		bufs := b.bufs
		e.pool.ForStatic(ih.NumHubs*k, func(w, lo, hi int) {
			faultinject.Fire(faultinject.SiteMergeBlock)
			for i := lo; i < hi; i++ {
				sum := 0.0
				for t := range bufs {
					sum += bufs[t][i]
					bufs[t][i] = 0
				}
				dst[i] = sum
			}
		})
	}
	t2 := time.Now()

	// Phase 3 — the K-wide sparse block under the configured kernel.
	switch e.sparseKernel {
	case SparsePullDegree:
		if np := len(e.heavyBounds) - 1; np > 0 {
			e.pool.ForEachPart(np, func(w, part int) {
				e.sparseHeavyPartBatch(b, part, src, dst)
			})
		}
		if np := len(e.lightBounds) - 1; np > 0 {
			e.pool.ForEachPart(np, func(w, part int) {
				e.sparseLightPartBatch(b, part, src, dst)
			})
		}
	case SparsePB:
		if e.pb != nil {
			e.pool.ForEachPart(e.pb.numChunks, func(w, c int) {
				e.pbBinChunkBatch(b, c, src)
			})
			e.pool.ForEachPart(e.pb.numBuckets, func(w, bkt int) {
				e.pbDrainBucketBatch(b, bkt, dst)
			})
		}
	default:
		if nparts := len(e.sparseBounds) - 1; nparts > 0 {
			e.pool.ForEachPart(nparts, func(w, part int) {
				e.sparsePullRangeBatch(b, e.sparseBounds[part], e.sparseBounds[part+1], src, dst)
			})
		}
	}
	t3 := time.Now()

	e.breakdown.Flipped += t1.Sub(t0)
	e.breakdown.Merge += t2.Sub(t1)
	e.breakdown.Sparse += t3.Sub(t2)
	e.breakdown.Wall += t3.Sub(t0)
}

// PermuteToNewBatch scatters K interleaved vectors indexed by original
// IDs into iHTL ID order: out[NewID[v]*k+j] = in[v*k+j].
func (ih *IHTL) PermuteToNewBatch(in, out []float64, k int) {
	if len(in) != ih.NumV*k || len(out) != ih.NumV*k {
		panic("core: batch vector length mismatch")
	}
	for v, nv := range ih.NewID {
		copy(out[int(nv)*k:int(nv)*k+k], in[v*k:v*k+k])
	}
}

// PermuteToOldBatch is the inverse of PermuteToNewBatch:
// out[v*k+j] = in[NewID[v]*k+j].
func (ih *IHTL) PermuteToOldBatch(in, out []float64, k int) {
	if len(in) != ih.NumV*k || len(out) != ih.NumV*k {
		panic("core: batch vector length mismatch")
	}
	for v, nv := range ih.NewID {
		copy(out[v*k:v*k+k], in[int(nv)*k:int(nv)*k+k])
	}
}
