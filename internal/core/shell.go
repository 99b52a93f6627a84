package core

import (
	"context"
	"math"
	"math/bits"
	"time"

	"ihtl/internal/faultinject"
	"ihtl/internal/sched"
	"ihtl/internal/spmv"
)

// The step shell: everything around one step that does not depend on
// what is being stepped. Engine and ShardedEngine embed it, so the
// entry points (Step … StepBatchEpiCtx, StepBatchActiveCtx), the shape
// checks, the numeric-health watchdog, the epilogue behind its barrier,
// the phased pipeline's extra dispatches and the Fallible → run →
// recoverState wrapper are written here once. A scalar step is the
// batch step at k == 1.

// stepDriver is the half of a step the shell hands back to the engine
// that embeds it.
type stepDriver interface {
	// setWidth sets the engine's execution state to k lanes.
	setWidth(k int)
	// setActive stages the row sets of an active-row step (nil, nil
	// unstages them). An engine without the active-row kernels answers
	// false and stages nothing.
	setActive(active, touched spmv.RowSet) bool
	// stepFused runs the whole step as one pool dispatch whose workers
	// end in runEpilogue; stepPhased runs it as barriered dispatches and
	// leaves scan and epilogue to the shell. Both step at the width last
	// set and add their elapsed time to breakdown.Wall.
	stepFused(src, dst []float64)
	stepPhased(src, dst []float64)
	// recoverDriver restores the engine's own cross-step state after an
	// aborted step.
	recoverDriver()
}

// stepShell holds what the orchestrating goroutine writes once per step
// — the staged vectors, epilogue, width and watchdog verdict, and the
// accumulated breakdown — apart from the schedule and buffer state the
// workers read on every task.
type stepShell struct {
	drv  stepDriver
	pool *sched.Pool
	numV int
	// nworkers is the number of distinct worker indices the per-worker
	// state (buffers, clocks, barriers, health slots) is sized for, and
	// that an epilogue can observe. It equals pool.Workers() except on a
	// sharded engine's sub-engines, which are sized for their shard's
	// worker GROUP and receive group-local indices.
	nworkers int
	phased   bool
	health   spmv.HealthPolicy

	// epiBarrier is what the fused workers cross once dst is complete;
	// phasedEpiJob and healthScanJob are the prebuilt bodies the phased
	// pipeline dispatches separately (so no step allocates a closure).
	epiBarrier    *sched.Barrier
	phasedEpiJob  func(w int)
	healthScanJob func(w, lo, hi int)
	// healthBad are the per-worker padded tallies the scan fills.
	healthBad []healthSlot

	// Staged for the step in flight, nil or zero between steps. curK is
	// the lane width the scan must cover; touched is an active-row
	// step's written rows — all the scan may look at — and nil for a
	// dense step.
	curSrc, curDst []float64
	curEpi         func(w, lo, hi int)
	curK           int
	touched        spmv.RowSet
	healthArmed    bool

	breakdown Breakdown
}

// healthSlot is one worker's non-finite tally, padded to a cache line.
type healthSlot struct {
	count int64
	first int64
	_     [6]int64
}

func (s *stepShell) initShell(drv stepDriver, pool *sched.Pool, numV, nworkers int, opt EngineOptions) {
	s.drv, s.pool, s.numV, s.nworkers = drv, pool, numV, nworkers
	s.phased, s.health = opt.Phased, opt.Health
	s.epiBarrier = sched.NewBarrier(nworkers)
	s.phasedEpiJob = func(w int) {
		lo, hi := sched.SplitRange(s.numV, s.nworkers, w)
		s.curEpi(w, lo, hi)
	}
	s.healthScanJob = s.healthScan
	s.healthBad = make([]healthSlot, nworkers)
}

// Workers returns the number of distinct worker indices a StepEpi
// epilogue can observe: the pool's worker count for every engine built
// through an exported constructor.
func (s *stepShell) Workers() int { return s.nworkers }

// NumVertices implements spmv.Stepper.
func (s *stepShell) NumVertices() int { return s.numV }

// TakeBreakdown returns the accumulated phase breakdown and resets it.
func (s *stepShell) TakeBreakdown() Breakdown {
	b := s.breakdown
	s.breakdown = Breakdown{}
	return b
}

// Step computes dst[v] = Σ_{u ∈ N⁻(v)} src[u] in the engine's ID space.
// src and dst must have length NumVertices and must not alias.
//
//ihtl:noalloc
func (s *stepShell) Step(src, dst []float64) { s.StepBatchEpi(src, dst, 1, nil) }

// StepEpi is Step followed by an element-wise epilogue: every worker
// runs epi(w, lo, hi), w in [0, Workers()), over its static share
// [lo, hi) of the vertex range once all of dst is complete. Under the
// fused pipeline the epilogue runs INSIDE the same dispatch, behind an
// internal barrier, so a whole analytic iteration — SpMV plus e.g.
// PageRank's damping/delta/contribution sweep — costs a single pool
// round-trip. The phased pipeline runs it as a separate dispatch. epi
// may be nil.
//
//ihtl:noalloc
func (s *stepShell) StepEpi(src, dst []float64, epi func(w, lo, hi int)) {
	s.StepBatchEpi(src, dst, 1, epi)
}

// StepBatch computes dst[v*k+j] = Σ_{u ∈ N⁻(v)} src[u*k+j] for every
// vertex v and lane j < k: K interleaved SpMVs through one traversal of
// the topology. src and dst must have length NumVertices*k, be
// vertex-major interleaved, and must not alias. Step is StepBatch at
// k == 1 — the same driver, with the scalar kernels as its width-1 arms.
//
//ihtl:noalloc
func (s *stepShell) StepBatch(src, dst []float64, k int) { s.StepBatchEpi(src, dst, k, nil) }

// StepBatchEpi is StepBatch followed by an epilogue with StepEpi's
// contract; [lo, hi) are VERTICES, lane j of vertex v at index v*k+j.
//
//ihtl:noalloc
func (s *stepShell) StepBatchEpi(src, dst []float64, k int, epi func(w, lo, hi int)) {
	s.checkShape(src, dst, k)
	if herr := s.step(src, dst, k, epi); herr != nil {
		panic(herr) // the plain entry points have no error return; the ctx ones return the verdict
	}
}

// StepCtx is Step with cancellation and panic isolation: it returns
// ctx.Err() promptly when ctx is cancelled (observed at every task
// claim), converts a pool-worker panic into a returned
// *sched.PanicError, and returns a *spmv.NumericError when the armed
// health watchdog fails the step. After a cancelled or panicked step
// the engine's reusable state (hub buffers, dirty ranges, barriers) is
// restored, so the next clean step — of any width — is bit-for-bit
// identical to one on a fresh engine.
func (s *stepShell) StepCtx(ctx context.Context, src, dst []float64) error {
	return s.StepBatchEpiCtx(ctx, src, dst, 1, nil)
}

// StepEpiCtx is StepEpi with the StepCtx contract.
func (s *stepShell) StepEpiCtx(ctx context.Context, src, dst []float64, epi func(w, lo, hi int)) error {
	return s.StepBatchEpiCtx(ctx, src, dst, 1, epi)
}

// StepBatchCtx is StepBatch with the StepCtx contract.
func (s *stepShell) StepBatchCtx(ctx context.Context, src, dst []float64, k int) error {
	return s.StepBatchEpiCtx(ctx, src, dst, k, nil)
}

// StepBatchEpiCtx is StepBatchEpi with the StepCtx contract.
func (s *stepShell) StepBatchEpiCtx(ctx context.Context, src, dst []float64, k int, epi func(w, lo, hi int)) error {
	s.checkShape(src, dst, k)
	return s.stepCtx(ctx, src, dst, k, epi)
}

// StepBatchActiveCtx is StepBatchEpiCtx for a src of which only the
// rows named by active can hold a lane other than +0.0 (active may name
// more rows than that, never fewer). Rows of dst with no active
// in-neighbour are NOT written — they hold whatever they held — and
// touched is rewritten to name exactly the rows that were: every hub
// (the merges write them all) and every sparse row that met an active
// source. epi runs as under StepBatchEpi and may read touched.
//
// Only the flat fused unsharded pipeline with a pull sparse kernel has
// the two kernels (active.go); any other engine answers honoured ==
// false having done nothing, and the caller steps densely. Both sets
// are NumVertices bits.
func (s *stepShell) StepBatchActiveCtx(ctx context.Context, src, dst []float64, k int, active, touched spmv.RowSet, epi func(w, lo, hi int)) (honoured bool, err error) {
	s.checkShape(src, dst, k)
	if words := (s.numV + 63) >> 6; len(active) != words || len(touched) != words {
		panic("core: row set length mismatch")
	}
	if !s.drv.setActive(active, touched) {
		return false, nil
	}
	s.touched = touched
	err = s.stepCtx(ctx, src, dst, k, epi)
	s.touched = nil
	s.drv.setActive(nil, nil)
	return true, err
}

//ihtl:noalloc
func (s *stepShell) checkShape(src, dst []float64, k int) {
	if k < 1 {
		panic("core: batch width < 1")
	}
	if len(src) != s.numV*k || len(dst) != s.numV*k {
		panic("core: vector length mismatch")
	}
}

// stepCtx is the one Fallible → step → recoverState wrapper.
func (s *stepShell) stepCtx(ctx context.Context, src, dst []float64, k int, epi func(w, lo, hi int)) error {
	end, err := s.pool.Fallible(ctx)
	if err != nil {
		return err
	}
	herr := s.step(src, dst, k, epi)
	if err := end(); err != nil {
		s.recoverState()
		return err
	}
	if herr != nil {
		return herr
	}
	return nil
}

// step is one step of width k plus epilogue, returning the numeric-
// health verdict (nil when the watchdog is off or satisfied).
//
//ihtl:noalloc
func (s *stepShell) step(src, dst []float64, k int, epi func(w, lo, hi int)) *spmv.NumericError {
	s.drv.setWidth(k)
	s.armHealth(k)
	if s.phased {
		s.drv.stepPhased(src, dst)
		if s.healthArmed {
			// The fused pipeline folds this scan into its epilogue
			// barrier phase; the phased ablation pays one extra
			// dispatch, consistent with its per-phase structure.
			s.curDst = dst
			s.pool.ForStatic(s.numV, s.healthScanJob)
			s.curDst = nil
		}
		if epi != nil {
			start := time.Now()
			s.curEpi = epi
			s.pool.Run(s.phasedEpiJob)
			s.curEpi = nil
			s.breakdown.Wall += time.Since(start)
		}
	} else {
		s.curEpi = epi
		s.drv.stepFused(src, dst)
		s.curEpi = nil
	}
	s.breakdown.Steps++
	return s.collectHealth()
}

// recoverState restores the reusable cross-step state after an aborted
// (cancelled or panicked) step, so the next clean step is bit-for-bit
// identical to one on a fresh engine: the engine's own half (buffers,
// dirty ranges, intra-dispatch barriers), then the shell's staging.
func (s *stepShell) recoverState() {
	s.drv.recoverDriver()
	s.epiBarrier.Reset()
	s.curSrc, s.curDst, s.curEpi, s.touched = nil, nil, nil, nil
	s.healthArmed = false
}

// runEpilogue crosses the epilogue barrier and runs worker w's share of
// the watchdog scan and of a staged epilogue; a no-op when neither is
// staged. The barrier is required because both may read any dst
// element, while the phases before it only guarantee the whole vector
// at dispatch end.
//
//ihtl:noalloc
func (s *stepShell) runEpilogue(w int) {
	if s.curEpi == nil && !s.healthArmed {
		return
	}
	if !s.epiBarrier.WaitAbort(s.pool) {
		return
	}
	lo, hi := sched.SplitRange(s.numV, s.nworkers, w)
	if s.healthArmed {
		s.healthScan(w, lo, hi)
	}
	if s.curEpi != nil {
		s.curEpi(w, lo, hi)
	}
}

// armHealth stages the watchdog for one step of lane width k.
//
//ihtl:noalloc
func (s *stepShell) armHealth(k int) {
	s.curK = k
	s.healthArmed = s.health.Mode != spmv.HealthOff
	if s.healthArmed {
		for i := range s.healthBad {
			s.healthBad[i].count = 0
			s.healthBad[i].first = 0
		}
	}
}

// healthScan is worker w's share of the watchdog sweep over the staged
// destination vector: the lanes of rows [lo, hi), or of those among
// them an active-row step wrote (the others hold an earlier step's
// values, scanned then). The first element it looks at is routed
// through the fault injector's poison site, the deterministic hook the
// recovery tests and ihtlbench -faults use to corrupt a step.
//
//ihtl:noalloc
func (s *stepShell) healthScan(w, lo, hi int) {
	k := s.curK
	if s.touched == nil {
		if hi > lo {
			s.scanLanes(w, lo*k, hi*k, true)
		}
		return
	}
	poison := true
	for wi := lo >> 6; wi<<6 < hi; wi++ {
		for word := s.touched[wi] & spmv.RangeMask(wi, lo, hi); word != 0; word &= word - 1 {
			flo := (wi<<6 + bits.TrailingZeros64(word)) * k
			s.scanLanes(w, flo, flo+k, poison)
			poison = false
		}
	}
}

// scanLanes tallies the non-finite elements of dst[flo:fhi) into worker
// w's slot and, under HealthClamp, zeroes them in place.
//
//ihtl:noalloc
func (s *stepShell) scanLanes(w, flo, fhi int, poison bool) {
	dst := s.curDst
	if poison {
		dst[flo] = faultinject.Poison(faultinject.SiteStepHealth, dst[flo])
	}
	clamp := s.health.Mode == spmv.HealthClamp
	slot := &s.healthBad[w]
	for i := flo; i < fhi; i++ {
		if !isFinite(dst[i]) {
			if slot.count == 0 {
				slot.first = int64(i)
			}
			slot.count++
			if clamp {
				dst[i] = 0
			}
		}
	}
}

// isFinite reports whether x is neither NaN nor ±Inf (exponent bits
// not all ones). Bit test, not float compare, so the zero-skip
// analyzer's float-compare rules don't apply.
//
//ihtl:noalloc
func isFinite(x float64) bool {
	const expMask = 0x7FF0000000000000
	return math.Float64bits(x)&expMask != expMask
}

// collectHealth folds the per-worker scan slots into a verdict after
// the dispatch. Clamped steps succeed by construction; Error and
// Rollback modes fail the step when anything non-finite was seen.
// Only the failure path allocates.
func (s *stepShell) collectHealth() *spmv.NumericError {
	if !s.healthArmed {
		return nil
	}
	var count int64
	first := -1
	for w := range s.healthBad {
		slot := &s.healthBad[w]
		if slot.count == 0 {
			continue
		}
		count += slot.count
		if first < 0 || int(slot.first) < first {
			first = int(slot.first)
		}
	}
	if count == 0 || s.health.Mode == spmv.HealthClamp {
		return nil
	}
	return &spmv.NumericError{Count: count, First: first, Rollback: s.health.Mode == spmv.HealthRollback}
}
