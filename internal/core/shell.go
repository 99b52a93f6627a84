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
// entry points (Step, StepBatch, StepCtx, StepBatchActiveCtx), the shape
// checks, the numeric-health watchdog, the epilogue's slot grid and its
// two placements (streamed per part, or behind a barrier), the phased
// pipeline's extra dispatch and the Fallible → run → recoverState
// wrapper are written here once. A scalar step is the batch step at
// k == 1.

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
	// end in runEpilogue (a streamed step's workers have run finishSlot
	// on each part they pulled instead); stepPhased runs it as barriered
	// dispatches and leaves scan and epilogue to the shell. Both step at
	// the width last set and add their elapsed time to breakdown.Wall.
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
	// state (buffers, clocks, barriers, health tallies) is sized for. It
	// equals pool.Workers() except on a sharded engine's sub-engines,
	// which are sized for their shard's worker GROUP and receive
	// group-local indices.
	nworkers int
	phased   bool
	health   spmv.HealthPolicy

	// The epilogue's slot grid: slot p is rows [slotBounds[p],
	// slotBounds[p+1]), the unit the watchdog scan and an epilogue run on
	// and the first argument an epilogue sees — a function of the graph
	// and the worker count, never of which worker ran the slot. Behind
	// the barrier worker w runs slots [slotOwner[w], slotOwner[w+1]).
	// streams is set when the grid is the sparse pull's parts and each
	// pulled part's rows are final: a streamed step runs finishSlot in
	// the claim loop, and no barrier (NewEngineOpts decides).
	slotBounds []int
	slotOwner  []int
	streams    bool

	// epiBarrier is what the fused workers cross once dst is complete;
	// slotsJob is the prebuilt body the phased pipeline dispatches for
	// scan and epilogue (so no step allocates a closure).
	epiBarrier *sched.Barrier
	slotsJob   func(w int)
	// healthBad are the per-worker padded tallies the scan fills.
	healthBad []healthSlot

	// Staged for the step in flight, nil or zero between steps. curK is
	// the lane width the scan must cover; touched is an active-row
	// step's written rows — all the scan may look at — and nil for a
	// dense step; streamed says finishSlot runs per pulled part.
	curSrc, curDst []float64
	curEpi         func(slot, lo, hi int)
	curK           int
	touched        spmv.RowSet
	healthArmed    bool
	streamed       bool

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
	s.initSlots(sched.VertexBalancedParts(numV, nworkers), false)
	s.slotsJob = s.runSlots
	s.healthBad = make([]healthSlot, nworkers)
}

// initSlots sets the epilogue's slot grid to the row bounds given and
// hands the slots out to the workers by rows, for the barrier
// placement. Over the static shares initShell starts from, worker w
// owns slot w (given at least one vertex per worker).
func (s *stepShell) initSlots(bounds []int, streams bool) {
	rows := make([]int64, len(bounds))
	for p, b := range bounds {
		rows[p] = int64(b)
	}
	s.slotBounds, s.slotOwner, s.streams = bounds, sched.EdgeBalancedParts(rows, s.nworkers), streams
}

// EpiSlots implements spmv.Stepper. The grid is the sparse pull's parts
// on an unsharded engine over a graph with no flipped block — and such
// an engine streams: a permitted epilogue runs on each part inside the
// sparse claim loop, as soon as the part's rows are pulled, with no
// barrier — and the workers' static shares of the vertex range behind
// the barrier on every other engine.
func (s *stepShell) EpiSlots() (slots int, streamed bool) {
	return len(s.slotBounds) - 1, s.streams
}

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
func (s *stepShell) Step(src, dst []float64) { s.StepBatch(src, dst, 1) }

// StepBatch computes dst[v*k+j] = Σ_{u ∈ N⁻(v)} src[u*k+j] for every
// vertex v and lane j < k: K interleaved SpMVs through one traversal of
// the topology. src and dst must have length NumVertices*k, be
// vertex-major interleaved, and must not alias. Step is StepBatch at
// k == 1 — the same driver, with the scalar kernels as its width-1 arms.
// A numeric-health failure panics; StepCtx returns it.
//
//ihtl:noalloc
func (s *stepShell) StepBatch(src, dst []float64, k int) {
	s.checkShape(src, dst, k)
	if err := s.step(src, dst, k, nil, false); err != nil {
		panic(err) // the plain entry points have no error return; StepCtx returns the verdict
	}
}

// StepCtx implements spmv.Stepper: StepBatch followed by the epilogue,
// with cancellation and panic isolation. Under the fused pipeline the
// epilogue runs INSIDE the step's dispatch, so a whole analytic
// iteration — SpMV plus e.g. PageRank's damping/delta/contribution
// sweep — costs a single pool round-trip; the phased pipeline runs it
// as a separate dispatch. On an engine whose EpiSlots reports
// streaming, an epilogue with Stream set runs in the sparse claim loop
// right after its slot's rows are pulled; every other epilogue runs
// once all of dst is complete, where under HealthClamp another slot's
// non-finite rows may still be being zeroed.
//
// StepCtx returns ctx.Err() promptly when ctx is cancelled (observed at
// every task claim), converts a pool-worker panic into a returned
// *sched.PanicError, and returns a *spmv.NumericError when the armed
// health watchdog fails the step. After a cancelled or panicked step
// the engine's reusable state (hub buffers, dirty ranges, barriers) is
// restored, so the next clean step — of any width — is bit-for-bit
// identical to one on a fresh engine. A step that fails after
// streaming may have run the epilogue on some slots.
func (s *stepShell) StepCtx(ctx context.Context, src, dst []float64, k int, epi spmv.Epilogue) error {
	s.checkShape(src, dst, k)
	return s.stepCtx(ctx, src, dst, k, epi.Run, epi.Stream)
}

// StepBatchActiveCtx is StepCtx, with an epilogue that does not
// stream, for a src of which only the rows named by active can hold a
// lane other than +0.0 (active may name more rows than that, never
// fewer). Rows of dst with no active in-neighbour are NOT written —
// they hold whatever they held — and touched is rewritten to name
// exactly the rows that were: those with an active in-neighbour, hubs
// and sparse rows alike (a hub's merge folds only the hubs an active
// source pushed into). epi runs behind the barrier and may read
// touched.
//
// Only the flat fused unsharded pipeline with a pull sparse kernel has
// the two kernels (active.go); any other engine answers honoured ==
// false having done nothing, and the caller steps densely. Both sets
// are NumVertices bits.
func (s *stepShell) StepBatchActiveCtx(ctx context.Context, src, dst []float64, k int, active, touched spmv.RowSet, epi func(slot, lo, hi int)) (honoured bool, err error) {
	s.checkShape(src, dst, k)
	if words := (s.numV + 63) >> 6; len(active) != words || len(touched) != words {
		panic("core: row set length mismatch")
	}
	if !s.drv.setActive(active, touched) {
		return false, nil
	}
	s.touched = touched
	err = s.stepCtx(ctx, src, dst, k, epi, false)
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
func (s *stepShell) stepCtx(ctx context.Context, src, dst []float64, k int, epi func(slot, lo, hi int), streamEpi bool) error {
	end, err := s.pool.Fallible(ctx)
	if err != nil {
		return err
	}
	verdict := s.step(src, dst, k, epi, streamEpi)
	if err := end(); err != nil {
		s.recoverState()
		return err
	}
	return verdict
}

// step is one step of width k plus epilogue, returning the numeric-
// health verdict: a *spmv.NumericError, or nil when the watchdog is off
// or satisfied. streamEpi
// says the caller holds epi to the streamed contract (Epilogue.Stream);
// the scan alone streams at any width, since it reads a slot's rows
// only.
//
//ihtl:noalloc
func (s *stepShell) step(src, dst []float64, k int, epi func(slot, lo, hi int), streamEpi bool) error {
	s.drv.setWidth(k)
	s.armHealth(k)
	s.curEpi = epi
	if s.phased {
		s.drv.stepPhased(src, dst)
		if epi != nil || s.healthArmed {
			start := time.Now()
			s.curDst = dst
			s.pool.Run(s.slotsJob)
			s.curDst = nil
			s.breakdown.Wall += time.Since(start)
		}
	} else {
		s.streamed = s.streams && s.touched == nil && (epi != nil || s.healthArmed) && (epi == nil || streamEpi)
		s.drv.stepFused(src, dst)
		s.streamed = false
	}
	s.curEpi = nil
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
	s.healthArmed, s.streamed = false, false
}

// runEpilogue crosses the epilogue barrier and runs worker w's slots;
// a no-op when neither scan nor epilogue is staged, or when the step
// streamed them. The barrier is required because both may read any dst
// element, while the phases before it only guarantee the whole vector
// at dispatch end.
//
//ihtl:noalloc
func (s *stepShell) runEpilogue(w int) {
	if s.streamed || s.curEpi == nil && !s.healthArmed {
		return
	}
	if !s.epiBarrier.WaitAbort(s.pool) {
		return
	}
	s.runSlots(w)
}

// runSlots runs finishSlot on the slots worker w owns behind a barrier.
//
//ihtl:noalloc
func (s *stepShell) runSlots(w int) {
	for p := s.slotOwner[w]; p < s.slotOwner[w+1]; p++ {
		s.finishSlot(w, p)
	}
}

// finishSlot runs, on worker w, the watchdog scan and the staged
// epilogue over slot p's rows, which must be final.
//
//ihtl:noalloc
func (s *stepShell) finishSlot(w, p int) {
	lo, hi := s.slotBounds[p], s.slotBounds[p+1]
	if s.healthArmed {
		s.healthScan(w, lo, hi)
	}
	if s.curEpi != nil {
		s.curEpi(p, lo, hi)
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

// healthScan is one slot's share of the watchdog sweep over the staged
// destination vector, tallied into worker w's slot: the lanes of rows
// [lo, hi), or of those among them an active-row step wrote (the others
// hold an earlier step's values, scanned then). The first element it
// looks at is routed through the fault injector's poison site — once
// per non-empty slot per step — the deterministic hook the recovery
// tests and BenchmarkFaultRecovery use to corrupt a step.
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
		// Stored only when the injector changed it, so a fault-free scan
		// that clamps nothing writes nothing: an epilogue behind the
		// barrier may read other slots' rows while they are scanned.
		if x := faultinject.Poison(faultinject.SiteStepHealth, dst[flo]); math.Float64bits(x) != math.Float64bits(dst[flo]) {
			dst[flo] = x
		}
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
// Rollback modes fail the step when anything non-finite was seen. A
// healthy step returns a nil error, never a nil *spmv.NumericError
// inside one. Only the failure path allocates.
func (s *stepShell) collectHealth() error {
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
