package core

import (
	"context"
	"fmt"
	"math"
	"time"

	"ihtl/internal/faultinject"
	"ihtl/internal/sched"
	"ihtl/internal/spmv"
)

// Engine executes Algorithm 3 over a built IHTL graph: push the
// flipped blocks into per-thread hub buffers, merge the buffers, then
// pull the sparse block. It implements spmv.Stepper.
//
// By default the three phases run as a SINGLE fused pool dispatch:
// workers claim flipped tasks and sparse partitions with range
// stealing, and each flipped block's merge is gated only on that
// block's completion counter — not on a global barrier. This is safe
// because the destinations are disjoint: merges write dst[0, NumHubs)
// and the sparse pull writes dst[DestLo, NumV). The pre-fusion
// three-dispatch pipeline remains available via EngineOptions.Phased
// for ablation.
//
// The engine operates in iHTL (relabeled) vertex-ID space; use
// IHTL.NewID/OldID or the PermuteToNew/PermuteToOld helpers to move
// vectors between ID spaces.
type Engine struct {
	ih            *IHTL
	pool          *sched.Pool
	atomicFlipped bool
	phased        bool
	// nworkers is the number of distinct worker indices this engine's
	// per-worker state (buffers, clocks, schedulers, barriers) is sized
	// for. It equals pool.Workers() for a standalone engine; a sharded
	// engine's sub-engines are sized for their shard's worker GROUP and
	// receive group-local indices from the sharded dispatch.
	nworkers int

	// encoding is the resolved block encoding; varint mirrors
	// encoding == EncodingVarint for branch-cheap hot-path checks.
	// Under varint the flipped tasks are encoded chunks walked straight
	// into the hub buffer, and the sparse pull walks the row at
	// sparseRowOff[i] straight into its sum; see encoding.go.
	encoding     BlockEncoding
	varint       bool
	sparseRowOff []int64

	// bufs[w] is worker w's private accumulation buffer over all
	// hubs — "each thread buffers B * #fb vertex data" (§3.4). With
	// B sized to L2/8, one buffer per flipped block fits L2.
	bufs [][]float64
	// blockTasks are (block, source-chunk) pairs; a worker claims one
	// at a time, so it processes a single flipped block at a time as
	// §3.4 requires. Tasks are ordered by block, so the contiguous
	// ranges handed out by the steal scheduler keep a worker inside
	// one block's buffer as long as possible.
	blockTasks []blockTask
	// tasksPerBlock[b] is the number of blockTasks targeting block b;
	// it arms the per-block completion counters each Step.
	tasksPerBlock []int
	// emptyBlocks lists blocks with no tasks at all; their hub slots
	// still need zeroing each fused Step.
	emptyBlocks []int
	// sparseBounds are edge-balanced destination ranges of the
	// sparse block.
	sparseBounds []int

	// sparseKernel is the resolved sparse-block kernel (never
	// SparseAuto after construction); see sparse.go.
	sparseKernel SparseKernel
	// heavyBounds/lightBounds are the SparsePullDegree schedule:
	// edge-balanced parts over the build-time heavy-row list, and
	// coarse chunks over the remaining short rows.
	heavyBounds []int
	lightBounds []int
	// pb is the SparsePB bin/drain state; auxSched claims its drain
	// buckets (and SparsePullDegree's heavy parts); binBarrier
	// separates the bin and drain phases inside the fused dispatch.
	pb         *pbState
	auxSched   *sched.StealScheduler
	binBarrier *sched.Barrier

	// Fused-dispatch state. flipSched and sparseSched are persistent
	// per-engine steal schedulers (allocated once, Reset per Step);
	// blockGate holds one countdown latch per flipped block; dirty
	// tracks, per (worker, block), the hub range the worker actually
	// touched so merges read only buffers that were written.
	flipSched   *sched.StealScheduler
	sparseSched *sched.StealScheduler
	blockGate   *sched.Countdowns
	dirty       []dirtyRange // indexed worker*len(Blocks)+block
	// staticFlip (EngineOptions.StaticFlipped) replaces flipped-task
	// stealing with the fixed per-worker ranges in flipBounds;
	// flipCursors are the per-step claim positions.
	staticFlip  bool
	flipBounds  []int
	flipCursors []flipCursor
	// hubClearBounds and clearBarrier serve the AtomicFlipped fused
	// path: workers cooperatively zero the hub slots, cross the
	// barrier, then push with CAS.
	hubClearBounds []int
	clearBarrier   *sched.Barrier
	// fusedJob is the prebuilt worker body (capturing only e), so a
	// fused Step allocates nothing; curSrc/curDst stage its vectors.
	fusedJob       func(w int)
	curSrc, curDst []float64
	// StepEpi state: the staged epilogue, the barrier its workers
	// cross once dst is complete, and the prebuilt dispatch body the
	// phased pipeline runs it under.
	curEpi       func(w, lo, hi int)
	epiBarrier   *sched.Barrier
	phasedEpiJob func(w int)

	// batch is the K-wide state of StepBatch, allocated on first use
	// and grown to the widest width stepped.
	batch *batchState

	// Numeric-health watchdog state. health is the configured policy;
	// healthArmed stages whether the in-flight step scans (policy on,
	// Every-th step); healthBad are the per-worker padded bad-element
	// counters the fused epilogue scan fills; healthErr is the verdict
	// collected after the dispatch; curK is the staged lane width the
	// scan must cover (1 for scalar steps).
	health      spmv.HealthPolicy
	healthArmed bool
	healthBad   []healthSlot
	healthErr   *spmv.NumericError
	curK        int
	// healthScanJob is the prebuilt scan body the phased pipeline
	// dispatches separately (the fused pipeline folds the scan into
	// runEpilogue).
	healthScanJob func(w, lo, hi int)

	// clocks accumulate per-worker busy time per phase, cache-line
	// padded so the frequent updates don't false-share.
	clocks []workerClock

	breakdown Breakdown

	// Edge-major layout state (edgemajor.go), last so the fields above
	// keep their offsets. flipAdv[b] is block b's adv stream, nil while
	// the block is walked CSR; sparseAdv is the sparse block's. partPrev
	// and partHeavy are per sparse part — sparseBounds under SparsePull,
	// lightBounds under SparsePullDegree: the row of the edge before the
	// part's first edge, and the ordinal in Sparse.Heavy of the first
	// heavy row at or after the part's first row.
	flipAdv   [][]uint8
	sparseAdv []uint8
	partPrev  []int
	partHeavy []int
}

type blockTask struct {
	block  int
	lo, hi int // source range
	// chunk is the encoded-chunk ordinal of the task under the varint
	// encoding (the source range then equals the chunk's row range);
	// unused under flat.
	chunk int
	// dLo, dHi bound the hub IDs this task's edges can write
	// (precomputed at build). Tracking the dirty range per task
	// instead of per edge keeps the push inner loop identical to the
	// phased pipeline's; the range is conservative (a source with a
	// zero value still widens it), which is sound because untouched
	// buffer slots hold the additive identity.
	dLo, dHi int
	// prev is the row of the edge before the task's first edge (row 0
	// ahead of the block's first): where the edge-major kernel starts
	// counting from, so a task begins mid-stream without scanning.
	prev int
}

// buildBlockTasks cuts each flipped block into edge-balanced source
// chunks — tasks — and precomputes each task's hub destination range.
// It also returns the task count per block (arming the fused merge
// countdowns) and the blocks with no tasks at all, whose hub slots
// must still be initialised each Step.
func buildBlockTasks(ih *IHTL, chunksPerBlock int) (tasks []blockTask, perBlock, empty []int) {
	perBlock = make([]int, len(ih.Blocks))
	for b := range ih.Blocks {
		fb := &ih.Blocks[b]
		if fb.NumEdges() == 0 {
			empty = append(empty, b)
			continue
		}
		bounds := sched.EdgeBalancedParts(fb.Index, chunksPerBlock)
		for c := 0; c < len(bounds)-1; c++ {
			lo, hi := bounds[c], bounds[c+1]
			if lo >= hi {
				continue
			}
			t := blockTask{block: b, lo: lo, hi: hi, prev: rowBeforeEdge(fb.Index, fb.Index[lo])}
			for i := fb.Index[lo]; i < fb.Index[hi]; i++ {
				d := int(fb.Dsts[i])
				if t.dHi == t.dLo { // first edge
					t.dLo, t.dHi = d, d+1
					continue
				}
				if d < t.dLo {
					t.dLo = d
				}
				if d+1 > t.dHi {
					t.dHi = d + 1
				}
			}
			tasks = append(tasks, t)
			perBlock[b]++
		}
		if perBlock[b] == 0 {
			empty = append(empty, b)
		}
	}
	return tasks, perBlock, empty
}

// dirtyRange is a half-open hub interval; empty when hi <= lo.
type dirtyRange struct {
	lo, hi int
}

// healthSlot is one worker's non-finite tally, padded to a cache line.
type healthSlot struct {
	count int64
	first int64
	_     [6]int64
}

// flipCursor is one worker's claim position inside its static
// flipped-task range (StaticFlipped engines), padded to a cache line
// so neighbouring workers' claims do not share one.
type flipCursor struct {
	next, hi int
	_        [6]int64
}

// workerClock is one worker's per-phase busy time, padded to a cache
// line. The sparse field covers the pull kernels; the propagation-
// blocked kernel splits its time into bin and drain instead, so the
// stepjson per-phase breakdown stays honest for either kernel.
type workerClock struct {
	flipped time.Duration
	merge   time.Duration
	sparse  time.Duration
	bin     time.Duration
	drain   time.Duration
	_       [3]int64
}

// Breakdown accumulates time per Algorithm 3 phase across Steps;
// Table 5's "FB Time" and "Buffer Merging" columns divide these by the
// total.
//
// Two views are kept. The *busy* fields sum, over workers, the time
// each worker actually spent executing a phase; the fused pipeline
// records them, since fused phases have no wall-clock boundaries to
// time. The *wall* fields (Flipped/Merge/Sparse) are the elapsed time
// of each barriered phase and are only recorded by the phased
// pipeline, whose barriers define them; they include the barrier wait
// behind the slowest worker. Wall is the elapsed time of whole Steps
// (including any fused StepEpi epilogue) under either pipeline, so
// the phase columns never double-count it.
type Breakdown struct {
	Flipped time.Duration // phased only: elapsed flipped phase
	Merge   time.Duration // phased only: elapsed merge phase
	Sparse  time.Duration // phased only: elapsed sparse phase

	FlippedBusy time.Duration // Σ workers' in-phase busy time
	MergeBusy   time.Duration
	SparseBusy  time.Duration
	// BinBusy/DrainBusy split the sparse phase of the propagation-
	// blocked kernel (SparsePB); the pull kernels leave them zero and
	// record SparseBusy instead.
	BinBusy   time.Duration
	DrainBusy time.Duration
	// ExchangeBinBusy/ExchangeDrainBusy are the sharded engine's cross-
	// shard exchange phases (see sharded.go); single-shard engines leave
	// them zero.
	ExchangeBinBusy   time.Duration
	ExchangeDrainBusy time.Duration

	Wall  time.Duration // elapsed time of all Steps
	Steps int
}

// SparseTotalBusy returns the summed busy time of the sparse phase
// under any kernel: the pull kernels' SparseBusy plus the PB kernel's
// bin and drain halves.
func (b Breakdown) SparseTotalBusy() time.Duration {
	return b.SparseBusy + b.BinBusy + b.DrainBusy
}

// Total returns the elapsed time of all Steps: the measured wall time
// when available, otherwise the summed phase walls.
func (b Breakdown) Total() time.Duration {
	if b.Wall > 0 {
		return b.Wall
	}
	return b.Flipped + b.Merge + b.Sparse
}

// TotalBusy returns the summed per-worker busy time across phases.
func (b Breakdown) TotalBusy() time.Duration {
	return b.FlippedBusy + b.MergeBusy + b.SparseTotalBusy() + b.ExchangeBinBusy + b.ExchangeDrainBusy
}

// FlippedFrac returns the fraction of time spent pushing flipped
// blocks (0 when no Steps ran). Busy time is preferred — it is
// attributable under fusion and does not double-count scheduler idle
// time; the wall split is the fallback for breakdowns recorded by
// older phased-only runs.
func (b Breakdown) FlippedFrac() float64 {
	if t := b.TotalBusy(); t > 0 {
		return float64(b.FlippedBusy) / float64(t)
	}
	if t := b.Flipped + b.Merge + b.Sparse; t > 0 {
		return float64(b.Flipped) / float64(t)
	}
	return 0
}

// MergeFrac returns the fraction of time spent merging buffers.
func (b Breakdown) MergeFrac() float64 {
	if t := b.TotalBusy(); t > 0 {
		return float64(b.MergeBusy) / float64(t)
	}
	if t := b.Flipped + b.Merge + b.Sparse; t > 0 {
		return float64(b.Merge) / float64(t)
	}
	return 0
}

// EngineOptions tunes the Algorithm 3 engine.
type EngineOptions struct {
	// AtomicFlipped processes flipped blocks with atomic updates
	// directly into the hub data instead of per-thread buffers. The
	// paper chose buffering "as it is more efficient in the setting
	// of iHTL" (§3.4); this option exists to ablate that choice.
	AtomicFlipped bool
	// Phased selects the pre-fusion pipeline — three barriered pool
	// dispatches per Step (flipped, merge, sparse) with an
	// O(workers x NumHubs) merge sweep — for ablating the fused
	// single-dispatch pipeline.
	Phased bool
	// StaticFlipped pins the flipped-task → worker assignment to a
	// fixed partition instead of range stealing. Merges already fold
	// worker buffers in ascending worker order and every sparse kernel
	// sums each destination in an order that is a pure function of the
	// topology, so with this option the ONLY remaining source of
	// run-to-run float variance — which worker accumulated which
	// partial sum — is gone: Step and StepBatch become bit-for-bit
	// reproducible across runs for a fixed worker count. The serving
	// layer's replay guarantees (checkpoint warm restart, coalesced
	// lane == solo run) are built on this mode; the price is losing
	// the steal scheduler's load balancing on skewed blocks.
	// Incompatible with AtomicFlipped, whose CAS merge order is
	// schedule-dependent by nature.
	StaticFlipped bool
	// Health arms the opt-in numeric watchdog: the SpMV result vector
	// is scanned for NaN/±Inf after each (Every-th) step, fused into
	// the epilogue sweep on the fused pipeline. See spmv.HealthPolicy.
	Health spmv.HealthPolicy
	// SparseKernel selects the sparse-block kernel: SparseAuto (the
	// measured default), SparsePull, SparsePullDegree or SparsePB.
	// All three produce bit-for-bit identical results; they differ in
	// memory-access shape and scheduling. See sparse.go.
	SparseKernel SparseKernel
	// BlockEncoding selects the adjacency representation the engine
	// traverses: EncodingAuto (varint when only the encoded topology
	// is resident, flat otherwise), EncodingFlat or EncodingVarint.
	// All pipelines are bit-for-bit identical under either encoding.
	// See encoding.go.
	BlockEncoding BlockEncoding
	// Shards splits execution into N contiguous vertex-range shards,
	// each with its own flipped + sparse blocks, hub buffers and degree
	// buckets, joined by a deterministic cross-shard exchange phase.
	// 0 or 1 selects today's single-shard engine. Sharding partitions
	// the ORIGINAL graph, so the option is honoured by the public
	// ihtl.NewEngineOpts (which routes to BuildSharded +
	// NewShardedEngineOpts); core.NewEngineOpts over an already built
	// IHTL rejects Shards > 1. See sharded.go.
	Shards int

	// forceLayout is the differential suites' hook: every block with
	// edges takes this layout instead of choosing by row length. Zero
	// (the only value code outside this package can give it) chooses.
	forceLayout BlockLayout
}

// NewEngine prepares an Algorithm 3 engine on the given pool with
// default options; see NewEngineOpts for what it asks of the pool.
func NewEngine(ih *IHTL, pool *sched.Pool) (*Engine, error) {
	return NewEngineOpts(ih, pool, EngineOptions{})
}

// NewEngineOpts is NewEngine with explicit options. The pool is
// borrowed, not owned, and construction DISPATCHES on it (the edge-major
// adv streams are built in parallel, edgemajor.go): like Step it must be
// called from the goroutine that owns the pool, with no other dispatch —
// another construction, a Step — in flight on it. A closed pool
// (sched.ErrPoolClosed) or a worker panic (*sched.PanicError) is
// returned as the error.
//
// Options asking for more than one shard are rejected here: sharding
// partitions the ORIGINAL graph before iHTL construction, so it enters
// through BuildSharded + NewShardedEngineOpts (or the public
// ihtl.NewEngineOpts, which routes EngineOptions.Shards there).
func NewEngineOpts(ih *IHTL, pool *sched.Pool, opt EngineOptions) (*Engine, error) {
	if opt.Shards > 1 {
		return nil, fmt.Errorf("core: NewEngineOpts cannot shard a built IHTL (want NewShardedEngineOpts over a BuildSharded graph)")
	}
	if pool == nil {
		return nil, fmt.Errorf("core: nil IHTL or pool")
	}
	return newEngineWorkers(ih, pool, opt, pool.Workers())
}

// newEngineWorkers is NewEngineOpts with an explicit worker count: the
// number of distinct worker indices the engine's per-worker state is
// sized for. The sharded engine builds its sub-engines with each
// shard's GROUP size and drives their worker bodies with group-local
// indices inside its own single dispatch.
func newEngineWorkers(ih *IHTL, pool *sched.Pool, opt EngineOptions, nworkers int) (*Engine, error) {
	if ih == nil || pool == nil {
		return nil, fmt.Errorf("core: nil IHTL or pool")
	}
	if nworkers < 1 || nworkers > pool.Workers() {
		return nil, fmt.Errorf("core: engine worker count %d outside [1, %d]", nworkers, pool.Workers())
	}
	if opt.AtomicFlipped {
		// A 3x-slower ablation: it keeps its flat kernels only.
		if opt.StaticFlipped {
			return nil, fmt.Errorf("core: StaticFlipped is incompatible with AtomicFlipped (CAS merge order is schedule-dependent)")
		}
		if resolveEncoding(opt.BlockEncoding, ih) == EncodingVarint {
			return nil, fmt.Errorf("core: AtomicFlipped is incompatible with the varint block encoding (the ablation has flat kernels only)")
		}
	}
	e := &Engine{ih: ih, pool: pool, atomicFlipped: opt.AtomicFlipped, phased: opt.Phased, health: opt.Health, nworkers: nworkers}
	if !e.atomicFlipped {
		e.bufs = make([][]float64, nworkers)
		for w := range e.bufs {
			e.bufs[w] = make([]float64, ih.NumHubs)
		}
	}
	e.initEncoding(opt.BlockEncoding)
	if e.varint {
		// One task per encoded chunk: a bounded, cache-resident run of
		// rows, so it is the steal granule.
		e.blockTasks, e.tasksPerBlock, e.emptyBlocks = buildBlockTasksEnc(ih)
	} else {
		// Edge-balanced source chunks per flipped block: the per-block
		// CSR index arrays give exact per-source edge counts.
		e.blockTasks, e.tasksPerBlock, e.emptyBlocks = buildBlockTasks(ih, nworkers*4)
	}
	if n := ih.NumV - ih.Sparse.DestLo; n > 0 {
		e.sparseBounds = sched.EdgeBalancedParts(ih.Sparse.Index, nworkers*4)
	}
	e.initSparseKernel(opt.SparseKernel)
	if err := e.initLayouts(opt.forceLayout); err != nil {
		return nil, fmt.Errorf("core: building edge-major streams: %w", err)
	}
	if opt.StaticFlipped {
		e.staticFlip = true
		e.flipBounds = make([]int, nworkers+1)
		for wi := 0; wi < nworkers; wi++ {
			lo, hi := sched.SplitRange(len(e.blockTasks), nworkers, wi)
			e.flipBounds[wi], e.flipBounds[wi+1] = lo, hi
		}
		e.flipCursors = make([]flipCursor, nworkers)
	}
	w := nworkers
	e.flipSched = sched.NewStealScheduler(w)
	e.sparseSched = sched.NewStealScheduler(w)
	e.blockGate = sched.NewCountdowns(len(ih.Blocks))
	e.dirty = make([]dirtyRange, w*len(ih.Blocks))
	e.clocks = make([]workerClock, w)
	if e.atomicFlipped && ih.NumHubs > 0 {
		e.hubClearBounds = sched.VertexBalancedParts(ih.NumHubs, w)
		e.clearBarrier = sched.NewBarrier(w)
	}
	if e.atomicFlipped {
		e.fusedJob = e.fusedWorkerAtomic
	} else {
		e.fusedJob = e.fusedWorkerBuffered
	}
	e.epiBarrier = sched.NewBarrier(w)
	e.phasedEpiJob = func(worker int) {
		lo, hi := sched.SplitRange(e.ih.NumV, e.nworkers, worker)
		e.curEpi(worker, lo, hi)
	}
	e.healthBad = make([]healthSlot, w)
	e.healthScanJob = e.healthScan
	e.curK = 1
	return e, nil
}

// Workers returns the number of distinct worker indices a StepEpi
// epilogue can observe. It equals the pool's worker count for engines
// built with NewEngineOpts; a sharded engine's sub-engines are sized
// for their shard group instead.
func (e *Engine) Workers() int { return e.nworkers }

// NumVertices implements spmv.Stepper.
func (e *Engine) NumVertices() int { return e.ih.NumV }

// Graph returns the engine's iHTL graph.
func (e *Engine) Graph() *IHTL { return e.ih }

// TakeBreakdown returns the accumulated phase breakdown and resets it.
func (e *Engine) TakeBreakdown() Breakdown {
	b := e.breakdown
	e.breakdown = Breakdown{}
	return b
}

// Step computes dst[v] = Σ_{u ∈ N⁻(v)} src[u] in iHTL ID space.
// src and dst must have length NumV and must not alias.
//
//ihtl:noalloc
func (e *Engine) Step(src, dst []float64) { e.StepEpi(src, dst, nil) }

// StepEpi is Step followed by an element-wise epilogue: every worker
// runs epi(w, lo, hi) over its static share [lo, hi) of [0, NumV)
// once all of dst is complete. Under the fused pipeline the epilogue
// runs INSIDE the same dispatch, behind an internal barrier, so a
// whole analytic iteration — SpMV plus e.g. PageRank's damping/delta/
// contribution sweep — costs a single pool round-trip. The phased
// pipeline runs it as a separate dispatch. epi may be nil.
//
//ihtl:noalloc
func (e *Engine) StepEpi(src, dst []float64, epi func(w, lo, hi int)) {
	if herr := e.stepEpi(src, dst, epi); herr != nil {
		e.panicHealth(herr)
	}
}

// panicHealth raises a watchdog verdict from the plain (non-ctx)
// entrypoints, which have no error return; StepEpiCtx returns it
// instead.
func (e *Engine) panicHealth(herr *spmv.NumericError) {
	panic(herr)
}

// stepEpi is the shared body of StepEpi and StepEpiCtx: one scalar
// step plus epilogue, returning the numeric-health verdict (nil when
// the watchdog is off, scanning a different step, or satisfied).
//
//ihtl:noalloc
func (e *Engine) stepEpi(src, dst []float64, epi func(w, lo, hi int)) *spmv.NumericError {
	ih := e.ih
	if len(src) != ih.NumV || len(dst) != ih.NumV {
		panic("core: vector length mismatch")
	}
	e.armHealth(1)
	if e.phased {
		e.stepPhased(src, dst)
		if e.healthArmed {
			// The fused pipeline folds this scan into its epilogue
			// barrier phase; the phased ablation pays one extra
			// dispatch, consistent with its per-phase structure.
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
		e.stepFused(src, dst)
		e.curEpi = nil
	}
	e.breakdown.Steps++
	return e.collectHealth()
}

// StepCtx is Step with cancellation and panic isolation: it returns
// ctx.Err() promptly when ctx is cancelled (observed at every task
// claim), converts a pool-worker panic into a returned
// *sched.PanicError, and returns a *spmv.NumericError when the armed
// health watchdog fails the step. After a cancelled or panicked step
// the engine's reusable state (hub buffers, dirty ranges, barriers) is
// restored, so the next clean step is bit-for-bit identical to one on
// a fresh engine.
func (e *Engine) StepCtx(ctx context.Context, src, dst []float64) error {
	return e.StepEpiCtx(ctx, src, dst, nil)
}

// StepEpiCtx is StepEpi with the StepCtx contract.
func (e *Engine) StepEpiCtx(ctx context.Context, src, dst []float64, epi func(w, lo, hi int)) error {
	end, err := e.pool.Fallible(ctx)
	if err != nil {
		return err
	}
	herr := e.stepEpi(src, dst, epi)
	if err := end(); err != nil {
		e.recoverState()
		return err
	}
	if herr != nil {
		return herr
	}
	return nil
}

// armHealth stages the watchdog for one step of lane width k.
//
//ihtl:noalloc
func (e *Engine) armHealth(k int) {
	e.curK = k
	e.healthErr = nil
	if e.health.Mode == spmv.HealthOff {
		e.healthArmed = false
		return
	}
	e.healthArmed = e.health.Every <= 1 || e.breakdown.Steps%e.health.Every == 0
	if e.healthArmed {
		for i := range e.healthBad {
			e.healthBad[i].count = 0
			e.healthBad[i].first = 0
		}
	}
}

// healthScan is one worker's share of the watchdog sweep over the
// staged destination vector: flat lanes [lo*k, hi*k). It tallies
// non-finite elements into the worker's padded slot and, under
// HealthClamp, zeroes them in place. The first element of the range is
// routed through the fault injector's poison site, the deterministic
// hook the recovery tests and ihtlbench -faults use to corrupt a step.
//
//ihtl:noalloc
func (e *Engine) healthScan(w, lo, hi int) {
	if b := e.batch; b != nil && b.touched != nil {
		e.healthScanTouched(b.touched, w, lo, hi)
		return
	}
	k := e.curK
	dst := e.curDst
	flo, fhi := lo*k, hi*k
	if fhi > flo {
		dst[flo] = faultinject.Poison(faultinject.SiteStepHealth, dst[flo])
	}
	clamp := e.health.Mode == spmv.HealthClamp
	slot := &e.healthBad[w]
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
func (e *Engine) collectHealth() *spmv.NumericError {
	if !e.healthArmed {
		return nil
	}
	var count int64
	first := -1
	for w := range e.healthBad {
		s := &e.healthBad[w]
		if s.count == 0 {
			continue
		}
		count += s.count
		if first < 0 || int(s.first) < first {
			first = int(s.first)
		}
	}
	if count == 0 || e.health.Mode == spmv.HealthClamp {
		return nil
	}
	e.healthErr = &spmv.NumericError{Count: count, First: first, Rollback: e.health.Mode == spmv.HealthRollback}
	return e.healthErr
}

// recoverState restores the engine's reusable cross-step state after
// an aborted (cancelled or panicked) step, so the next clean step is
// bit-for-bit identical to one on a fresh engine: hub buffers may hold
// partial accumulations, dirty ranges may be half-widened, and the
// intra-dispatch barriers may hold straggler arrival counts.
func (e *Engine) recoverState() {
	for w := range e.bufs {
		clear(e.bufs[w])
	}
	for i := range e.dirty {
		e.dirty[i] = dirtyRange{}
	}
	e.epiBarrier.Reset()
	if e.clearBarrier != nil {
		e.clearBarrier.Reset()
	}
	if e.binBarrier != nil {
		// The PB bin cursors need no recovery: every chunk re-stages
		// its cursors at claim time, so only the abandoned barrier
		// crossing holds state.
		e.binBarrier.Reset()
	}
	if e.batch != nil {
		e.batch.recoverState()
	}
	for w := range e.clocks {
		e.clocks[w] = workerClock{}
	}
	e.curSrc, e.curDst, e.curEpi = nil, nil, nil
	e.healthArmed = false
	e.resetFlipCursors()
}

// stepFused runs all of Algorithm 3 as one pool dispatch; see
// fusedWorkerBuffered for the worker body.
//
//ihtl:noalloc
func (e *Engine) stepFused(src, dst []float64) {
	start := time.Now()
	e.stageFused(src, dst)
	e.pool.Run(e.fusedJob)
	e.unstageFused()
	e.breakdown.Wall += time.Since(start)
}

// stageFused arms the fused dispatch state for one step over the given
// vectors without dispatching: scheduler resets, merge-countdown
// arming, and vector staging. Split from stepFused so the sharded
// engine can stage every shard's sub-engine and then run all their
// worker bodies (e.fusedJob) under ONE pool dispatch of its own.
//
//ihtl:noalloc
func (e *Engine) stageFused(src, dst []float64) {
	e.flipSched.Reset(len(e.blockTasks))
	e.resetFlipCursors()
	e.resetSparseScheds()
	if !e.atomicFlipped {
		e.blockGate.Reset(e.tasksPerBlock)
	}
	e.curSrc, e.curDst = src, dst
}

// resetFlipCursors rearms the static flipped-task claim positions for
// one step; a no-op on stealing engines (flipCursors is nil).
//
//ihtl:noalloc
func (e *Engine) resetFlipCursors() {
	for w := range e.flipCursors {
		e.flipCursors[w].next = e.flipBounds[w]
		e.flipCursors[w].hi = e.flipBounds[w+1]
	}
}

// claimFlip hands worker w its next flipped-task range: by range
// stealing normally, or — on a StaticFlipped engine — the next task of
// the worker's fixed share, which keeps the task → worker assignment
// (and with it every buffer's partial-sum operand set) a pure function
// of the topology and worker count. The granule matches the stealing
// path's, so abort latency is unchanged.
//
//ihtl:noalloc
func (e *Engine) claimFlip(w int) (lo, hi int, ok bool) {
	if e.staticFlip {
		c := &e.flipCursors[w]
		if c.next >= c.hi {
			return 0, 0, false
		}
		lo = c.next
		c.next++
		return lo, c.next, true
	}
	return e.flipSched.Next(w, 1)
}

// unstageFused clears the staged vectors and folds the per-worker
// phase clocks into the breakdown after a fused dispatch completes.
//
//ihtl:noalloc
func (e *Engine) unstageFused() {
	e.curSrc, e.curDst = nil, nil
	e.harvestClocks()
}

// fusedWorkerBuffered is one worker's share of a fused buffered Step:
//
//  1. claim flipped tasks by range stealing, accumulating into the
//     worker's private hub buffer and widening the dirty hub range
//     per block by the task's precomputed destination bounds;
//  2. whenever a task completes its block (per-block countdown), merge
//     that block immediately — only buffers with non-empty dirty
//     ranges are read, and the hub slots are owned exclusively because
//     every task of the block has finished;
//  3. when no flipped work remains anywhere, claim sparse partitions
//     by range stealing and pull them;
//  4. if a StepEpi epilogue is staged, cross the epilogue barrier and
//     run the worker's share of it.
//
// No phase barrier exists between 1-3: a worker can be pulling sparse
// partitions while another still pushes a flipped block, because their
// dst ranges are disjoint ([0, NumHubs) vs [DestLo, NumV)).
//
// Phase clocks are read once per loop, not per task: flipped busy time
// is the whole claim loop (steal overhead included) minus the merges
// nested inside it.
//
//ihtl:noalloc
func (e *Engine) fusedWorkerBuffered(w int) {
	ih := e.ih
	src, dst := e.curSrc, e.curDst
	t0 := time.Now()
	if w == 0 {
		// Blocks with no edges are never merged; their hub slots are
		// still SpMV outputs (sums over zero terms) and must be zeroed.
		for _, b := range e.emptyBlocks {
			fb := &ih.Blocks[b]
			clear(dst[fb.HubLo:fb.HubHi])
		}
	}
	nb := len(ih.Blocks)
	buf := e.bufs[w]
	var mergeTime time.Duration
	for !e.pool.Aborted() {
		lo, hi, ok := e.claimFlip(w)
		if !ok {
			break
		}
		for ti := lo; ti < hi; ti++ {
			faultinject.Fire(faultinject.SiteFlippedTask)
			bt := &e.blockTasks[ti]
			e.pushTask(bt, src, buf)
			if bt.dHi > bt.dLo {
				dr := &e.dirty[w*nb+bt.block]
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
				e.mergeBlock(bt.block, dst)
				mergeTime += time.Since(tm)
			}
		}
	}
	t1 := time.Now()
	clk := &e.clocks[w]
	clk.flipped += t1.Sub(t0) - mergeTime
	clk.merge += mergeTime
	e.sparseWorker(w, src, dst)
	e.runEpilogue(w)
}

// runEpilogue crosses the epilogue barrier and runs the worker's share
// of a staged StepEpi epilogue; a no-op when none is staged. The
// barrier is required because the epilogue may read any dst element,
// while phases 1-3 only guarantee completion of the whole vector at
// dispatch end.
//
//ihtl:noalloc
func (e *Engine) runEpilogue(w int) {
	if e.curEpi == nil && !e.healthArmed {
		return
	}
	if !e.epiBarrier.WaitAbort(e.pool) {
		return
	}
	lo, hi := sched.SplitRange(e.ih.NumV, len(e.clocks), w)
	if e.healthArmed {
		e.healthScan(w, lo, hi)
	}
	if e.curEpi != nil {
		e.curEpi(w, lo, hi)
	}
}

// mergeBlock folds every worker's dirty hub range of block b into dst
// and resets the consumed buffer slots. The caller must hold the
// block's completion (its countdown reached zero), which makes the
// buffer slots and dirty entries of b stable and the hub range
// exclusively owned. Merge cost is proportional to the hub ranges
// actually written, not workers x NumHubs.
//
//ihtl:noalloc
func (e *Engine) mergeBlock(b int, dst []float64) {
	fb := &e.ih.Blocks[b]
	clear(dst[fb.HubLo:fb.HubHi])
	nb := len(e.ih.Blocks)
	for t := range e.bufs {
		dr := &e.dirty[t*nb+b]
		if dr.hi <= dr.lo {
			continue
		}
		buf := e.bufs[t]
		for h := dr.lo; h < dr.hi; h++ {
			dst[h] += buf[h]
			buf[h] = 0
		}
		dr.lo, dr.hi = 0, 0
	}
}

// fusedWorkerAtomic is the AtomicFlipped ablation's fused worker:
// cooperative hub zeroing, a barrier (CAS pushes must not start
// before every hub slot is cleared), stolen flipped tasks with CAS
// updates, then the sparse pull.
//
//ihtl:noalloc
func (e *Engine) fusedWorkerAtomic(w int) {
	ih := e.ih
	src, dst := e.curSrc, e.curDst
	clk := &e.clocks[w]
	if ih.NumHubs > 0 {
		t0 := time.Now()
		clear(dst[e.hubClearBounds[w]:e.hubClearBounds[w+1]])
		clk.merge += time.Since(t0)
		if !e.clearBarrier.WaitAbort(e.pool) {
			return
		}
	}
	t1 := time.Now() // after the barrier: waiting is not busy time
	for !e.pool.Aborted() {
		lo, hi, ok := e.claimFlip(w)
		if !ok {
			break
		}
		for ti := lo; ti < hi; ti++ {
			faultinject.Fire(faultinject.SiteFlippedTask)
			bt := &e.blockTasks[ti]
			fb := &ih.Blocks[bt.block]
			pushTaskFlatAtomic(bt, fb, src, dst)
		}
	}
	t2 := time.Now()
	clk.flipped += t2.Sub(t1)
	e.sparseWorker(w, src, dst)
	e.runEpilogue(w)
}

// harvestClocks folds the per-worker phase clocks into the breakdown
// and resets them. Called after the dispatch completes, so no worker
// is concurrently writing.
//
//ihtl:noalloc
func (e *Engine) harvestClocks() {
	for w := range e.clocks {
		c := &e.clocks[w]
		e.breakdown.FlippedBusy += c.flipped
		e.breakdown.MergeBusy += c.merge
		e.breakdown.SparseBusy += c.sparse
		e.breakdown.BinBusy += c.bin
		e.breakdown.DrainBusy += c.drain
		*c = workerClock{}
	}
}

// stepPhased is the pre-fusion pipeline: three barriered dispatches
// with a full O(workers x NumHubs) merge sweep. Kept selectable for
// ablating the fused pipeline (EngineOptions.Phased). It records the
// phase walls its barriers define instead of per-worker busy time —
// the same figures the pipeline produced before fusion, without
// per-task clock reads distorting what it ablates.
func (e *Engine) stepPhased(src, dst []float64) {
	ih := e.ih

	// Phase 1 — push traversal of the flipped blocks (Alg. 3 l.1-4).
	t0 := time.Now()
	if e.atomicFlipped {
		// Ablation path: skip the buffers and CAS straight into the
		// hub data. Requires zeroed hub slots first.
		//ihtl:allow-nosite trivial zeroing sweep with no recovery path of its own
		e.pool.ForStatic(ih.NumHubs, func(w, lo, hi int) {
			clear(dst[lo:hi])
		})
		e.pool.ForEachPart(len(e.blockTasks), func(w, task int) {
			bt := &e.blockTasks[task]
			fb := &ih.Blocks[bt.block]
			pushTaskFlatAtomic(bt, fb, src, dst)
		})
	} else {
		pushTask := func(w, task int) {
			e.pushTask(&e.blockTasks[task], src, e.bufs[w])
		}
		if e.staticFlip {
			// Pinned task → worker assignment: each buffer accumulates
			// a fixed operand set, and phase 2 folds buffers in fixed
			// order, so the phased pipeline is bit-reproducible too.
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

	// Phase 2 — aggregate thread buffers into hub data (l.5-7),
	// clearing each buffer entry after reading so the buffers are
	// ready for the next iteration without a separate reset sweep.
	// The atomic ablation wrote hub data in phase 1 already.
	if !e.atomicFlipped {
		bufs := e.bufs
		e.pool.ForStatic(ih.NumHubs, func(w, lo, hi int) {
			faultinject.Fire(faultinject.SiteMergeBlock)
			for h := lo; h < hi; h++ {
				sum := 0.0
				for t := range bufs {
					sum += bufs[t][h]
					bufs[t][h] = 0
				}
				dst[h] = sum
			}
		})
	}
	t2 := time.Now()

	// Phase 3 — the sparse block under the configured kernel (l.8-10).
	// The non-pull kernels run their sub-phases as separate dispatches
	// here (the dispatch boundary is the bin/drain barrier); the fused
	// pipeline is where they earn their keep.
	switch e.sparseKernel {
	case SparsePullDegree:
		if np := len(e.heavyBounds) - 1; np > 0 {
			e.pool.ForEachPart(np, func(w, part int) {
				e.sparseHeavyPart(part, src, dst)
			})
		}
		if np := len(e.lightBounds) - 1; np > 0 {
			e.pool.ForEachPart(np, func(w, part int) {
				e.sparseLightPart(part, src, dst)
			})
		}
	case SparsePB:
		if e.pb != nil {
			e.pool.ForEachPart(e.pb.numChunks, func(w, c int) {
				e.pbBinChunk(c, src)
			})
			e.pool.ForEachPart(e.pb.numBuckets, func(w, b int) {
				e.pbDrainBucket(b, dst)
			})
		}
	default:
		if nparts := len(e.sparseBounds) - 1; nparts > 0 {
			e.pool.ForEachPart(nparts, func(w, part int) {
				e.sparsePullPart(part, src, dst)
			})
		}
	}
	t3 := time.Now()

	e.breakdown.Flipped += t1.Sub(t0)
	e.breakdown.Merge += t2.Sub(t1)
	e.breakdown.Sparse += t3.Sub(t2)
	e.breakdown.Wall += t3.Sub(t0)
}

// PermuteToNew scatters a vector indexed by original IDs into iHTL ID
// order: out[NewID[v]] = in[v].
func (ih *IHTL) PermuteToNew(in, out []float64) {
	if len(in) != ih.NumV || len(out) != ih.NumV {
		panic("core: vector length mismatch")
	}
	for v, nv := range ih.NewID {
		out[nv] = in[v]
	}
}

// PermuteToOld is the inverse of PermuteToNew: out[v] = in[NewID[v]].
func (ih *IHTL) PermuteToOld(in, out []float64) {
	if len(in) != ih.NumV || len(out) != ih.NumV {
		panic("core: vector length mismatch")
	}
	for v, nv := range ih.NewID {
		out[v] = in[nv]
	}
}
