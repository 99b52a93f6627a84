package core

import (
	"fmt"
	"time"

	"ihtl/internal/faultinject"
	"ihtl/internal/sched"
	"ihtl/internal/spmv"
)

// Engine executes Algorithm 3 over a built IHTL graph: push the
// flipped blocks into per-thread hub buffers, merge the buffers, then
// pull the sparse block. It implements spmv.Stepper; its stepping
// methods are the embedded step shell's (shell.go).
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
// The driver is written once over the lane width k (StepBatch; Step is
// k == 1) and picks a kernel per task or per part — never per edge —
// from the block's layout, the width, and whether the step is an
// active-row one; DESIGN.md §8 has the table.
//
// The engine operates in iHTL (relabeled) vertex-ID space; use
// IHTL.NewID/OldID or the PermuteToNew/PermuteToOld helpers to move
// vectors between ID spaces.
type Engine struct {
	stepShell
	ih *IHTL

	// encoding is the resolved block encoding; varint (beside
	// staticFlip) mirrors encoding == EncodingVarint for branch-cheap
	// hot-path checks. Under varint the flipped tasks are encoded chunks
	// walked straight into the hub buffer, and the sparse pull walks the
	// row at sparseRowOff[i] straight into its sum; see encoding.go.
	encoding     BlockEncoding
	sparseRowOff []int64

	// batch holds the hub buffers and dirty ranges, set to the width of
	// the step in flight; see engine_batch.go.
	batch batchState
	// blockTasks are (block, source-chunk) pairs; a worker claims one
	// at a time, so it processes a single flipped block at a time as
	// §3.4 requires. Tasks are ordered by block, so the contiguous
	// ranges handed out by the steal scheduler keep a worker inside
	// one block's buffer as long as possible.
	blockTasks []blockTask
	// tasksPerBlock[b] is the number of blockTasks targeting block b;
	// it arms the per-block completion counters each step.
	tasksPerBlock []int
	// emptyBlocks lists blocks with no tasks at all; their hub slots
	// still need zeroing each fused step.
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
	// per-engine steal schedulers (allocated once, Reset per step);
	// blockGate holds one countdown latch per flipped block.
	flipSched   *sched.StealScheduler
	sparseSched *sched.StealScheduler
	blockGate   *sched.Countdowns
	// staticFlip (EngineOptions.StaticFlipped) replaces flipped-task
	// stealing with the fixed per-worker ranges in flipBounds;
	// flipCursors are the per-step claim positions.
	staticFlip bool
	// varint sits in staticFlip's padding, not beside encoding: the 8
	// bytes that frees ahead of batch pay for batchState.prefetch, so no
	// field after batch moves (DESIGN.md §8, "Prefetching the lanes").
	varint      bool
	flipBounds  []int
	flipCursors []flipCursor
	// fusedJob is the prebuilt worker body (capturing only e), so a
	// fused step allocates nothing.
	fusedJob func(w int)

	// clocks accumulate per-worker busy time per phase, cache-line
	// padded so the frequent updates don't false-share.
	clocks []workerClock

	// Edge-major layout state (edgemajor.go). flipAdv[b] is block b's
	// adv stream, nil while the block is walked CSR; sparseAdv is the
	// sparse block's. partPrev and partHeavy are per sparse part —
	// sparseBounds under SparsePull, lightBounds under SparsePullDegree:
	// the row of the edge before the part's first edge, and the ordinal
	// in Sparse.Heavy of the first heavy row at or after the part's
	// first row.
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
// per-phase breakdown (TakeBreakdown) stays honest for either kernel.
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
// (including any fused StepCtx epilogue) under either pipeline, so
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
	StaticFlipped bool
	// Health arms the opt-in numeric watchdog: the SpMV result vector
	// is scanned for NaN/±Inf after each step, fused into the epilogue
	// sweep on the fused pipeline. See spmv.HealthPolicy.
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
	e, err := newEngineWorkers(ih, pool, opt, pool.Workers())
	if err != nil {
		return nil, err
	}
	// With no flipped block the sparse parts tile every row and nothing
	// but the part's own pull writes them, so they are the epilogue's
	// slots, and the fused uniform pull finishes each one as it pulls it.
	// (A sharded engine's sub-engines keep the static grid: the exchange
	// still adds to their rows after the pull.)
	if len(ih.Blocks) == 0 && ih.Sparse.DestLo == 0 && len(e.sparseBounds) > 1 {
		e.initSlots(e.sparseBounds, !e.phased && e.sparseKernel == SparsePull)
	}
	return e, nil
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
	e := &Engine{ih: ih}
	e.initShell(e, pool, ih.NumV, nworkers, opt)
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
	e.flipSched = sched.NewStealScheduler(nworkers)
	e.sparseSched = sched.NewStealScheduler(nworkers)
	e.blockGate = sched.NewCountdowns(len(ih.Blocks))
	e.clocks = make([]workerClock, nworkers)
	e.batch.bufs = make([][]float64, nworkers)
	e.batch.dirty = make([]dirtyRange, nworkers*len(ih.Blocks))
	e.batch.hubBits = make([][]uint64, nworkers)
	for w := range e.batch.hubBits {
		e.batch.hubBits[w] = make([]uint64, len(ih.Blocks)*hubBitWords(ih))
	}
	e.setWidth(1)
	e.fusedJob = e.fusedWorker
	return e, nil
}

// Graph returns the engine's iHTL graph.
func (e *Engine) Graph() *IHTL { return e.ih }

// recoverDriver is the engine's half of the shell's recoverState: hub
// buffers may hold partial accumulations, dirty ranges may be
// half-widened, and the bin barrier may hold straggler arrival counts.
func (e *Engine) recoverDriver() {
	e.batch.recoverState()
	if e.binBarrier != nil {
		// The PB bin cursors need no recovery: every chunk re-stages
		// its cursors at claim time, so only the abandoned barrier
		// crossing holds state.
		e.binBarrier.Reset()
	}
	for w := range e.clocks {
		e.clocks[w] = workerClock{}
	}
	e.resetFlipCursors()
}

// stepFused runs all of Algorithm 3 as one pool dispatch; see
// fusedWorker for the worker body.
//
//ihtl:noalloc
func (e *Engine) stepFused(src, dst []float64) {
	start := time.Now()
	e.stage(src, dst)
	e.pool.Run(e.fusedJob)
	e.unstage()
	e.breakdown.Wall += time.Since(start)
}

// stage arms the fused dispatch state for one step over the given
// vectors without dispatching: scheduler resets, merge-countdown
// arming, vector staging and, for an active-row step, the touched set's
// starting value (empty: the merges and the sparse pull add the rows
// they write). Split from stepFused so the sharded engine can stage
// every shard's sub-engine and then run all their worker bodies
// (e.fusedJob) under ONE pool dispatch of its own.
//
//ihtl:noalloc
func (e *Engine) stage(src, dst []float64) {
	e.flipSched.Reset(len(e.blockTasks))
	e.resetFlipCursors()
	e.resetSparseScheds()
	e.blockGate.Reset(e.tasksPerBlock)
	clear(e.batch.touched)
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

// unstage clears the staged vectors and folds the per-worker phase
// clocks into the breakdown after a fused dispatch completes.
//
//ihtl:noalloc
func (e *Engine) unstage() {
	e.curSrc, e.curDst = nil, nil
	e.harvestClocks()
}

// fusedWorker is one worker's share of a fused step, at whatever width
// the batch state is set to:
//
//  1. claim flipped tasks by range stealing, accumulating into the
//     worker's private hub buffer — buf[d*k : d*k+k] for hub d — and
//     widening the dirty hub range per block by the task's precomputed
//     destination bounds (an active-row step sets a bit per hub pushed
//     into instead);
//  2. whenever a task completes its block (per-block countdown), merge
//     that block immediately — only buffers with non-empty dirty
//     ranges are read (only the hubs whose bits are set, in an
//     active-row step), and the hub slots are owned exclusively because
//     every task of the block has finished;
//  3. when no flipped work remains anywhere, claim sparse partitions
//     by range stealing and pull them — on a streamed step, scanning
//     and finishing each part as an epilogue slot right there;
//  4. otherwise, if an epilogue or a watchdog scan is staged,
//     cross the epilogue barrier and run the worker's slots of it.
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
func (e *Engine) fusedWorker(w int) {
	ih := e.ih
	b := &e.batch
	k := b.k
	src, dst := e.curSrc, e.curDst
	t0 := time.Now()
	if w == 0 && b.active == nil {
		// Blocks with no edges are never merged; their hub slots are
		// still SpMV outputs (sums over zero terms) and must be zeroed —
		// except by an active-row step, which writes only rows it
		// reached.
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
				pushTaskActive(k, bt, &ih.Blocks[bt.block], b.active, src, buf, b.blockHubBits(w, bt.block, nb))
			} else {
				e.pushTaskBatch(k, bt, src, buf)
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

// mergeBlock folds every worker's dirty hub range of block blk into
// dst, k lanes per hub, and resets the consumed buffer lanes. The
// caller must hold the block's completion (its countdown reached zero),
// which makes the buffer lanes and dirty entries of blk stable and the
// hub range exclusively owned; hub h's lanes [h*k, h*k+k) are dirty or
// clean as a unit because the dirty ranges track hubs, not lanes. Merge
// cost is proportional to the hub ranges actually written, not
// workers x NumHubs.
//
//ihtl:noalloc
func (e *Engine) mergeBlock(blk int, dst []float64) {
	b := &e.batch
	if b.active != nil {
		e.mergeBlockActive(blk, dst)
		return
	}
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
// with a full O(workers x NumHubs) merge sweep, at the same width and
// through the same kernel arms as the fused one. Kept selectable for
// ablating the fused pipeline (EngineOptions.Phased). It records the
// phase walls its barriers define instead of per-worker busy time —
// the same figures the pipeline produced before fusion, without
// per-task clock reads distorting what it ablates.
func (e *Engine) stepPhased(src, dst []float64) {
	ih := e.ih
	b := &e.batch
	k := b.k

	// Phase 1 — push traversal of the flipped blocks (Alg. 3 l.1-4).
	t0 := time.Now()
	pushTask := func(w, task int) {
		e.pushTaskBatch(k, &e.blockTasks[task], src, b.bufs[w])
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
	t1 := time.Now()

	// Phase 2 — aggregate thread buffers into hub data (l.5-7),
	// clearing each buffer entry after reading so the buffers are
	// ready for the next iteration without a separate reset sweep. The
	// flat sweep over [0, NumHubs*k) is element-wise, so the split
	// needs no lane alignment.
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
	t2 := time.Now()

	// Phase 3 — the sparse block under the configured kernel (l.8-10).
	// The non-pull kernels run their sub-phases as separate dispatches
	// here (the dispatch boundary is the bin/drain barrier); the fused
	// pipeline is where they earn their keep.
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
				e.sparsePullPartBatch(b, part, src, dst)
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
