package core

import (
	"fmt"
	"time"

	"ihtl/internal/faultinject"
	"ihtl/internal/graph"
	"ihtl/internal/sched"
	"ihtl/internal/spmv"
)

// Engine executes Algorithm 3 over a built IHTL graph: push the
// flipped blocks into per-thread hub buffers, merge the buffers, then
// pull the sparse block. It implements spmv.Stepper; its stepping
// methods and the step shell it embeds are in shell.go.
//
// By default the three phases run as a SINGLE fused pool dispatch:
// each worker pushes its fixed share of the flipped tasks (flipBounds),
// then claims sparse partitions with range stealing, and each flipped
// block's merge is gated only on that block's completion counter — not
// on a global barrier. This is safe because the destinations are
// disjoint: merges write dst[0, NumHubs) and the sparse pull writes
// dst[DestLo, NumV).
//
// The driver is written once over the lane width k (StepBatch; Step is
// k == 1) and picks a kernel per task or per part — never per edge —
// from the block's layout, the width, and whether the step is an
// active-row one; DESIGN.md §8 has the table.
//
// Which worker runs which flipped task is a pure function of the task
// count and the worker count, merges fold the buffers in worker order,
// and every sparse kernel sums each row in topology order, so Step and
// StepBatch are bit-for-bit reproducible for a fixed worker count: the
// contract the serving layer's replay guarantees are built on.
//
// The engine operates in iHTL (relabeled) vertex-ID space; use
// IHTL.NewID/OldID or the PermuteToNew/PermuteToOld helpers to move
// vectors between ID spaces.
type Engine struct {
	stepShell
	ih *IHTL

	// batch holds the hub buffers and dirty ranges, set to the width of
	// the step in flight; see engine_batch.go.
	batch batchState
	// blockTasks are (block, source-chunk) pairs; a worker runs one at
	// a time, so it processes a single flipped block at a time as §3.4
	// requires. Tasks are ordered by block, so each worker's contiguous
	// share keeps it inside one block's buffer as long as possible.
	blockTasks []blockTask
	// flipBounds splits blockTasks into one contiguous share per
	// worker: worker w runs tasks [flipBounds[w], flipBounds[w+1]) of
	// every step (flipTaskBounds).
	flipBounds []int
	// tasksPerBlock[b] is the number of blockTasks targeting block b;
	// it arms the per-block completion counters each step.
	tasksPerBlock []int
	// emptyBlocks lists blocks with no tasks at all; their hub slots
	// still need zeroing each fused step.
	emptyBlocks []int
	// sparseBounds are edge-balanced destination ranges of the
	// sparse block.
	sparseBounds []int

	// Fused-dispatch state. sparseSched is a persistent per-engine
	// steal scheduler (allocated once, Reset per step); blockGate holds
	// one countdown latch per flipped block.
	sparseSched *sched.StealScheduler
	blockGate   *sched.Countdowns
	// fusedJob is the prebuilt worker body (capturing only e), so a
	// fused step allocates nothing.
	fusedJob func(w int)

	// clocks accumulate per-worker busy time per phase, cache-line
	// padded so the frequent updates don't false-share.
	clocks []workerClock

	// Edge-major layout state (edgemajor.go). flipAdv[b] is block b's
	// adv stream, nil while the block is walked CSR; sparseAdv is the
	// sparse block's. partPrev is per sparse part (sparseBounds): the
	// row of the edge before the part's first edge.
	flipAdv   [][]uint8
	sparseAdv []uint8
	partPrev  []int
}

type blockTask struct {
	block  int
	lo, hi int // source range
	// dLo, dHi bound the hub IDs this task's edges can write
	// (precomputed at build). Tracking the dirty range per task
	// instead of per edge keeps the push inner loop free of it; the
	// range is conservative (a source with a zero value still widens
	// it), which is sound because untouched buffer slots hold the
	// additive identity.
	dLo, dHi int
	// prev is the row of the edge before the task's first edge (row 0
	// ahead of the block's first): where the edge-major kernel starts
	// counting from, so a task begins mid-stream without scanning.
	prev int
}

// buildBlockTasks cuts each flipped block into edge-balanced source
// chunks — tasks — and precomputes each task's hub destination range
// from the first and last destination of each row (rowsDstRange).
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
			t.dLo, t.dHi = rowsDstRange(fb.Index, fb.Dsts, lo, hi)
			tasks = append(tasks, t)
			perBlock[b]++
		}
		if perBlock[b] == 0 {
			empty = append(empty, b)
		}
	}
	return tasks, perBlock, empty
}

// rowsDstRange returns the half-open range of the destinations of rows
// [lo, hi), empty (0, 0) when they hold no edge. Every row of a flipped
// block is ascending — the build transposes in ascending order, a
// packed row's gaps are unsigned, and ReadIHTL refuses a raw row that
// descends — so a row's first and last entries bound it and the walk
// is per row, not per edge.
func rowsDstRange(index []int64, dsts []graph.VID, lo, hi int) (dLo, dHi int) {
	for s := lo; s < hi; s++ {
		a, z := index[s], index[s+1]
		if a == z {
			continue
		}
		first, last := int(dsts[a]), int(dsts[z-1])+1
		if dHi == dLo { // first non-empty row
			dLo, dHi = first, last
			continue
		}
		dLo, dHi = min(dLo, first), max(dHi, last)
	}
	return dLo, dHi
}

// dirtyRange is a half-open hub interval; empty when hi <= lo.
type dirtyRange struct {
	lo, hi int
}

// workerClock is one worker's per-phase busy time, padded to a cache
// line.
type workerClock struct {
	flipped time.Duration
	merge   time.Duration
	sparse  time.Duration
	_       [5]int64
}

// Breakdown accumulates time per Algorithm 3 phase across Steps;
// Table 5's "FB Time" and "Buffer Merging" columns divide these by the
// total.
//
// The *busy* fields sum, over workers, the time each worker actually
// spent executing a phase: fused phases have no wall-clock boundaries
// to time. Wall is the elapsed time of whole Steps, including any
// fused StepCtx epilogue, so the phase columns never double-count it.
type Breakdown struct {
	FlippedBusy time.Duration // Σ workers' in-phase busy time
	MergeBusy   time.Duration
	SparseBusy  time.Duration

	Wall time.Duration // elapsed time of all Steps
	//ihtl:allow-dead the per-step divisor of BenchmarkSparseKernel and the breakdown tests; deleting it moves Engine.batch
	Steps int
}

// SparseTotalBusy returns the summed busy time of the sparse phase. It
// equals SparseBusy: the pull is the only sparse kernel.
func (b Breakdown) SparseTotalBusy() time.Duration {
	return b.SparseBusy
}

// TotalBusy returns the summed per-worker busy time across phases.
func (b Breakdown) TotalBusy() time.Duration {
	return b.FlippedBusy + b.MergeBusy + b.SparseBusy
}

// FlippedFrac returns the fraction of busy time spent pushing flipped
// blocks (0 when no Steps ran). Busy time is attributable under fusion
// and does not double-count scheduler idle time.
func (b Breakdown) FlippedFrac() float64 {
	if t := b.TotalBusy(); t > 0 {
		return float64(b.FlippedBusy) / float64(t)
	}
	return 0
}

// MergeFrac returns the fraction of busy time spent merging buffers.
func (b Breakdown) MergeFrac() float64 {
	if t := b.TotalBusy(); t > 0 {
		return float64(b.MergeBusy) / float64(t)
	}
	return 0
}

// EngineOptions tunes the Algorithm 3 engine.
type EngineOptions struct {
	// Phased is read by no code: every engine runs the fused
	// single-dispatch pipeline.
	//
	// Deprecated: the three-dispatch pipeline it selected lost every
	// recorded measurement and was removed (DESIGN.md §12). Leave it
	// unset.
	Phased bool
	// StaticFlipped is read by no code: every engine splits its
	// flipped tasks into fixed per-worker shares, so Step and StepBatch
	// are bit-for-bit reproducible for a fixed worker count whatever
	// this says.
	//
	// Deprecated: the static split it selected is the only flipped
	// schedule. Leave it unset.
	StaticFlipped bool
	// Health arms the opt-in numeric watchdog: the SpMV result vector
	// is scanned for NaN/±Inf after each step, fused into the epilogue
	// sweep on the fused pipeline. See spmv.HealthPolicy.
	Health spmv.HealthPolicy
	// SparseKernel is read by no code: every engine runs the uniform
	// pull over the sparse block.
	//
	// Deprecated: the propagation-blocked kernel SparsePB selected lost
	// every recorded measurement and was removed (DESIGN.md §12). Leave
	// it unset.
	SparseKernel SparseKernel
	// BlockEncoding is read by no code: every engine walks the flat
	// adjacency, which a packed v2 file is decoded into when it is
	// opened.
	//
	// Deprecated: the packed-row kernels it selected lost every
	// recorded measurement past L2 and were removed (DESIGN.md §13).
	// Leave it unset.
	BlockEncoding BlockEncoding
	// Shards is read by no code: every value builds the single-graph
	// engine.
	//
	// Deprecated: the sharded engine it selected lost every recorded
	// measurement and was removed (DESIGN.md §15). Leave it unset.
	Shards int

	// forceLayout is the oracle's hook (TestOracle): every block with
	// edges takes this layout instead of choosing by row length. Zero
	// (the only value code outside this package can give it) chooses.
	forceLayout BlockLayout
}

// BlockEncoding named the adjacency form an Engine walked.
//
// Deprecated: every engine walks the flat adjacency, and
// EngineOptions.BlockEncoding is read by no code.
type BlockEncoding int

const (
	// EncodingAuto is the zero value, and what every engine runs: flat.
	//
	// Deprecated: see BlockEncoding.
	EncodingAuto BlockEncoding = iota
	// EncodingFlat means flat.
	//
	// Deprecated: see BlockEncoding.
	EncodingFlat
	// EncodingVarint named the packed gap rows, which a v2 file still
	// stores; it too means flat.
	//
	// Deprecated: see BlockEncoding.
	EncodingVarint
)

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
func NewEngineOpts(ih *IHTL, pool *sched.Pool, opt EngineOptions) (*Engine, error) {
	if ih == nil || pool == nil {
		return nil, fmt.Errorf("core: nil IHTL or pool")
	}
	workers := pool.Workers()
	e := &Engine{ih: ih}
	e.initShell(pool, ih.NumV, opt)
	// Edge-balanced source chunks per flipped block: the per-block CSR
	// index arrays give exact per-source edge counts.
	e.blockTasks, e.tasksPerBlock, e.emptyBlocks = buildBlockTasks(ih, workers*4)
	if ih.NumV > ih.Sparse.DestLo {
		e.sparseBounds = sched.EdgeBalancedParts(ih.Sparse.Index, workers*4)
	}
	if err := e.initLayouts(opt.forceLayout); err != nil {
		return nil, fmt.Errorf("core: building edge-major streams: %w", err)
	}
	e.flipBounds = flipTaskBounds(len(e.blockTasks), workers)
	e.sparseSched = sched.NewStealScheduler(workers)
	e.blockGate = sched.NewCountdowns(len(ih.Blocks))
	e.clocks = make([]workerClock, workers)
	e.batch.bufs = make([][]float64, workers)
	e.batch.dirty = make([]dirtyRange, workers*len(ih.Blocks))
	e.batch.hubBits = make([][]uint64, workers)
	for w := range e.batch.hubBits {
		e.batch.hubBits[w] = make([]uint64, len(ih.Blocks)*hubBitWords(ih))
	}
	e.setWidth(1)
	e.fusedJob = e.fusedWorker
	// With no flipped block the sparse parts tile every row and nothing
	// but the part's own pull writes them, so they are the epilogue's
	// slots, and the fused uniform pull finishes each one as it pulls it.
	if len(ih.Blocks) == 0 && ih.Sparse.DestLo == 0 && len(e.sparseBounds) > 1 {
		e.initSlots(e.sparseBounds, true)
	}
	return e, nil
}

// recoverState restores the reusable cross-step state after an aborted
// (cancelled or panicked) step, so the next clean step is bit-for-bit
// identical to one on a fresh engine: hub buffers may hold partial
// accumulations, dirty ranges may be half-widened, the epilogue
// barrier may hold straggler arrival counts, and the shell's staging
// may still be set.
func (e *Engine) recoverState() {
	e.batch.recoverState()
	clear(e.clocks)
	e.epiBarrier.Reset()
	e.curSrc, e.curDst, e.curEpi, e.touched = nil, nil, nil, nil
	e.healthArmed, e.streamed = false, false
}

// stepFused runs all of Algorithm 3 as one pool dispatch; see
// fusedWorker for the worker body.
//
//ihtl:noalloc
func (e *Engine) stepFused(src, dst []float64) {
	start := time.Now()
	// Arm the dispatch: scheduler resets, merge countdowns, the staged
	// vectors and, for an active-row step, the touched set's starting
	// value (empty: the merges and the sparse pull add the rows they
	// write).
	if n := len(e.sparseBounds) - 1; n > 0 {
		e.sparseSched.Reset(n)
	}
	e.blockGate.Reset(e.tasksPerBlock)
	clear(e.batch.touched)
	e.curSrc, e.curDst = src, dst
	e.pool.Run(e.fusedJob)
	e.curSrc, e.curDst = nil, nil
	e.harvestClocks()
	e.breakdown.Wall += time.Since(start)
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

// fusedWorker is one worker's share of a fused step, at whatever width
// the batch state is set to:
//
//  1. run the worker's share of the flipped tasks (flipBounds), one
//     task at a time, accumulating into the worker's private hub
//     buffer — buf[d*k : d*k+k] for hub d — and widening the dirty hub
//     range per block by the task's precomputed destination bounds (an
//     active-row step sets a bit per hub pushed into instead);
//  2. whenever a task completes its block (per-block countdown), merge
//     that block immediately — only buffers with non-empty dirty
//     ranges are read (only the hubs whose bits are set, in an
//     active-row step), and the hub slots are owned exclusively because
//     every task of the block has finished;
//  3. when its share is done, claim sparse partitions by range
//     stealing and pull them — on a streamed step, scanning and
//     finishing each part as an epilogue slot right there;
//  4. otherwise, if an epilogue or a watchdog scan is staged,
//     cross the epilogue barrier and run the worker's slots of it.
//
// No phase barrier exists between 1-3: a worker can be pulling sparse
// partitions while another still pushes a flipped block, because their
// dst ranges are disjoint ([0, NumHubs) vs [DestLo, NumV)).
//
// A worker whose share finishes early moves on to the sparse parts, so
// the sparse phase's stealing absorbs the flipped shares' imbalance.
// Abort is checked once per task.
//
// Phase clocks are read once per loop, not per task: flipped busy time
// is the whole task loop minus the merges nested inside it.
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
	for ti := e.flipBounds[w]; ti < e.flipBounds[w+1] && !e.pool.Aborted(); ti++ {
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
	t1 := time.Now()
	clk := &e.clocks[w]
	clk.flipped += t1.Sub(t0) - mergeTime
	clk.merge += mergeTime
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
		*c = workerClock{}
	}
}

// step is one fused step of width k plus epilogue, and what every entry
// point of shell.go runs. It returns the numeric-health verdict: a
// *spmv.NumericError, or nil when the watchdog is off or satisfied.
// streamEpi says the caller holds epi to the streamed contract
// (Epilogue.Stream); the scan alone streams at any width, since it
// reads a slot's rows only.
//
//ihtl:noalloc
func (e *Engine) step(src, dst []float64, k int, epi func(slot, lo, hi int), streamEpi bool) error {
	e.setWidth(k)
	e.armHealth(k)
	e.curEpi = epi
	e.streamed = e.streams && e.touched == nil && (epi != nil || e.healthArmed) && (epi == nil || streamEpi)
	e.stepFused(src, dst)
	e.streamed = false
	e.curEpi = nil
	e.breakdown.Steps++
	return e.collectHealth()
}

// flipTaskBounds splits ntasks flipped tasks into nworkers contiguous
// shares, near-equal in task count (sched.SplitRange): worker w runs
// tasks [b[w], b[w+1]) of every step. Every worker's hub buffer thus
// accumulates a fixed operand set in a fixed order, which is what makes
// a step's bits a pure function of the topology and the worker count.
// Both engine types take their shares from here.
func flipTaskBounds(ntasks, nworkers int) []int {
	b := make([]int, nworkers+1)
	for w := 0; w < nworkers; w++ {
		_, b[w+1] = sched.SplitRange(ntasks, nworkers, w)
	}
	return b
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
