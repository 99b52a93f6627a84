package core

// Sharded execution of Algorithm 3 (see shard.go for construction and
// DESIGN.md §15 for the model): one SpMV step runs every shard's own
// fused pipeline over its subvector, plus a cross-shard exchange with
// exactly the pb kernel's bin/drain discipline.
//
// Fused mode (the default) is ONE pool dispatch per step. The pool's
// workers are cut into shard-affine groups (sched.ShardGroups): each
// shard's sub-engine is sized for its group and its flipped/sparse
// work is claimed only inside the group, so the shard's hub buffers
// stay hot there. Each worker then:
//
//  1. runs its shard's fused worker body (push, merge, sparse — the
//     unmodified Engine pipeline over the shard's subvectors);
//  2. bins cross-shard contributions: claims source chunks of the
//     exchange CSR and appends (row, value) pairs into exact-capacity
//     per-(chunk, destination-bucket) segments, in ascending source
//     order within the chunk;
//  3. crosses the exchange barrier — every local write and every bin
//     append is complete and published;
//  4. drains destination buckets: replays each bucket's segments in
//     ascending chunk order, ADDING onto the locally-computed dst
//     (no zeroing: the local pipelines wrote every element);
//  5. runs the shared epilogue/health sweep, as in Engine.runEpilogue.
//
// Determinism. Inside a shard, the sub-engine's own argument applies
// unchanged. For the exchange, the pb construction carries over: each
// (chunk, bucket) segment has exact capacity and is appended in
// ascending source order, and a bucket's drain replays segments in
// ascending chunk order — so each destination row's cross-shard
// contributions arrive in ascending sharded-source order no matter
// which workers claimed which chunks or buckets, and the add order
// onto the local value is fixed. Results are bit-for-bit independent
// of the worker count and schedule by construction. (Equality with
// the UNSHARDED engine additionally needs exact addition — sharding
// regroups each row's sum into local-then-cross — which is the same
// integer-valued regime the repository's differential suites pin; see
// DESIGN.md §15.)
//
// Phased mode (EngineOptions.Phased) runs each shard's three-dispatch
// pipeline over the full pool sequentially, then the exchange bin and
// drain as two more dispatches — the ablation shape, kept for the
// same reason Engine keeps stepPhased.

import (
	"context"
	"fmt"
	"time"

	"ihtl/internal/faultinject"
	"ihtl/internal/sched"
	"ihtl/internal/spmv"
	"ihtl/internal/unchecked"
)

// xState is the preallocated cross-shard exchange state: the pbState
// shape (see sparse.go) over the sharded-global ID space. Sized
// exactly at engine construction; a step touches it without
// allocating.
type xState struct {
	// Rows per destination bucket is 1 << shift, from the max resolved
	// HubsPerBlock across shards (the §3.4 cache budget), floored like
	// pbState's. Buckets tile the whole sharded-global range; a bucket
	// may straddle a shard boundary, which is sound because the drain
	// only ADDS to rows the local pipelines already wrote.
	shift      uint
	numBuckets int
	numChunks  int
	// xIndex/xRows alias ShardedIHTL.XIndex/XRows.
	xIndex []int64
	xRows  []uint32
	// chunkBounds are numChunks+1 edge-balanced sharded-global source
	// boundaries; a bin worker claims whole chunks.
	chunkBounds []int
	// binOff/binCur/binRows/binVals are the exact-capacity bucket-major
	// segments, exactly as in pbState (segment of chunk c, bucket b at
	// b*numChunks+c; cursors staged per chunk at claim time).
	binOff  []int64
	binCur  []int64
	binRows []uint32
	binVals []float64
}

// buildXState derives the worker-dependent exchange schedule from the
// serialisable exchange CSR. Returns nil when no cross edges exist.
func buildXState(sg *ShardedIHTL, workers int) *xState {
	if len(sg.XRows) == 0 {
		return nil
	}
	x := &xState{}
	rows := sg.HubsPerBlock
	if rows < 256 {
		rows = 256
	}
	for (1 << (x.shift + 1)) <= rows {
		x.shift++
	}
	x.numBuckets = (sg.NumV + (1 << x.shift) - 1) >> x.shift
	x.numChunks = workers * 4
	x.xIndex, x.xRows = sg.XIndex, sg.XRows
	x.chunkBounds = sched.EdgeBalancedParts(x.xIndex, x.numChunks)
	C, B := x.numChunks, x.numBuckets
	x.binOff = make([]int64, B*C+1)
	for c := 0; c < C; c++ {
		for e := x.xIndex[x.chunkBounds[c]]; e < x.xIndex[x.chunkBounds[c+1]]; e++ {
			b := int(x.xRows[e]) >> x.shift
			x.binOff[b*C+c+1]++
		}
	}
	for i := 0; i < B*C; i++ {
		x.binOff[i+1] += x.binOff[i]
	}
	x.binCur = make([]int64, B*C)
	x.binRows = make([]uint32, len(sg.XRows))
	x.binVals = make([]float64, len(sg.XRows))
	return x
}

// xClock is one worker's exchange busy time, cache-line padded like
// workerClock.
type xClock struct {
	bin   time.Duration
	drain time.Duration
	_     [6]int64
}

// ShardedEngine executes Algorithm 3 over a BuildSharded graph: every
// shard's private fused pipeline plus the deterministic cross-shard
// exchange, as one pool dispatch per step. It implements the same
// stepping surface as Engine (Step/StepEpi/StepBatch and the Ctx
// variants), in sharded-global ID space; use ShardedIHTL.NewID/OldID
// or its Permute helpers to move vectors between ID spaces.
type ShardedEngine struct {
	sg     *ShardedIHTL
	pool   *sched.Pool
	phased bool

	// engs are the per-shard sub-engines. In fused mode each is sized
	// for its shard-affine worker group (groups); in phased mode each
	// is a full-pool engine stepped sequentially.
	engs   []*Engine
	groups *sched.ShardGroups

	// x is the exchange state (nil when no cross edges); binSched and
	// drainSched hand out its chunks and buckets; xBarrier separates
	// the bin and drain phases inside the fused dispatch.
	x          *xState
	binSched   *sched.StealScheduler
	drainSched *sched.StealScheduler
	xBarrier   *sched.Barrier
	xClocks    []xClock

	// Fused-dispatch staging, mirroring Engine's.
	fusedJob       func(w int)
	batchJob       func(w int)
	curSrc, curDst []float64
	curEpi         func(w, lo, hi int)
	epiBarrier     *sched.Barrier
	phasedEpiJob   func(w int)
	phasedBinJob   func(w, c int)
	phasedDrainJob func(w, b int)

	// batchK is the staged batch width; xBinVals are the K-wide bin
	// contributions (slot p's lanes at [p*k, (p+1)*k)), allocated on a
	// width change and reused while the width is stable.
	batchK   int
	xBinVals []float64

	// Numeric-health watchdog state, as in Engine.
	health        spmv.HealthPolicy
	healthArmed   bool
	healthBad     []healthSlot
	healthErr     *spmv.NumericError
	curK          int
	healthScanJob func(w, lo, hi int)

	breakdown Breakdown
}

// NewShardedEngine prepares a sharded engine with default options.
func NewShardedEngine(sg *ShardedIHTL, pool *sched.Pool) (*ShardedEngine, error) {
	return NewShardedEngineOpts(sg, pool, EngineOptions{})
}

// NewShardedEngineOpts is NewShardedEngine with explicit options. The
// options apply per shard (AtomicFlipped, SparseKernel, BlockEncoding
// select every sub-engine's pipeline; Phased selects the sequential
// ablation); Health is handled at the sharded level so the watchdog
// scans the complete destination vector once. EngineOptions.Shards is
// ignored here — the shard count is the graph's. The sub-engines are
// built as NewEngineOpts builds one, so its precondition on the pool
// (single owner, no dispatch in flight) holds here too.
func NewShardedEngineOpts(sg *ShardedIHTL, pool *sched.Pool, opt EngineOptions) (*ShardedEngine, error) {
	if sg == nil || pool == nil {
		return nil, fmt.Errorf("core: nil ShardedIHTL or pool")
	}
	se := &ShardedEngine{sg: sg, pool: pool, phased: opt.Phased, health: opt.Health}
	w := pool.Workers()
	n := sg.NumShards()
	subOpt := opt
	subOpt.Health = spmv.HealthPolicy{}
	subOpt.Shards = 0
	se.engs = make([]*Engine, n)
	if !se.phased {
		se.groups = sched.NewShardGroups(w, n)
	}
	for s := 0; s < n; s++ {
		nw := w
		if se.groups != nil {
			nw = se.groups.Size(s)
		}
		sub, err := newEngineWorkers(sg.Shards[s], pool, subOpt, nw)
		if err != nil {
			return nil, fmt.Errorf("core: shard %d engine: %w", s, err)
		}
		se.engs[s] = sub
	}
	se.x = buildXState(sg, w)
	if se.x != nil {
		se.binSched = sched.NewStealScheduler(w)
		se.drainSched = sched.NewStealScheduler(w)
		se.xBarrier = sched.NewBarrier(w)
	}
	se.xClocks = make([]xClock, w)
	se.epiBarrier = sched.NewBarrier(w)
	se.fusedJob = se.fusedWorker
	se.batchJob = se.batchWorker
	se.phasedEpiJob = func(worker int) {
		lo, hi := sched.SplitRange(se.sg.NumV, se.pool.Workers(), worker)
		se.curEpi(worker, lo, hi)
	}
	se.phasedBinJob = func(worker, c int) {
		faultinject.Fire(faultinject.SiteShardPush)
		t0 := time.Now()
		if se.curK == 1 {
			se.xBinChunk(c, se.curSrc)
		} else {
			se.xBinChunkBatch(c, se.curSrc)
		}
		se.xClocks[worker].bin += time.Since(t0)
	}
	se.phasedDrainJob = func(worker, b int) {
		faultinject.Fire(faultinject.SiteShardExchange)
		t0 := time.Now()
		if se.curK == 1 {
			se.xDrainBucket(b, se.curDst)
		} else {
			se.xDrainBucketBatch(b, se.curDst)
		}
		se.xClocks[worker].drain += time.Since(t0)
	}
	se.healthBad = make([]healthSlot, w)
	se.healthScanJob = se.healthScan
	se.curK = 1
	se.batchK = 1
	return se, nil
}

// Workers returns the pool's worker count — the number of distinct
// worker indices a StepEpi epilogue can observe.
func (se *ShardedEngine) Workers() int { return se.pool.Workers() }

// NumVertices implements spmv.Stepper.
func (se *ShardedEngine) NumVertices() int { return se.sg.NumV }

// Sharded returns the engine's sharded iHTL graph.
func (se *ShardedEngine) Sharded() *ShardedIHTL { return se.sg }

// NumShards returns the number of shards the engine executes over.
func (se *ShardedEngine) NumShards() int { return len(se.engs) }

// TakeBreakdown returns the accumulated phase breakdown (sub-engine
// phases summed, plus the exchange's bin/drain split) and resets it.
func (se *ShardedEngine) TakeBreakdown() Breakdown {
	b := se.breakdown
	se.breakdown = Breakdown{}
	return b
}

// Step computes dst[v] = Σ_{u ∈ N⁻(v)} src[u] in sharded-global ID
// space. src and dst must have length NumV and must not alias.
//
//ihtl:noalloc
func (se *ShardedEngine) Step(src, dst []float64) { se.StepEpi(src, dst, nil) }

// StepEpi is Step plus the fused element-wise epilogue, with
// Engine.StepEpi's contract (worker indices in [0, Workers())).
//
//ihtl:noalloc
func (se *ShardedEngine) StepEpi(src, dst []float64, epi func(w, lo, hi int)) {
	if herr := se.stepEpi(src, dst, epi); herr != nil {
		se.panicHealth(herr)
	}
}

func (se *ShardedEngine) panicHealth(herr *spmv.NumericError) {
	panic(herr)
}

//ihtl:noalloc
func (se *ShardedEngine) stepEpi(src, dst []float64, epi func(w, lo, hi int)) *spmv.NumericError {
	if len(src) != se.sg.NumV || len(dst) != se.sg.NumV {
		panic("core: vector length mismatch")
	}
	se.armHealth(1)
	if se.phased {
		se.stepPhased(src, dst)
		if se.healthArmed {
			se.curDst = dst
			se.pool.ForStatic(se.sg.NumV, se.healthScanJob)
			se.curDst = nil
		}
		if epi != nil {
			start := time.Now()
			se.curEpi = epi
			se.pool.Run(se.phasedEpiJob)
			se.curEpi = nil
			se.breakdown.Wall += time.Since(start)
		}
	} else {
		se.curEpi = epi
		se.stepFused(src, dst)
		se.curEpi = nil
	}
	se.breakdown.Steps++
	return se.collectHealth()
}

// StepCtx is Step with Engine.StepCtx's cancellation, panic-isolation
// and post-failure recovery contract.
func (se *ShardedEngine) StepCtx(ctx context.Context, src, dst []float64) error {
	return se.StepEpiCtx(ctx, src, dst, nil)
}

// StepEpiCtx is StepEpi with the StepCtx contract.
func (se *ShardedEngine) StepEpiCtx(ctx context.Context, src, dst []float64, epi func(w, lo, hi int)) error {
	end, err := se.pool.Fallible(ctx)
	if err != nil {
		return err
	}
	herr := se.stepEpi(src, dst, epi)
	if err := end(); err != nil {
		se.recoverState()
		return err
	}
	if herr != nil {
		return herr
	}
	return nil
}

// recoverState restores the sharded engine's reusable cross-step state
// after an aborted step: every sub-engine's buffers and barriers, plus
// the exchange barrier and the epilogue barrier. The exchange bin
// cursors need no recovery — every chunk re-stages its cursors at
// claim time, like the pb kernel's.
func (se *ShardedEngine) recoverState() {
	for _, sub := range se.engs {
		sub.recoverState()
	}
	if se.xBarrier != nil {
		se.xBarrier.Reset()
	}
	se.epiBarrier.Reset()
	for w := range se.xClocks {
		se.xClocks[w] = xClock{}
	}
	se.curSrc, se.curDst, se.curEpi = nil, nil, nil
	se.healthArmed = false
}

//ihtl:noalloc
func (se *ShardedEngine) armHealth(k int) {
	se.curK = k
	se.healthErr = nil
	if se.health.Mode == spmv.HealthOff {
		se.healthArmed = false
		return
	}
	se.healthArmed = se.health.Every <= 1 || se.breakdown.Steps%se.health.Every == 0
	if se.healthArmed {
		for i := range se.healthBad {
			se.healthBad[i].count = 0
			se.healthBad[i].first = 0
		}
	}
}

// healthScan is Engine.healthScan over the sharded-global destination
// vector (same poison site, so fault plans address sharded steps the
// same way).
//
//ihtl:noalloc
func (se *ShardedEngine) healthScan(w, lo, hi int) {
	k := se.curK
	dst := se.curDst
	flo, fhi := lo*k, hi*k
	if fhi > flo {
		dst[flo] = faultinject.Poison(faultinject.SiteStepHealth, dst[flo])
	}
	clamp := se.health.Mode == spmv.HealthClamp
	slot := &se.healthBad[w]
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

func (se *ShardedEngine) collectHealth() *spmv.NumericError {
	if !se.healthArmed {
		return nil
	}
	var count int64
	first := -1
	for w := range se.healthBad {
		s := &se.healthBad[w]
		if s.count == 0 {
			continue
		}
		count += s.count
		if first < 0 || int(s.first) < first {
			first = int(s.first)
		}
	}
	if count == 0 || se.health.Mode == spmv.HealthClamp {
		return nil
	}
	se.healthErr = &spmv.NumericError{Count: count, First: first, Rollback: se.health.Mode == spmv.HealthRollback}
	return se.healthErr
}

// stageShards stages every shard's fused state over its subvector of
// the global vectors and re-arms the exchange schedulers.
//
//ihtl:noalloc
func (se *ShardedEngine) stageShards(src, dst []float64) {
	for s, sub := range se.engs {
		lo, hi := se.sg.Bounds[s], se.sg.Bounds[s+1]
		sub.stageFused(src[lo:hi], dst[lo:hi])
	}
	if se.x != nil {
		se.binSched.Reset(se.x.numChunks)
		se.drainSched.Reset(se.x.numBuckets)
	}
	se.curSrc, se.curDst = src, dst
}

// stepFused runs local pipelines + exchange + epilogue as ONE pool
// dispatch; see fusedWorker.
//
//ihtl:noalloc
func (se *ShardedEngine) stepFused(src, dst []float64) {
	start := time.Now()
	se.stageShards(src, dst)
	se.pool.Run(se.fusedJob)
	se.curSrc, se.curDst = nil, nil
	for _, sub := range se.engs {
		sub.unstageFused()
	}
	se.harvest()
	se.breakdown.Wall += time.Since(start)
}

// fusedWorker is one worker's share of a fused sharded step: the
// worker's shard-group pipelines, then the exchange bin, the exchange
// barrier, the exchange drain, and the shared epilogue. See the file
// comment for the phase-ordering argument.
//
//ihtl:noalloc
func (se *ShardedEngine) fusedWorker(w int) {
	sLo, sHi := se.groups.Shards(w)
	for s := sLo; s < sHi; s++ {
		se.engs[s].fusedJob(se.groups.Local(w, s))
	}
	if se.x == nil {
		se.runEpilogue(w)
		return
	}
	src, dst := se.curSrc, se.curDst
	clk := &se.xClocks[w]
	t0 := time.Now()
	se.binWorker(w, src)
	t1 := time.Now()
	clk.bin += t1.Sub(t0)
	// The drain may read any chunk's cursors and segments, and it adds
	// onto dst elements the local pipelines wrote — so every worker
	// must finish its local pipeline AND its binning first. Local work
	// never crosses groups (per-shard schedulers), so all of a shard's
	// writes precede its group's arrival here; the barrier's atomic
	// RMW total order publishes them to the draining workers.
	if !se.xBarrier.WaitAbort(se.pool) {
		return
	}
	t2 := time.Now()
	se.drainWorker(w, dst)
	clk.drain += time.Since(t2)
	se.runEpilogue(w)
}

// runEpilogue mirrors Engine.runEpilogue with the pool-wide barrier:
// the epilogue and health scan may read any dst element, complete only
// once every shard's pipeline and the exchange drain finish.
//
//ihtl:noalloc
func (se *ShardedEngine) runEpilogue(w int) {
	if se.curEpi == nil && !se.healthArmed {
		return
	}
	if !se.epiBarrier.WaitAbort(se.pool) {
		return
	}
	lo, hi := sched.SplitRange(se.sg.NumV, len(se.xClocks), w)
	if se.healthArmed {
		se.healthScan(w, lo, hi)
	}
	if se.curEpi != nil {
		se.curEpi(w, lo, hi)
	}
}

// binWorker claims exchange source chunks by range stealing.
//
//ihtl:noalloc
func (se *ShardedEngine) binWorker(w int, src []float64) {
	for !se.pool.Aborted() {
		lo, hi, ok := se.binSched.Next(w, 1)
		if !ok {
			return
		}
		faultinject.Fire(faultinject.SiteShardPush)
		for c := lo; c < hi; c++ {
			se.xBinChunk(c, src)
		}
	}
}

// xBinChunk is pbBinChunk over the exchange CSR: stage the chunk's
// bucket cursors, then sweep its sharded-global sources in ascending
// order appending (row, x) pairs. Skipping +0.0 sources is
// bit-transparent by the sparse.go argument — a skipped contribution
// adds +0.0 to a dst element that is never -0.0 (local sums are
// seeded with +0.0).
//
//ihtl:noalloc
//ihtl:nobce
//ihtl:noescape
func (se *ShardedEngine) xBinChunk(c int, src []float64) {
	x := se.x
	C := x.numChunks
	binCur, binOff := x.binCur, x.binOff
	for b := 0; b < x.numBuckets; b++ {
		unchecked.SetAt(binCur, b*C+c, unchecked.At(binOff, b*C+c))
	}
	shift := x.shift
	xIndex, xRows := x.xIndex, x.xRows
	binRows, binVals := x.binRows, x.binVals
	sLo, sHi := unchecked.At(x.chunkBounds, c), unchecked.At(x.chunkBounds, c+1)
	for s := sLo; s < sHi; s++ {
		v := unchecked.At(src, s)
		if spmv.SkipZero(v) {
			continue
		}
		end := unchecked.At(xIndex, s+1)
		for i := unchecked.At(xIndex, s); i < end; i++ {
			row := unchecked.At(xRows, int(i))
			seg := int(row>>shift)*C + c
			p := unchecked.At(binCur, seg)
			unchecked.SetAt(binRows, int(p), row)
			unchecked.SetAt(binVals, int(p), v)
			unchecked.SetAt(binCur, seg, p+1)
		}
	}
}

// drainWorker claims whole destination buckets.
//
//ihtl:noalloc
func (se *ShardedEngine) drainWorker(w int, dst []float64) {
	for !se.pool.Aborted() {
		lo, hi, ok := se.drainSched.Next(w, 1)
		if !ok {
			return
		}
		faultinject.Fire(faultinject.SiteShardExchange)
		for b := lo; b < hi; b++ {
			se.xDrainBucket(b, dst)
		}
	}
}

// xDrainBucket replays bucket b's segments in ascending chunk order,
// ADDING onto dst — unlike pbDrainBucket there is no zeroing, because
// every dst element was already written by its shard's local pipeline
// (merges cover the hub range, the sparse kernels write every non-hub
// row unconditionally). The bucket's rows fit the §3.4 cache budget,
// and no other worker touches them during the drain.
//
//ihtl:noalloc
//ihtl:nobce
//ihtl:noescape
func (se *ShardedEngine) xDrainBucket(b int, dst []float64) {
	x := se.x
	C := x.numChunks
	binOff, binCur := x.binOff, x.binCur
	binRows, binVals := x.binRows, x.binVals
	for c := 0; c < C; c++ {
		seg := b*C + c
		end := unchecked.At(binCur, seg)
		for p := unchecked.At(binOff, seg); p < end; p++ {
			unchecked.AddAt(dst, int(unchecked.At(binRows, int(p))), unchecked.At(binVals, int(p)))
		}
	}
}

// harvest folds the sub-engines' per-worker phase clocks (already
// gathered into their breakdowns by unstageFused or stepPhased) and
// the exchange clocks into the sharded breakdown. Sub-engine Wall and
// Steps are dropped — the sharded engine records its own.
func (se *ShardedEngine) harvest() {
	for _, sub := range se.engs {
		b := sub.TakeBreakdown()
		se.breakdown.Flipped += b.Flipped
		se.breakdown.Merge += b.Merge
		se.breakdown.Sparse += b.Sparse
		se.breakdown.FlippedBusy += b.FlippedBusy
		se.breakdown.MergeBusy += b.MergeBusy
		se.breakdown.SparseBusy += b.SparseBusy
		se.breakdown.BinBusy += b.BinBusy
		se.breakdown.DrainBusy += b.DrainBusy
	}
	for w := range se.xClocks {
		c := &se.xClocks[w]
		se.breakdown.ExchangeBinBusy += c.bin
		se.breakdown.ExchangeDrainBusy += c.drain
		*c = xClock{}
	}
}

// stepPhased is the sequential ablation: every shard's phased pipeline
// over the full pool, then the exchange bin and drain as two more
// dispatches (the dispatch boundary is the bin/drain barrier).
func (se *ShardedEngine) stepPhased(src, dst []float64) {
	start := time.Now()
	for s, sub := range se.engs {
		lo, hi := se.sg.Bounds[s], se.sg.Bounds[s+1]
		sub.stepPhased(src[lo:hi], dst[lo:hi])
	}
	if se.x != nil {
		se.curSrc, se.curDst = src, dst
		se.pool.ForEachPart(se.x.numChunks, se.phasedBinJob)
		se.pool.ForEachPart(se.x.numBuckets, se.phasedDrainJob)
		se.curSrc, se.curDst = nil, nil
	}
	se.harvest()
	se.breakdown.Wall += time.Since(start)
}
