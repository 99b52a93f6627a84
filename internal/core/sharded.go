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
//  5. runs the shared epilogue/health sweep (stepShell.runEpilogue).
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
//
// Every step is K lanes wide (vertex-major interleaved, Step is k == 1):
// each shard's sub-engine is set to the width, and the exchange reuses
// its offsets, cursors and row array at every width — only the binned
// contributions are K-wide (xBinVals, slot p's lanes at [p*k, (p+1)*k)),
// exactly the split pbState.binVals makes.

import (
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
	// binOff/binCur/binRows are the exact-capacity bucket-major
	// segments, exactly as in pbState (segment of chunk c, bucket b at
	// b*numChunks+c; cursors staged per chunk at claim time); the binned
	// contributions are ShardedEngine.xBinVals.
	binOff  []int64
	binCur  []int64
	binRows []uint32
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
// exchange, as one pool dispatch per step. It embeds the same step
// shell as Engine (Step, StepBatch and StepCtx; StepBatchActiveCtx
// answers honoured == false), in sharded-global ID
// space; use ShardedIHTL.NewID/OldID or its Permute helpers to move
// vectors between ID spaces.
type ShardedEngine struct {
	stepShell
	sg *ShardedIHTL

	// engs are the per-shard sub-engines. In fused mode each is sized
	// for its shard-affine worker group (groups); in phased mode each
	// is a full-pool engine stepped sequentially.
	engs   []*Engine
	groups *sched.ShardGroups

	// x is the exchange state (nil when no cross edges); binSched and
	// drainSched hand out its chunks and buckets; xBarrier separates
	// the bin and drain phases inside the fused dispatch. xBinVals are
	// the binned contributions at the staged width (curK), grown to the
	// widest width stepped.
	x          *xState
	binSched   *sched.StealScheduler
	drainSched *sched.StealScheduler
	xBarrier   *sched.Barrier
	xClocks    []xClock
	xBinVals   []float64

	// Prebuilt dispatch bodies, so a step allocates nothing.
	fusedJob       func(w int)
	phasedBinJob   func(w, c int)
	phasedDrainJob func(w, b int)
}

// NewShardedEngine prepares a sharded engine with default options.
func NewShardedEngine(sg *ShardedIHTL, pool *sched.Pool) (*ShardedEngine, error) {
	return NewShardedEngineOpts(sg, pool, EngineOptions{})
}

// NewShardedEngineOpts is NewShardedEngine with explicit options. The
// options apply per shard (SparseKernel and BlockEncoding select every
// sub-engine's pipeline; Phased selects the sequential
// ablation); Health is handled at the sharded level so the watchdog
// scans the complete destination vector once. EngineOptions.Shards is
// ignored here — the shard count is the graph's. The sub-engines are
// built as NewEngineOpts builds one, so its precondition on the pool
// (single owner, no dispatch in flight) holds here too.
func NewShardedEngineOpts(sg *ShardedIHTL, pool *sched.Pool, opt EngineOptions) (*ShardedEngine, error) {
	if sg == nil || pool == nil {
		return nil, fmt.Errorf("core: nil ShardedIHTL or pool")
	}
	se := &ShardedEngine{sg: sg}
	w := pool.Workers()
	se.initShell(se, pool, sg.NumV, w, opt)
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
	se.fusedJob = se.fusedWorker
	se.phasedBinJob = func(worker, c int) {
		faultinject.Fire(faultinject.SiteShardPush)
		t0 := time.Now()
		se.xBinChunkBatch(c, se.curSrc)
		se.xClocks[worker].bin += time.Since(t0)
	}
	se.phasedDrainJob = func(worker, b int) {
		faultinject.Fire(faultinject.SiteShardExchange)
		t0 := time.Now()
		se.xDrainBucketBatch(b, se.curDst)
		se.xClocks[worker].drain += time.Since(t0)
	}
	se.setWidth(1)
	return se, nil
}

// Sharded returns the engine's sharded iHTL graph.
func (se *ShardedEngine) Sharded() *ShardedIHTL { return se.sg }

// NumShards returns the number of shards the engine executes over.
func (se *ShardedEngine) NumShards() int { return len(se.engs) }

// setWidth readies every shard's batch state and the exchange values
// for width k, allocating only for a width wider than any before it
// (see Engine.setWidth).
func (se *ShardedEngine) setWidth(k int) {
	for _, sub := range se.engs {
		sub.setWidth(k)
	}
	if se.x != nil {
		se.xBinVals = resized(se.xBinVals, len(se.x.binRows)*k)
	}
}

// setActive refuses: the shards have no active-row exchange.
func (se *ShardedEngine) setActive(_, _ spmv.RowSet) bool { return false }

// recoverDriver restores every sub-engine's buffers and barriers and
// the exchange barrier after an aborted step. The exchange bin cursors
// need no recovery — every chunk re-stages its cursors at claim time,
// like the pb kernel's.
func (se *ShardedEngine) recoverDriver() {
	for _, sub := range se.engs {
		sub.recoverState()
	}
	if se.xBarrier != nil {
		se.xBarrier.Reset()
	}
	for w := range se.xClocks {
		se.xClocks[w] = xClock{}
	}
}

// stageShards stages every shard's fused state over its subvector of
// the global vectors and re-arms the exchange schedulers.
//
//ihtl:noalloc
func (se *ShardedEngine) stageShards(src, dst []float64) {
	k := se.curK
	for s, sub := range se.engs {
		lo, hi := se.sg.Bounds[s]*k, se.sg.Bounds[s+1]*k
		sub.stage(src[lo:hi], dst[lo:hi])
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
		sub.unstage()
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
			se.xBinChunkBatch(c, src)
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
	binRows, binVals := x.binRows, se.xBinVals
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
			se.xDrainBucketBatch(b, dst)
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
	binRows, binVals := x.binRows, se.xBinVals
	for c := 0; c < C; c++ {
		seg := b*C + c
		end := unchecked.At(binCur, seg)
		for p := unchecked.At(binOff, seg); p < end; p++ {
			unchecked.AddAt(dst, int(unchecked.At(binRows, int(p))), unchecked.At(binVals, int(p)))
		}
	}
}

// harvest folds the sub-engines' per-worker phase clocks (already
// gathered into their breakdowns by unstage or stepPhased) and
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
	k := se.curK
	for s, sub := range se.engs {
		lo, hi := se.sg.Bounds[s]*k, se.sg.Bounds[s+1]*k
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
