// Package spmv implements the baseline graph-traversal kernels the
// paper compares iHTL against: pull (Algorithm 1), push with atomic
// updates, push with per-thread buffering (Algorithm 2 + the buffering
// of X-Stream [29]), and destination-partitioned push (the
// GraphGrind-style partitioning [35]). All kernels compute the same
// SpMV:
//
//	dst[v] = Σ_{u ∈ N⁻(v)} src[u]
//
// over float64 vertex data (8 bytes, the paper's PageRank data size).
// Applications (PageRank, HITS, …) layer their per-iteration scaling
// on top of Step via the analytics package.
package spmv

import (
	"context"
	"fmt"

	"ihtl/internal/faultinject"
	"ihtl/internal/graph"
	"ihtl/internal/sched"
)

// Direction selects a traversal kernel.
type Direction int

const (
	// Pull traverses in-edges by unique destination: random reads,
	// sequential unsynchronised writes (Algorithm 1).
	Pull Direction = iota
	// PushAtomic traverses out-edges by source: sequential reads,
	// random atomic writes (Algorithm 2 with atomics).
	PushAtomic
	// PushBuffered traverses out-edges by source, accumulating into
	// full-size per-thread buffers that are merged afterwards
	// (Algorithm 2 with X-Stream buffering).
	PushBuffered
	// PushPartitioned traverses pre-built destination partitions so
	// concurrent threads never write the same vertex (Algorithm 2
	// with GraphGrind edge partitioning by destination).
	PushPartitioned
)

func (d Direction) String() string {
	switch d {
	case Pull:
		return "pull"
	case PushAtomic:
		return "push-atomic"
	case PushBuffered:
		return "push-buffered"
	case PushPartitioned:
		return "push-partitioned"
	default:
		return fmt.Sprintf("Direction(%d)", int(d))
	}
}

// Stepper is the one stepping interface of every SpMV engine in this
// repository — the baselines here and the iHTL engines in internal/core
// — and all the analytics drivers need: one step computes
//
//	dst[v*k+j] = Σ_{u ∈ N⁻(v)} src[u*k+j]
//
// for every vertex v and lane j < k (k interleaved SpMVs through one
// traversal; k == 1 is the scalar SpMV), then runs an element-wise
// epilogue over the engine's slot grid. An analytic's iteration is one
// StepCtx (Algorithm 3 is a Step plus an element-wise update); where
// and how the engine places the epilogue is the engine's.
type Stepper interface {
	NumVertices() int
	// EpiSlots returns the number of slots of the engine's epilogue
	// grid — an epilogue's first argument ranges over [0, slots), one
	// call per slot, each over an ascending row range, the ranges
	// partitioning [0, NumVertices()) in slot order — and whether the
	// engine streams an epilogue whose caller permits it (see
	// Epilogue.Stream).
	EpiSlots() (slots int, streamed bool)
	// Step is StepCtx at k == 1 with no epilogue and no context, for
	// callers with no error to handle: a failure panics.
	Step(src, dst []float64)
	// StepCtx runs one step of width k — src and dst of length
	// NumVertices()*k, vertex-major interleaved (lane j of vertex v at
	// v*k+j), not aliasing — then epi over every slot, and returns its
	// verdict: ctx.Err() once ctx is cancelled (observed at task claims,
	// so promptly), a worker panic as a *sched.PanicError instead of a
	// crash, a *NumericError when an armed health watchdog fails the
	// step, else nil. A failed step may leave dst partly written and
	// the epilogue run on some slots only; the engine's own state is
	// restored, so the next clean step of any width equals one on a
	// fresh engine. ctx may be nil.
	StepCtx(ctx context.Context, src, dst []float64, k int, epi Epilogue) error
}

// Epilogue is the element-wise tail of a step. Run(slot, lo, hi) is
// called once per slot of the engine's grid (see Stepper.EpiSlots) over
// the slot's VERTICES [lo, hi) — lane j of vertex v at v*k+j — on
// whichever worker; partials kept at slot do not depend on the
// schedule. The zero value is no epilogue.
//
// By default the epilogue runs once all of dst is complete (behind a
// barrier, or as a dispatch after the step), so Run may read any
// element of dst and write src. Stream is the caller's promise that Run
// reads dst only inside its own [lo, hi) rows and writes no src: an
// engine whose EpiSlots reports streaming may then run each slot as
// soon as its rows are final, while other slots are still being
// computed from src.
type Epilogue struct {
	Run    func(slot, lo, hi int)
	Stream bool
}

// Engine runs SpMV iterations in a fixed direction over a fixed graph
// using a shared worker pool. Construction pre-allocates all
// per-thread state so Step itself does no allocation.
type Engine struct {
	g    *graph.Graph
	pool *sched.Pool
	dir  Direction

	// pullBounds are edge-balanced destination ranges for pull.
	pullBounds []int
	// pushBounds are edge-balanced source ranges for push variants.
	pushBounds []int
	// threadBufs are the per-worker accumulation buffers of
	// PushBuffered (each NumV long).
	threadBufs [][]float64
	// threadBufsK are the K-wide counterparts used by StepBatch
	// (each NumV*batchK long), grown on first use of a width.
	threadBufsK [][]float64
	batchK      int
	// parts is the destination-partitioned CSR of PushPartitioned.
	parts *PushPartitions
	// partSched is the persistent range-stealing scheduler that claims
	// partitions each Step: workers start on contiguous partition
	// ranges (good spatial locality on the CSR offsets) and steal from
	// the most loaded peer, instead of serialising every claim through
	// one shared fetch-add counter.
	partSched *sched.StealScheduler

	// curSrc/curDst/curK stage one dispatch's operands for the prebuilt
	// jobs below. Binding the worker bodies once at construction (method
	// values allocate) and passing vectors through fields keeps Step and
	// StepBatch allocation-free per call — the same discipline as the
	// fused core.Engine, enforced by the noalloc pass.
	curSrc, curDst []float64
	curK           int
	curEpi         func(slot, lo, hi int)

	zeroJob       func(w, lo, hi int)
	clearBufsJob  func(w int)
	clearBufsKJob func(w int)
	epiJob        func(w int)

	pullJob, atomicJob, bufferedJob, mergeJob, partJob func(w, lo, hi int)

	pullBatchJob, atomicBatchJob, bufferedBatchJob, mergeBatchJob, partBatchJob func(w, lo, hi int)
}

// Options configures NewEngine.
type Options struct {
	// Parts is the number of destination partitions for
	// PushPartitioned; <= 0 selects 4x the worker count.
	Parts int
}

// NewEngine prepares an engine. The pool is borrowed, not owned: the
// caller closes it.
func NewEngine(g *graph.Graph, pool *sched.Pool, dir Direction, opt Options) (*Engine, error) {
	if g == nil || pool == nil {
		return nil, fmt.Errorf("spmv: nil graph or pool")
	}
	e := &Engine{g: g, pool: pool, dir: dir}
	nparts := pool.Workers() * 4
	switch dir {
	case Pull:
		e.pullBounds = sched.EdgeBalancedParts(g.InIndex, nparts)
	case PushAtomic:
		e.pushBounds = sched.EdgeBalancedParts(g.OutIndex, nparts)
	case PushBuffered:
		e.pushBounds = sched.EdgeBalancedParts(g.OutIndex, nparts)
		e.threadBufs = make([][]float64, pool.Workers())
		for w := range e.threadBufs {
			e.threadBufs[w] = make([]float64, g.NumV)
		}
	case PushPartitioned:
		p := opt.Parts
		if p <= 0 {
			p = nparts
		}
		e.parts = BuildPushPartitions(g, p)
	default:
		return nil, fmt.Errorf("spmv: unknown direction %d", dir)
	}
	e.partSched = sched.NewStealScheduler(pool.Workers())
	// Bind every dispatch body once; method-value creation allocates,
	// so it must not happen inside Step/StepBatch.
	e.zeroJob = e.zeroWorker
	e.clearBufsJob = e.clearBufsWorker
	e.clearBufsKJob = e.clearBufsKWorker
	e.epiJob = e.epiWorker
	e.pullJob = e.pullWorker
	e.atomicJob = e.atomicWorker
	e.bufferedJob = e.bufferedWorker
	e.mergeJob = e.mergeWorker
	e.partJob = e.partWorker
	e.pullBatchJob = e.pullBatchWorker
	e.atomicBatchJob = e.atomicBatchWorker
	e.bufferedBatchJob = e.bufferedBatchWorker
	e.mergeBatchJob = e.mergeBatchWorker
	e.partBatchJob = e.partBatchWorker
	return e, nil
}

// forParts dispatches a prebuilt partition-ranged job over [0, nparts)
// using the engine's persistent steal scheduler.
//
//ihtl:noalloc
func (e *Engine) forParts(nparts int, job func(w, lo, hi int)) {
	e.pool.ForStealWith(e.partSched, nparts, 1, job)
}

// NumVertices implements Stepper.
func (e *Engine) NumVertices() int { return e.g.NumV }

// Step implements Stepper. src and dst must have length NumV and must
// not alias.
//
//ihtl:noalloc
func (e *Engine) Step(src, dst []float64) {
	if len(src) != e.g.NumV || len(dst) != e.g.NumV {
		panic("spmv: vector length mismatch")
	}
	e.curSrc, e.curDst = src, dst
	switch e.dir {
	case Pull:
		e.forParts(len(e.pullBounds)-1, e.pullJob)
	case PushAtomic:
		e.zeroDst()
		e.forParts(len(e.pushBounds)-1, e.atomicJob)
	case PushBuffered:
		e.pool.Run(e.clearBufsJob)
		e.forParts(len(e.pushBounds)-1, e.bufferedJob)
		e.pool.ForStatic(e.g.NumV, e.mergeJob)
	case PushPartitioned:
		e.zeroDst()
		e.forParts(e.parts.NumParts(), e.partJob)
	}
	e.curSrc, e.curDst = nil, nil
}

// pullWorker is Algorithm 1: destinations are processed in parallel
// over edge-balanced partitions; writes need no synchronisation
// because each destination is owned by exactly one partition.
//
//ihtl:noalloc
func (e *Engine) pullWorker(w, lo, hi int) {
	g, src, dst := e.g, e.curSrc, e.curDst
	nbrs := g.InNbrs
	faultinject.Fire(faultinject.SitePullPart)
	for part := lo; part < hi; part++ {
		vlo, vhi := e.pullBounds[part], e.pullBounds[part+1]
		for v := vlo; v < vhi; v++ {
			sum := 0.0
			for i := g.InIndex[v]; i < g.InIndex[v+1]; i++ {
				sum += src[nbrs[i]]
			}
			dst[v] = sum
		}
	}
}

// zeroDst clears the staged destination vector in parallel.
//
//ihtl:noalloc
func (e *Engine) zeroDst() {
	e.pool.ForStatic(len(e.curDst), e.zeroJob)
}

//ihtl:noalloc
func (e *Engine) zeroWorker(w, lo, hi int) {
	clear(e.curDst[lo:hi])
}

// EpiSlots implements Stepper: the workers' static shares of the
// vertex range, one slot per worker, never streamed.
func (e *Engine) EpiSlots() (slots int, streamed bool) { return e.pool.Workers(), false }

// StepCtx implements Stepper: StepBatch, then one dispatch running
// epi.Run on every slot p over sched.SplitRange(NumV, workers, p), both
// inside one Fallible region — cancellation observed at every partition
// claim, worker panics returned as *sched.PanicError. The per-call
// buffer clears at the top of every step mean no internal engine state
// needs recovery after a failed one.
func (e *Engine) StepCtx(ctx context.Context, src, dst []float64, k int, epi Epilogue) error {
	end, err := e.pool.Fallible(ctx)
	if err != nil {
		return err
	}
	e.StepBatch(src, dst, k)
	if epi.Run != nil {
		e.curEpi = epi.Run
		e.pool.Run(e.epiJob)
		e.curEpi = nil
	}
	return end()
}

// epiWorker runs the staged epilogue on worker w's slot.
//
//ihtl:noalloc
func (e *Engine) epiWorker(w int) {
	lo, hi := sched.SplitRange(e.g.NumV, e.pool.Workers(), w)
	e.curEpi(w, lo, hi)
}
