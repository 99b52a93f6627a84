package analytics

import (
	"context"
	"errors"
	"fmt"
	"math"

	"ihtl/internal/sched"
	"ihtl/internal/spmv"
)

// PPRResult carries the converged lanes of one batched personalized
// PageRank run.
type PPRResult struct {
	// Ranks is vertex-major interleaved: lane j of vertex v at
	// Ranks[v*K+j], in the Stepper's vertex-ID space.
	Ranks []float64
	// K is the batch width (the number of sources).
	K int
	// Iters is the absolute iteration index reached; every iteration
	// advances all K lanes in a single batched Step.
	Iters int
	// Deltas is the final per-lane L1 change.
	Deltas []float64
	// Rollbacks counts checkpoint restores triggered by numeric-
	// health errors (spmv.HealthRollback engines only).
	Rollbacks int
}

// Lane copies lane j of the interleaved ranks into a dense vector.
func (r PPRResult) Lane(j int, out []float64) []float64 {
	n := len(r.Ranks) / r.K
	if out == nil {
		out = make([]float64, n)
	}
	for v := 0; v < n; v++ {
		out[v] = r.Ranks[v*r.K+j]
	}
	return out
}

// batchFusedStepper is the optional BatchStepper extension core.Engine
// provides: StepBatch plus a fused epilogue over vertex ranges.
type batchFusedStepper interface {
	spmv.BatchStepper
	StepBatchEpi(src, dst []float64, k int, epi func(w, lo, hi int))
	Workers() int
}

// batchCtxFusedStepper extends batchFusedStepper with the cancellable,
// error-returning variant (core.Engine's StepBatchEpiCtx).
type batchCtxFusedStepper interface {
	batchFusedStepper
	StepBatchEpiCtx(ctx context.Context, src, dst []float64, k int, epi func(w, lo, hi int)) error
}

// RunPersonalizedPageRank iterates K personalized PageRanks — one per
// source — through batched SpMV steps:
//
//	PPRⱼ(v) = (1-d)·1[v = sⱼ] + d·Σ_{u∈N⁻(v)} PPRⱼ(u)/deg⁺(u)
//
// All K lanes share every edge load: one StepBatch per iteration
// advances every source, and on a fused batched stepper (core.Engine)
// the damping/delta/contribution sweep runs inside the same dispatch,
// so a whole K-source iteration is one pool round-trip. Iteration
// stops when every lane's L1 delta falls below opt.Tol (or at
// opt.MaxIters). With opt.RedistributeDangling, each lane's dangling
// mass teleports back to its own source, the standard PPR treatment.
//
// sources are vertex IDs in the Stepper's ID space; len(sources) is
// the batch width K. outDeg must give the out-degree of every vertex.
// pool parallelises the element-wise phases on non-fused steppers; it
// may be nil for sequential execution.
func RunPersonalizedPageRank(e spmv.BatchStepper, outDeg []int, pool *sched.Pool, sources []int, opt PageRankOptions) (PPRResult, error) {
	return RunPersonalizedPageRankCtx(nil, e, outDeg, pool, sources, opt)
}

// PPRWorkspace holds the four n×K arrays (and the n inverse degrees)
// of a personalized-PageRank run. Allocated per run they are first
// touched per run — 0.4 GB, 0.5–0.9 s of page faults beside 0.6 s of
// compute at n = 1.5 M, K = 8, and only on the runs whose memory the
// runtime had handed back, so run times spread 2× (DESIGN.md §8) — so
// a caller that runs batch after batch keeps one workspace and calls
// Run on it. The zero value is ready; it grows to the largest run and
// must not be shared by concurrent Runs.
type PPRWorkspace struct {
	invDeg, ranks, contrib, sums, baseVec []float64
}

// zeroed returns s cut to n zeroed elements, reallocated when s has no
// room for them.
func zeroed(s []float64, n int) []float64 {
	if n > cap(s) {
		return make([]float64, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// RunPersonalizedPageRankCtx is RunPersonalizedPageRank with the
// RunPageRankCtx failure contract: ctx cancellation stops the run at
// the next iteration boundary (mid-Step on ctx-aware engines), Step
// failures return *sched.PanicError / *spmv.NumericError instead of
// panicking, and under spmv.HealthRollback with CheckpointEvery set a
// numeric error restores the latest checkpoint (Algo "ppr", K lanes)
// and retries before surfacing. ctx may be nil.
func RunPersonalizedPageRankCtx(ctx context.Context, e spmv.BatchStepper, outDeg []int, pool *sched.Pool, sources []int, opt PageRankOptions) (PPRResult, error) {
	return new(PPRWorkspace).Run(ctx, e, outDeg, pool, sources, opt)
}

// Run is RunPersonalizedPageRankCtx on the workspace's arrays: the
// result's Ranks are the workspace's and hold until its next Run.
func (ws *PPRWorkspace) Run(ctx context.Context, e spmv.BatchStepper, outDeg []int, pool *sched.Pool, sources []int, opt PageRankOptions) (PPRResult, error) {
	n := e.NumVertices()
	k := len(sources)
	if k == 0 {
		return PPRResult{}, fmt.Errorf("analytics: no sources")
	}
	if len(outDeg) != n {
		return PPRResult{}, fmt.Errorf("analytics: outDeg length %d != %d vertices", len(outDeg), n)
	}
	for j, s := range sources {
		if s < 0 || s >= n {
			return PPRResult{}, fmt.Errorf("analytics: source %d (lane %d) out of [0,%d)", s, j, n)
		}
	}
	o := opt.withDefaults()
	if o.Resume != nil {
		if err := o.Resume.validate(); err != nil {
			return PPRResult{}, err
		}
		if o.Resume.Algo != "ppr" || o.Resume.N != n || o.Resume.K != k {
			return PPRResult{}, fmt.Errorf("analytics: resume checkpoint %q n=%d k=%d does not match ppr n=%d k=%d",
				o.Resume.Algo, o.Resume.N, o.Resume.K, n, k)
		}
	}

	ws.invDeg = zeroed(ws.invDeg, n)
	ws.ranks, ws.contrib, ws.sums = zeroed(ws.ranks, n*k), zeroed(ws.contrib, n*k), zeroed(ws.sums, n*k)
	// baseVec is the sparse teleport term: zero everywhere except
	// baseVec[sⱼ*k+j], rewritten by the orchestrator each iteration
	// when dangling mass is redistributed (it returns to the source).
	ws.baseVec = zeroed(ws.baseVec, n*k)
	invDeg, ranks, contrib, sums, baseVec := ws.invDeg, ws.ranks, ws.contrib, ws.sums, ws.baseVec
	for v, d := range outDeg {
		if d > 0 {
			invDeg[v] = 1 / float64(d)
		}
	}
	dangling := make([]float64, k)
	iter := 0
	if o.Resume != nil {
		copy(ranks, o.Resume.Ranks)
		copy(dangling, o.Resume.Aux)
		restoreContrib(ranks, contrib, invDeg, n, k)
		iter = o.Resume.Iter
	} else {
		for j, s := range sources {
			idx := s*k + j
			ranks[idx] = 1
			contrib[idx] = invDeg[s]
			if o.RedistributeDangling && outDeg[s] == 0 {
				dangling[j] = 1
			}
		}
	}

	// The per-iteration element-wise sweep, run as the batched Step's
	// epilogue over vertex ranges: damping plus the sparse teleport
	// term, per-lane L1 delta, next contributions, next dangling mass.
	body := func(lo, hi int) (delta, dangl []float64) {
		delta = make([]float64, k)
		dangl = make([]float64, k)
		bodyInto(lo, hi, k, o, ranks, sums, baseVec, contrib, invDeg, outDeg, delta, dangl)
		return delta, dangl
	}

	cfe, ctxFused := e.(batchCtxFusedStepper)
	fe, fused := e.(batchFusedStepper)
	ce, ctxPlain := e.(spmv.BatchCtxStepper)
	workers := 0
	switch {
	case fused:
		workers = fe.Workers()
	case pool != nil:
		workers = pool.Workers()
	}
	var deltaParts, danglingParts []float64
	var epi func(w, lo, hi int)
	var poolEpi func(w int)
	if workers > 0 {
		deltaParts = make([]float64, workers*k)
		danglingParts = make([]float64, workers*k)
		epi = func(w, lo, hi int) {
			dp := deltaParts[w*k : w*k+k]
			gp := danglingParts[w*k : w*k+k]
			clear(dp)
			clear(gp)
			bodyInto(lo, hi, k, o, ranks, sums, baseVec, contrib, invDeg, outDeg, dp, gp)
		}
		if !fused {
			poolEpi = func(w int) {
				lo, hi := sched.SplitRange(n, workers, w)
				epi(w, lo, hi)
			}
		}
	}

	var snap, last *Checkpoint
	retries := 0
	takeSnapshot := func(iterDone int) {
		if snap == nil {
			snap = &Checkpoint{Algo: "ppr", N: n, K: k,
				Ranks: make([]float64, n*k), Aux: make([]float64, k)}
		}
		snap.Iter = iterDone
		copy(snap.Ranks, ranks)
		copy(snap.Aux, dangling)
		last = snap
		retries = 0
		if o.OnCheckpoint != nil {
			o.OnCheckpoint(snap)
		}
	}
	restore := func(c *Checkpoint) {
		copy(ranks, c.Ranks)
		copy(dangling, c.Aux)
		restoreContrib(ranks, contrib, invDeg, n, k)
		iter = c.Iter
	}
	if o.CheckpointEvery > 0 {
		if o.Resume != nil {
			last = o.Resume
		} else {
			takeSnapshot(0)
		}
	}

	res := PPRResult{Ranks: ranks, K: k, Deltas: make([]float64, k)}
	for iter < o.MaxIters {
		for j, s := range sources {
			teleport := 1 - o.Damping
			if o.RedistributeDangling {
				teleport += o.Damping * dangling[j]
			}
			baseVec[s*k+j] = teleport
		}
		var stepErr error
		switch {
		case ctxFused:
			stepErr = cfe.StepBatchEpiCtx(ctx, contrib, sums, k, epi)
		case fused:
			if stepErr = ctxErrOf(ctx); stepErr == nil {
				fe.StepBatchEpi(contrib, sums, k, epi)
			}
		case ctxPlain:
			if stepErr = ce.StepBatchCtx(ctx, contrib, sums, k); stepErr == nil {
				if pool != nil {
					stepErr = pool.RunCtx(ctx, poolEpi)
				} else {
					d, g := body(0, n)
					copy(res.Deltas, d)
					copy(dangling, g)
				}
			}
		case pool != nil:
			if stepErr = ctxErrOf(ctx); stepErr == nil {
				e.StepBatch(contrib, sums, k)
				stepErr = pool.RunCtx(ctx, poolEpi)
			}
		default:
			if stepErr = ctxErrOf(ctx); stepErr == nil {
				e.StepBatch(contrib, sums, k)
				d, g := body(0, n)
				copy(res.Deltas, d)
				copy(dangling, g)
			}
		}
		if stepErr != nil {
			var nerr *spmv.NumericError
			if errors.As(stepErr, &nerr) && nerr.Rollback && last != nil && retries < maxRollbackRetries {
				retries++
				res.Rollbacks++
				restore(last)
				continue
			}
			return res, stepErr
		}
		if workers > 0 {
			clear(res.Deltas)
			clear(dangling)
			for w := 0; w < workers; w++ {
				for j := 0; j < k; j++ {
					res.Deltas[j] += deltaParts[w*k+j]
					dangling[j] += danglingParts[w*k+j]
				}
			}
		}
		iter++
		res.Iters = iter
		if o.CheckpointEvery > 0 && iter%o.CheckpointEvery == 0 {
			takeSnapshot(iter)
		}
		if o.Tol >= 0 && maxOf(res.Deltas) < o.Tol {
			break
		}
	}
	return res, nil
}

// restoreContrib recomputes the contribution vector from restored
// ranks: the same single-rounding ranks·invDeg product the epilogue
// performs, so a resumed trajectory is bit-for-bit identical.
//
//ihtl:noalloc
func restoreContrib(ranks, contrib, invDeg []float64, n, k int) {
	for v := 0; v < n; v++ {
		inv := invDeg[v]
		for j := 0; j < k; j++ {
			contrib[v*k+j] = ranks[v*k+j] * inv
		}
	}
}

// bodyInto is the per-vertex-range PPR update, accumulating per-lane
// delta and dangling mass into the caller's slices.
//
//ihtl:noalloc
func bodyInto(lo, hi, k int, o PageRankOptions, ranks, sums, baseVec, contrib, invDeg []float64, outDeg []int, delta, dangl []float64) {
	for v := lo; v < hi; v++ {
		vb := v * k
		inv := invDeg[v]
		dangle := o.RedistributeDangling && outDeg[v] == 0
		for j := 0; j < k; j++ {
			idx := vb + j
			nv := o.Damping*sums[idx] + baseVec[idx]
			delta[j] += math.Abs(nv - ranks[idx])
			ranks[idx] = nv
			contrib[idx] = nv * inv
			if dangle {
				dangl[j] += nv
			}
		}
	}
}

//ihtl:noalloc
func maxOf(v []float64) float64 {
	m := math.Inf(-1)
	for _, x := range v {
		if x > m {
			m = x
		}
	}
	return m
}
