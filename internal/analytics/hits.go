package analytics

import (
	"context"
	"fmt"
	"math"

	"ihtl/internal/sched"
	"ihtl/internal/spmv"
)

// HITSOptions configures RunHITS.
type HITSOptions struct {
	// MaxIters bounds iteration count; 0 selects 50.
	MaxIters int
	// Tol stops when both score vectors' L1 deltas fall below it;
	// 0 selects 1e-9.
	Tol float64
	// Pool parallelises the O(n) normalisation and delta sweeps; nil
	// runs them sequentially. Each normalisation is a single fused
	// dispatch (partial square-sums, a barrier, then scaling).
	Pool *sched.Pool
}

// HITSResult carries the converged authority and hub scores.
type HITSResult struct {
	Authority []float64
	Hub       []float64
	Iters     int
}

// RunHITS computes Kleinberg's Hyperlink-Induced Topic Search — one
// of the pull-underpinned analytics motivating the paper (§1, [20]).
// It needs two SpMV engines over the same vertex set: fwd computes
// a(v) = Σ_{u→v} h(u) (in-neighbour sums, the usual Stepper), and rev
// computes h(v) = Σ_{v→u} a(u), i.e. a Stepper built on the
// transposed graph.
func RunHITS(fwd, rev spmv.Stepper, opt HITSOptions) (HITSResult, error) {
	return RunHITSCtx(nil, fwd, rev, opt)
}

// RunHITSCtx is RunHITS under a context. Unlike PageRank's single
// fused dispatch, a HITS iteration is a sequence of phases — two
// steps, two normalisations, two delta sweeps — so each phase is its
// own cancellable dispatch: a step stops at the next chunk claim, and
// worker panics surface as *sched.PanicError instead of crashing the
// process. ctx may be nil.
func RunHITSCtx(ctx context.Context, fwd, rev spmv.Stepper, opt HITSOptions) (HITSResult, error) {
	n := fwd.NumVertices()
	if rev.NumVertices() != n {
		return HITSResult{}, fmt.Errorf("analytics: engine vertex counts differ: %d vs %d", n, rev.NumVertices())
	}
	if opt.MaxIters == 0 {
		opt.MaxIters = 50
	}
	if opt.Tol == 0 { //ihtl:allow-zerocmp option defaulting, ±0 both mean "unset"
		opt.Tol = 1e-9
	}
	auth := make([]float64, n)
	hub := make([]float64, n)
	newAuth := make([]float64, n)
	newHub := make([]float64, n)
	for v := range hub {
		hub[v] = 1
		auth[v] = 1
	}
	res := HITSResult{Authority: auth, Hub: hub}
	if n == 0 {
		return res, nil
	}
	nrm := newNormalizer(opt.Pool)
	for iter := 0; iter < opt.MaxIters; iter++ {
		if err := fwd.StepCtx(ctx, hub, newAuth, 1, spmv.Epilogue{}); err != nil { // a = Aᵀ h
			return res, err
		}
		if err := nrm.normalize(ctx, newAuth); err != nil {
			return res, err
		}
		if err := rev.StepCtx(ctx, newAuth, newHub, 1, spmv.Epilogue{}); err != nil { // h = A a
			return res, err
		}
		if err := nrm.normalize(ctx, newHub); err != nil {
			return res, err
		}
		dA, err := nrm.deltaAndCopy(ctx, auth, newAuth)
		if err != nil {
			return res, err
		}
		dH, err := nrm.deltaAndCopy(ctx, hub, newHub)
		if err != nil {
			return res, err
		}
		delta := dA + dH
		res.Iters = iter + 1
		if delta < opt.Tol {
			break
		}
	}
	return res, nil
}

// normalizer scales vectors to unit L2 norm, on a pool when one is
// available. The parallel path is ONE dispatch: each worker computes
// the square-sum of its static range, crosses a barrier, and
// scales the same range by the combined norm — no second dispatch for
// the scaling pass. The barrier crossing is abort-aware (WaitAbort),
// so a cancelled dispatch or a panicking sibling releases waiting
// workers instead of deadlocking them; a failed dispatch resets the
// barrier before the error is surfaced, leaving the normalizer
// reusable. Both worker bodies are prebuilt at construction and the
// operand vectors staged through fields, so the per-iteration calls
// stay allocation-free in the workers (//ihtl:noalloc).
type normalizer struct {
	pool    *sched.Pool
	barrier *sched.Barrier
	partial []float64

	curV     []float64 // staged operand for normJob
	curA     []float64 // staged operands for deltaJob
	curB     []float64
	normJob  func(w int)
	deltaJob func(w, lo, hi int)
}

func newNormalizer(pool *sched.Pool) *normalizer {
	nrm := &normalizer{pool: pool}
	if pool != nil {
		nrm.barrier = sched.NewBarrier(pool.Workers())
		nrm.partial = make([]float64, pool.Workers())
		nrm.normJob = nrm.normWorker
		nrm.deltaJob = nrm.deltaWorker
	}
	return nrm
}

func (nrm *normalizer) normalize(ctx context.Context, v []float64) error {
	if nrm.pool == nil || len(v) < len(nrm.partial) {
		if err := ctxErrOf(ctx); err != nil {
			return err
		}
		normalizeSeq(v)
		return nil
	}
	nrm.curV = v
	err := nrm.pool.RunCtx(ctx, nrm.normJob)
	nrm.curV = nil
	if err != nil {
		// A worker may have stopped short of the barrier; clear any
		// partial arrivals so the next dispatch starts clean.
		nrm.barrier.Reset()
	}
	return err
}

// normWorker is one worker's share of a normalize dispatch: square-sum
// the static range, meet at the barrier, scale the same range.
//
//ihtl:noalloc
func (nrm *normalizer) normWorker(w int) {
	v := nrm.curV
	lo, hi := sched.SplitRange(len(v), nrm.pool.Workers(), w)
	sum := 0.0
	for i := lo; i < hi; i++ {
		sum += v[i] * v[i]
	}
	nrm.partial[w] = sum
	if !nrm.barrier.WaitAbort(nrm.pool) {
		return
	}
	norm := 0.0
	for _, p := range nrm.partial {
		norm += p
	}
	norm = math.Sqrt(norm)
	if spmv.SkipZero(norm) {
		return
	}
	inv := 1 / norm
	for i := lo; i < hi; i++ {
		v[i] *= inv
	}
}

//ihtl:noalloc
func normalizeSeq(v []float64) {
	var norm float64
	for _, x := range v {
		norm += x * x
	}
	norm = math.Sqrt(norm)
	if spmv.SkipZero(norm) {
		return
	}
	inv := 1 / norm
	for i := range v {
		v[i] *= inv
	}
}

// deltaAndCopy returns Σ|a[i]-b[i]| and copies b into a, in one sweep.
func (nrm *normalizer) deltaAndCopy(ctx context.Context, a, b []float64) (float64, error) {
	if nrm.pool == nil || len(a) < len(nrm.partial) {
		if err := ctxErrOf(ctx); err != nil {
			return 0, err
		}
		d := 0.0
		for i := range a {
			d += math.Abs(a[i] - b[i])
			a[i] = b[i]
		}
		return d, nil
	}
	nrm.curA, nrm.curB = a, b
	err := nrm.pool.ForStaticCtx(ctx, len(a), nrm.deltaJob)
	nrm.curA, nrm.curB = nil, nil
	if err != nil {
		return 0, err
	}
	delta := 0.0
	for _, d := range nrm.partial {
		delta += d
	}
	return delta, nil
}

// deltaWorker is one worker's share of a deltaAndCopy dispatch.
//
//ihtl:noalloc
func (nrm *normalizer) deltaWorker(w, lo, hi int) {
	a, b := nrm.curA, nrm.curB
	d := 0.0
	for i := lo; i < hi; i++ {
		d += math.Abs(a[i] - b[i])
		a[i] = b[i]
	}
	nrm.partial[w] = d
}
