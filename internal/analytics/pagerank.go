// Package analytics implements graph analytics on top of the SpMV
// engines: PageRank (the paper's evaluation application, §4.1), HITS
// (a pull-underpinned analytic cited in §1), label-propagation
// connected components, direction-optimizing BFS and Bellman-Ford
// SSSP (the §6 future-work analytics).
//
// Every analytic is engine-agnostic: it accepts any spmv.Stepper, so
// the same code runs over pull, push, or iHTL engines — the property
// the paper's evaluation relies on ("iHTL mixes push and pull but
// every edge is traversed exactly once").
package analytics

import (
	"context"
	"errors"
	"fmt"
	"math"

	"ihtl/internal/sched"
	"ihtl/internal/spmv"
)

// PageRankOptions configures RunPageRank.
type PageRankOptions struct {
	// Damping is the damping factor; 0 selects the paper's 0.85.
	Damping float64
	// MaxIters bounds iteration count; 0 selects 100.
	MaxIters int
	// Tol stops iteration once the L1 delta falls below it; 0
	// selects 1e-9. Set negative to always run MaxIters (the paper
	// reports fixed per-iteration times).
	Tol float64
	// RedistributeDangling adds the rank mass of zero-out-degree
	// vertices uniformly each iteration. The paper's formula (§4.1)
	// omits this, so it defaults to off.
	RedistributeDangling bool

	// CheckpointEvery > 0 snapshots the driver state every that many
	// completed iterations (plus once before the first iteration, so
	// rollback always has a target). Snapshots feed OnCheckpoint and
	// the numeric-health rollback below; 0 disables both.
	CheckpointEvery int
	// OnCheckpoint observes each snapshot. The *Checkpoint is owned
	// by the driver and its buffers are reused by later snapshots:
	// encode it synchronously or Clone it before returning.
	OnCheckpoint func(*Checkpoint)
	// Resume restarts the run from a snapshot previously produced by
	// this driver (Algo "pagerank"): ranks and dangling mass are
	// restored and iteration continues at Resume.Iter, producing
	// bit-for-bit the trajectory of an uninterrupted run.
	Resume *Checkpoint
}

func (o PageRankOptions) withDefaults() PageRankOptions {
	if o.Damping == 0 { //ihtl:allow-zerocmp option defaulting, ±0 both mean "unset"
		o.Damping = 0.85
	}
	if o.MaxIters == 0 {
		o.MaxIters = 100
	}
	if o.Tol == 0 { //ihtl:allow-zerocmp option defaulting, ±0 both mean "unset"
		o.Tol = 1e-9
	}
	return o
}

// maxRollbackRetries bounds how many times a run may roll back to the
// SAME checkpoint before the numeric error is surfaced: transient
// corruption (the fault-injection harness, a flipped bit) heals on
// retry, while a deterministic divergence would otherwise loop
// forever.
const maxRollbackRetries = 2

// PageRankResult carries the final ranks and convergence metadata.
type PageRankResult struct {
	// Ranks is indexed in the Stepper's vertex-ID space.
	Ranks []float64
	// Iters is the absolute iteration index reached (resumed runs
	// count the iterations of the original run).
	Iters int
	// Delta is the final L1 change.
	Delta float64
	// Rollbacks counts checkpoint restores triggered by numeric-
	// health errors (spmv.HealthRollback engines only).
	Rollbacks int
}

// RunPageRank iterates PRᵢ(v) = (1-d)/n + d·Σ_{u∈N⁻(v)} PRᵢ₋₁(u)/deg⁺(u)
// over the given engine. outDeg must give the out-degree of every
// vertex in the engine's ID space. The element-wise update runs as the
// step's epilogue, on the engine's own pool, so pool is not used; it
// may be nil.
func RunPageRank(e spmv.Stepper, outDeg []int, pool *sched.Pool, opt PageRankOptions) (PageRankResult, error) {
	return RunPageRankCtx(nil, e, outDeg, pool, opt)
}

// RunPageRankCtx is RunPageRank under a context: cancelling ctx stops
// the run mid-Step at the next chunk claim and returns ctx.Err(). A
// failed step — a worker panic surfacing as *sched.PanicError, or a
// numeric-health violation as *spmv.NumericError — is returned instead
// of panicking. Under spmv.HealthRollback with CheckpointEvery set, a
// numeric error restores the latest checkpoint and retries (at most
// maxRollbackRetries times per checkpoint) before surfacing. ctx may be
// nil.
func RunPageRankCtx(ctx context.Context, e spmv.Stepper, outDeg []int, _ *sched.Pool, opt PageRankOptions) (PageRankResult, error) {
	n := e.NumVertices()
	if len(outDeg) != n {
		return PageRankResult{}, fmt.Errorf("analytics: outDeg length %d != %d vertices", len(outDeg), n)
	}
	o := opt.withDefaults()
	if n == 0 {
		return PageRankResult{Ranks: []float64{}}, nil
	}
	if o.Resume != nil {
		if err := o.Resume.validate(); err != nil {
			return PageRankResult{}, err
		}
		if o.Resume.Algo != "pagerank" || o.Resume.N != n || o.Resume.K != 1 {
			return PageRankResult{}, fmt.Errorf("analytics: resume checkpoint %q n=%d k=%d does not match pagerank n=%d",
				o.Resume.Algo, o.Resume.N, o.Resume.K, n)
		}
	}

	invDeg := make([]float64, n)
	for v, d := range outDeg {
		if d > 0 {
			invDeg[v] = 1 / float64(d)
		}
	}
	ranks := make([]float64, n)
	contrib := make([]float64, n)
	sums := make([]float64, n)
	base := (1 - o.Damping) / float64(n)

	// Preamble sweep: initial ranks, the contributions they push in
	// iteration 0, and the initial dangling mass — or the restored
	// equivalents when resuming. Contributions are recomputed as
	// ranks[v]·invDeg[v], the same single-rounding product the
	// epilogue performs, so a resumed trajectory is bit-for-bit that
	// of the uninterrupted run.
	var dangling float64
	iter := 0
	if o.Resume != nil {
		copy(ranks, o.Resume.Ranks)
		dangling = o.Resume.Aux[0]
		for v := 0; v < n; v++ {
			contrib[v] = ranks[v] * invDeg[v]
		}
		iter = o.Resume.Iter
	} else {
		init := 1 / float64(n)
		for v := 0; v < n; v++ {
			ranks[v] = init
			contrib[v] = init * invDeg[v]
			if o.RedistributeDangling && outDeg[v] == 0 {
				dangling += init
			}
		}
	}

	// Per iteration, everything element-wise runs as the step's
	// epilogue: apply damping, accumulate the L1 delta, compute the
	// contributions the next step will push, and collect the next
	// iteration's dangling mass, one partial per slot of the engine's
	// grid — instead of separate contribution and update sweeps before
	// and after every step. On core.Engine the epilogue executes inside
	// the step's own dispatch, making a whole PageRank iteration one
	// pool round-trip.
	//
	// An engine that streams its epilogue runs it on each slot as soon
	// as the slot's rows are pulled, while other workers still read
	// contrib: the next contributions then go to a second buffer, next,
	// swapped in after each successful step — which is what lets the
	// epilogue make the streamed promise. Elsewhere next is contrib.
	//
	// extra is read by the epilogue workers; the orchestrator writes
	// it before each dispatch, which orders the write.
	slots, streamed := e.EpiSlots()
	next := contrib
	if streamed {
		next = make([]float64, n)
	}
	var extra float64
	// Every slot is written each dispatch (an empty range stores zeros),
	// so no stale partials survive an iteration.
	deltaParts := make([]float64, slots)
	danglingParts := make([]float64, slots)
	epi := spmv.Epilogue{Stream: streamed, Run: func(slot, lo, hi int) {
		var delta, dangl float64
		for v := lo; v < hi; v++ {
			nv := base + o.Damping*sums[v] + extra
			delta += math.Abs(nv - ranks[v])
			ranks[v] = nv
			next[v] = nv * invDeg[v]
			if o.RedistributeDangling && outDeg[v] == 0 {
				dangl += nv
			}
		}
		deltaParts[slot], danglingParts[slot] = delta, dangl
	}}

	// Checkpointing: snap is the driver-owned reusable snapshot, last
	// the rollback target (snap, or the caller's Resume checkpoint
	// until the first fresh snapshot lands).
	var snap, last *Checkpoint
	retries := 0
	takeSnapshot := func(iterDone int) {
		if snap == nil {
			snap = &Checkpoint{Algo: "pagerank", N: n, K: 1,
				Ranks: make([]float64, n), Aux: make([]float64, 1)}
		}
		snap.Iter = iterDone
		copy(snap.Ranks, ranks)
		snap.Aux[0] = dangling
		last = snap
		retries = 0
		if o.OnCheckpoint != nil {
			o.OnCheckpoint(snap)
		}
	}
	restore := func(c *Checkpoint) {
		copy(ranks, c.Ranks)
		dangling = c.Aux[0]
		for v := 0; v < n; v++ {
			contrib[v] = ranks[v] * invDeg[v]
		}
		iter = c.Iter
	}
	if o.CheckpointEvery > 0 {
		if o.Resume != nil {
			last = o.Resume
		} else {
			takeSnapshot(0)
		}
	}

	res := PageRankResult{Ranks: ranks}
	for iter < o.MaxIters {
		extra = o.Damping * dangling / float64(n)
		if err := e.StepCtx(ctx, contrib, sums, 1, epi); err != nil {
			var nerr *spmv.NumericError
			if errors.As(err, &nerr) && nerr.Rollback && last != nil && retries < maxRollbackRetries {
				retries++
				res.Rollbacks++
				restore(last)
				continue
			}
			return res, err
		}
		if streamed {
			contrib, next = next, contrib
		}
		var delta float64
		dangling = 0
		for p := range deltaParts {
			delta += deltaParts[p]
			dangling += danglingParts[p]
		}
		iter++
		res.Iters = iter
		res.Delta = delta
		if o.CheckpointEvery > 0 && iter%o.CheckpointEvery == 0 {
			takeSnapshot(iter)
		}
		if o.Tol >= 0 && delta < o.Tol {
			break
		}
	}
	return res, nil
}

// ctxErrOf is the nil-tolerant ctx.Err().
func ctxErrOf(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}
