package analytics

import (
	"context"
	"errors"
	"fmt"

	"ihtl/internal/sched"
	"ihtl/internal/spmv"
)

// LaneStatus classifies how a coalesced PPR lane ended.
type LaneStatus int

const (
	// LaneConverged: the lane's own L1 delta fell below Tol.
	LaneConverged LaneStatus = iota
	// LaneDeadline: the lane's ctx deadline expired mid-run; the
	// emitted ranks are the last completed iteration (a partial,
	// degraded result).
	LaneDeadline
	// LaneCancelled: the lane's ctx was cancelled (the requester went
	// away); no ranks are emitted.
	LaneCancelled
	// LaneIterCap: MaxIters elapsed before the lane converged.
	LaneIterCap
)

func (s LaneStatus) String() string {
	switch s {
	case LaneConverged:
		return "converged"
	case LaneDeadline:
		return "deadline"
	case LaneCancelled:
		return "cancelled"
	case LaneIterCap:
		return "itercap"
	}
	return "unknown"
}

// LaneRequest is one personalized-PageRank query riding a batch lane.
type LaneRequest struct {
	// Source is the personalization vertex, in the Stepper's ID space.
	Source int
	// Ctx carries the requester's deadline and cancellation; the lane
	// is checked against it at every iteration boundary, so an
	// abandoned query frees its lane without waiting for the batch.
	// May be nil (the lane then runs to convergence or MaxIters).
	Ctx context.Context
}

// LaneResult is delivered to the onDone callback exactly once per
// lane, at the iteration boundary where the lane finished.
type LaneResult struct {
	// Lane is the index into the lanes slice (arrival order).
	Lane int
	// Status tells how the lane ended.
	Status LaneStatus
	// Iters is the number of completed iterations when the lane ended.
	Iters int
	// Delta is the lane's L1 change over its last completed iteration.
	Delta float64
	// Ranks is the lane's dense rank vector in the Stepper's ID space
	// (a private copy the receiver owns). Nil for LaneCancelled.
	Ranks []float64
}

// Converged reports whether the lane reached its tolerance.
func (r LaneResult) Converged() bool { return r.Status == LaneConverged }

// laneSnap is the in-memory rollback target for numeric-health
// recovery: the same state a Checkpoint captures, plus the per-lane
// active mask (which lanes were still iterating at snapshot time).
// The emitted guard is deliberately NOT part of the snapshot — a lane
// whose result already left the runner must never be re-emitted, even
// if a rollback rewinds the trajectory past its convergence point.
type laneSnap struct {
	iter     int
	ranks    []float64
	dangling []float64
	active   []bool
}

// RunPPRLanes drives K independent personalized-PageRank queries —
// one per lane — through shared batched SpMV steps, with per-lane
// completion. Unlike RunPersonalizedPageRankCtx, which runs all K
// lanes to a common stopping point, each lane here stops at its OWN
// convergence iteration and is frozen (its teleport and contribution
// columns zeroed) so the remaining lanes keep sharing the traversal.
// Because StepBatch computes every lane independently, a lane's
// trajectory — and therefore its emitted ranks — is bit-for-bit the
// ranks a solo run over the same engine would produce. That is the
// property that makes coalesced serving exact rather than
// approximate.
//
// Each lane's ctx is consulted at every iteration boundary: a
// deadline expiry emits the lane's current ranks as a partial
// (LaneDeadline), a cancellation abandons the lane without ranks
// (LaneCancelled). ctx is the whole-batch context (dispatch-level
// cancellation); lane contexts degrade single lanes only.
//
// onDone is called exactly once per lane, from the orchestrating
// goroutine (no locking needed), in lane order within one iteration
// boundary. With opt.CheckpointEvery > 0, numeric-health errors from
// rollback-capable engines restore the latest in-memory snapshot and
// retry, exactly like RunPersonalizedPageRankCtx; lanes that already
// emitted are never re-emitted after a rollback.
func RunPPRLanes(ctx context.Context, e spmv.Stepper, outDeg []int, pool *sched.Pool, lanes []LaneRequest, opt PageRankOptions, onDone func(LaneResult)) error {
	return new(PPRWorkspace).RunLanes(ctx, e, outDeg, pool, lanes, opt, onDone)
}

// RunLanes is RunPPRLanes on the workspace's arrays — the inverse
// degrees, the n×K arrays and the rollback snapshot's ranks — so
// a caller that runs batch after batch (the daemon: one workspace per
// slot) allocates and first-touches them once. A LaneResult's Ranks are
// still a private copy. The steps and their epilogue run on the
// engine's own pool; pool only wipes the arrays a batch starts from,
// and may be nil to wipe them on the caller.
func (ws *PPRWorkspace) RunLanes(ctx context.Context, e spmv.Stepper, outDeg []int, pool *sched.Pool, lanes []LaneRequest, opt PageRankOptions, onDone func(LaneResult)) error {
	n := e.NumVertices()
	k := len(lanes)
	if k == 0 {
		return fmt.Errorf("analytics: no lanes")
	}
	if len(outDeg) != n {
		return fmt.Errorf("analytics: outDeg length %d != %d vertices", len(outDeg), n)
	}
	for j, l := range lanes {
		if l.Source < 0 || l.Source >= n {
			return fmt.Errorf("analytics: source %d (lane %d) out of [0,%d)", l.Source, j, n)
		}
	}
	o := opt.withDefaults()
	if o.Resume != nil {
		return fmt.Errorf("analytics: RunPPRLanes does not support Resume (spool whole batches via RunPersonalizedPageRankCtx)")
	}

	if err := ws.prepare(ctx, pool, outDeg, n, k); err != nil {
		return err
	}
	invDeg, ranks, contrib, sums := ws.invDeg, ws.ranks, ws.contrib, ws.sums
	dangling := make([]float64, k)
	deltas := make([]float64, k)
	active := make([]bool, k)
	emitted := make([]bool, k)
	numActive := k
	sw := pprSweep{k: k, damping: o.Damping, redistribute: o.RedistributeDangling,
		ranks: ranks, sums: sums, invDeg: invDeg, outDeg: outDeg,
		sources: make([]int, k), teleport: make([]float64, k)}
	for j, l := range lanes {
		active[j] = true
		sw.sources[j] = l.Source
		idx := l.Source*k + j
		ranks[idx] = 1
		contrib[idx] = invDeg[l.Source]
		if o.RedistributeDangling && outDeg[l.Source] == 0 {
			dangling[j] = 1
		}
	}
	sw.srcRows = distinctAscending(sw.sources)

	// The sweep runs dense here: the batches of the graph the daemon is
	// measured on fill within two Steps, so row sets here would see no
	// traffic (DESIGN.md §8 "Active rows"). Like Run's dense steps, it
	// streams on an engine that streams its epilogue, writing the next
	// contributions into next, swapped with contrib after every
	// successful step; elsewhere next is contrib.
	slots, next, streamed := ws.epiGrid(e, n, k)
	sw.contrib = next
	deltaParts := make([]float64, slots*k)
	danglingParts := make([]float64, slots*k)
	epi := spmv.Epilogue{Stream: streamed, Run: func(slot, lo, hi int) {
		dp := deltaParts[slot*k : slot*k+k]
		gp := danglingParts[slot*k : slot*k+k]
		clear(dp)
		clear(gp)
		sw.rows(lo, hi, dp, gp)
	}}

	// finish freezes a lane at an iteration boundary (zeroed teleport
	// and contribution column: the lane costs nothing in later steps
	// and cannot perturb survivors, since StepBatch lanes are
	// independent) and emits its result at most once, ever.
	finish := func(j int, status LaneStatus, iters int) {
		if active[j] {
			active[j] = false
			numActive--
			sw.teleport[j] = 0
			for v := 0; v < n; v++ {
				contrib[v*k+j] = 0
			}
		}
		if emitted[j] {
			return
		}
		emitted[j] = true
		res := LaneResult{Lane: j, Status: status, Iters: iters, Delta: deltas[j]}
		if status != LaneCancelled {
			res.Ranks = make([]float64, n)
			for v := 0; v < n; v++ {
				res.Ranks[v] = ranks[v*k+j]
			}
		}
		if onDone != nil {
			onDone(res)
		}
	}

	iter := 0
	var snap *laneSnap
	retries := 0
	takeSnapshot := func(iterDone int) {
		if snap == nil {
			ws.snapRanks, _ = sized(ws.snapRanks, n*k)
			snap = &laneSnap{
				ranks:    ws.snapRanks,
				dangling: make([]float64, k),
				active:   make([]bool, k),
			}
		}
		snap.iter = iterDone
		copy(snap.ranks, ranks)
		copy(snap.dangling, dangling)
		copy(snap.active, active)
		retries = 0
	}
	restore := func() {
		copy(ranks, snap.ranks)
		copy(dangling, snap.dangling)
		numActive = 0
		for j := range active {
			active[j] = snap.active[j]
			if active[j] {
				numActive++
			}
		}
		// Contributions are recomputed with the same single rounding
		// the epilogue performs, column-masked so lanes frozen at
		// snapshot time stay frozen.
		for v := 0; v < n; v++ {
			inv := invDeg[v]
			for j := 0; j < k; j++ {
				if active[j] {
					contrib[v*k+j] = ranks[v*k+j] * inv
				} else {
					contrib[v*k+j] = 0
				}
			}
		}
		for j := range lanes {
			if !active[j] {
				sw.teleport[j] = 0
			}
		}
		iter = snap.iter
	}
	if o.CheckpointEvery > 0 {
		takeSnapshot(0)
	}

	for iter < o.MaxIters && numActive > 0 {
		// Iteration boundary: deadlines and abandonment first, so a
		// dead lane is freed before the next traversal pays for it.
		for j := range lanes {
			if !active[j] {
				continue
			}
			if err := ctxErrOf(lanes[j].Ctx); err != nil {
				st := LaneCancelled
				if errors.Is(err, context.DeadlineExceeded) {
					st = LaneDeadline
				}
				finish(j, st, iter)
			}
		}
		if numActive == 0 {
			break
		}
		for j := range lanes {
			if !active[j] {
				continue
			}
			sw.teleport[j] = 1 - o.Damping
			if o.RedistributeDangling {
				sw.teleport[j] += o.Damping * dangling[j]
			}
		}

		if err := e.StepCtx(ctx, contrib, sums, k, epi); err != nil {
			var nerr *spmv.NumericError
			if errors.As(err, &nerr) && nerr.Rollback && snap != nil && retries < maxRollbackRetries {
				retries++
				restore()
				continue
			}
			return err
		}
		if streamed {
			contrib, next = next, contrib
			sw.contrib = next
		}
		clear(deltas)
		clear(dangling)
		for p := 0; p < slots; p++ {
			for j := 0; j < k; j++ {
				deltas[j] += deltaParts[p*k+j]
				dangling[j] += danglingParts[p*k+j]
			}
		}
		iter++
		if o.CheckpointEvery > 0 && iter%o.CheckpointEvery == 0 {
			takeSnapshot(iter)
		}
		for j := range lanes {
			if active[j] && o.Tol >= 0 && deltas[j] < o.Tol {
				finish(j, LaneConverged, iter)
			}
		}
	}
	for j := range lanes {
		if active[j] {
			finish(j, LaneIterCap, iter)
		}
	}
	return nil
}
