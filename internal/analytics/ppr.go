package analytics

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"ihtl/internal/sched"
	"ihtl/internal/spmv"
	"ihtl/internal/unchecked"
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
	// Rows, when not nil, names every row of Ranks that may hold a lane
	// other than +0.0; every other row is all +0.0. It is set only when
	// the run ended in the active-row mode — it is then the workspace's
	// rankRows and, like Ranks, holds until the workspace's next Run.
	Rows spmv.RowSet
}

// activeRowStepper is the one optional capability an engine may add to
// spmv.Stepper: a step over the rows a RowSet names that reports the
// rows it wrote (see core.Engine.StepBatchActiveCtx).
type activeRowStepper interface {
	StepBatchActiveCtx(ctx context.Context, src, dst []float64, k int, active, touched spmv.RowSet, epi func(slot, lo, hi int)) error
}

// activeRowFrac sets where a run leaves the active-row mode: it steps
// through activeRowStepper while at most one row in activeRowFrac holds
// a rank, and densely from then on. DESIGN.md §8 "Active rows" has the
// crossover table (BenchmarkStepBatchActive) the value is read from.
const activeRowFrac = 8

// PPRWorkspace holds the n×K arrays of a personalized-PageRank run —
// three, and a fourth on an engine that streams its epilogue — the n
// inverse degrees and the three n-bit row sets of its active-row mode.
// Allocated per run they are first touched per run — 0.4 GB, 0.5–0.9 s of page faults beside 0.6 s of compute at n = 1.5 M,
// K = 8, and only on the runs whose memory the runtime had handed back,
// so run times spread 2× (DESIGN.md §8) — so a caller that runs batch
// after batch keeps one workspace and calls Run (or, for lanes that end
// one by one, RunLanes) on it. The zero value is ready; it grows to the
// largest run and must not be shared by concurrent runs.
type PPRWorkspace struct {
	invDeg, ranks, contrib, sums []float64
	// next is where a streamed epilogue writes the next contributions
	// while other slots still read contrib (epiGrid); allocated only on
	// an engine that streams, and never read before a step has written
	// all of it, so never wiped.
	next []float64
	// snapRanks is RunLanes' rollback snapshot of ranks.
	snapRanks []float64
	// contribRows, rankRows: the rows of contrib and of ranks that may
	// hold a lane other than +0.0; touched: the rows of sums the last
	// active-row Step wrote. Maintained only while a run is in the
	// active-row mode, rebuilt at the start of every run.
	contribRows, rankRows, touched spmv.RowSet
	// sparse is the (n, k) of the last run if it ended in the active-row
	// mode — ranks and contrib are then all +0.0 outside rankRows' rows,
	// which is all the next run has to wipe — and zero otherwise.
	sparse [2]int

	// leaveActive, when set, replaces the activeRowFrac rule: a run
	// leaves the active-row mode before the iteration for which it
	// returns true (rows of n hold a rank). The differential tests force
	// the switch at iteration 0, mid-run and never through it.
	leaveActive func(iter, rows, n int) bool
}

// sized returns s cut to n elements — reallocated, and then zeroed, when
// s has no room for them — and whether it still holds its old contents.
func sized(s []float64, n int) (_ []float64, stale bool) {
	if n > cap(s) {
		return make([]float64, n), false
	}
	return s[:n], true
}

// RunPersonalizedPageRankCtx iterates K personalized PageRanks — one
// per source — through batched SpMV steps:
//
//	PPRⱼ(v) = (1-d)·1[v = sⱼ] + d·Σ_{u∈N⁻(v)} PPRⱼ(u)/deg⁺(u)
//
// All K lanes share every edge load: one K-wide step per iteration
// advances every source, and the damping/delta/contribution sweep runs
// as its epilogue — on core.Engine inside the same dispatch, so a whole
// K-source iteration is one pool round-trip. Iteration
// stops when every lane's L1 delta falls below opt.Tol (or at
// opt.MaxIters). With opt.RedistributeDangling, each lane's dangling
// mass teleports back to its own source, the standard PPR treatment.
//
// sources are vertex IDs in the Stepper's ID space; len(sources) is
// the batch width K. outDeg must give the out-degree of every vertex.
// The step and its epilogue run on the engine's own pool; pool only
// wipes the arrays a run starts from, and may be nil to wipe them on
// the caller.
//
// The run keeps the RunPageRankCtx failure contract: ctx cancellation
// stops the run at the next chunk claim, step failures return
// *sched.PanicError / *spmv.NumericError instead of panicking, and
// under spmv.HealthRollback with CheckpointEvery set a numeric error
// restores the latest checkpoint (Algo "ppr", K lanes) and retries
// before surfacing. ctx may be nil.
func RunPersonalizedPageRankCtx(ctx context.Context, e spmv.Stepper, outDeg []int, pool *sched.Pool, sources []int, opt PageRankOptions) (PPRResult, error) {
	return new(PPRWorkspace).Run(ctx, e, outDeg, pool, sources, opt)
}

// Run is RunPersonalizedPageRankCtx on the workspace's arrays: the
// result's Ranks are the workspace's and hold until its next Run.
func (ws *PPRWorkspace) Run(ctx context.Context, e spmv.Stepper, outDeg []int, pool *sched.Pool, sources []int, opt PageRankOptions) (PPRResult, error) {
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

	if err := ws.prepare(ctx, pool, outDeg, n, k); err != nil {
		return PPRResult{}, err
	}
	invDeg, ranks, contrib, sums := ws.invDeg, ws.ranks, ws.contrib, ws.sums

	// The active-row mode needs an engine with the entry, arrays whose
	// non-zero rows this run itself has written (not a checkpoint's), and
	// a damping for which d·(+0.0) is +0.0 — what an unwalked row keeps.
	ae, _ := e.(activeRowStepper)
	active := ae != nil && o.Resume == nil && o.Damping >= 0 && o.Damping <= 1
	sw := pprSweep{k: k, damping: o.Damping, redistribute: o.RedistributeDangling,
		ranks: ranks, sums: sums, invDeg: invDeg, outDeg: outDeg,
		sources: sources, teleport: make([]float64, k), srcRows: distinctAscending(sources)}
	if active {
		if len(ws.touched) != (n+63)>>6 {
			ws.contribRows, ws.rankRows, ws.touched = spmv.NewRowSet(n), spmv.NewRowSet(n), spmv.NewRowSet(n)
		} else {
			clear(ws.contribRows)
			clear(ws.rankRows)
		}
		sw.contribRows, sw.rankRows, sw.touched = ws.contribRows, ws.rankRows, ws.touched
	}
	leave := ws.leaveActive
	if leave == nil {
		leave = func(_, rows, n int) bool { return rows > n/activeRowFrac }
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
			if active {
				sw.rankRows.Add(s)
				if outDeg[s] > 0 {
					sw.contribRows.Add(s)
				}
			}
		}
	}

	// The per-iteration element-wise sweep runs as the step's epilogue
	// over the engine's slots, each slot summing its per-lane delta and
	// dangling mass into its own K partials. A dense step on an engine
	// that streams its epilogue writes the next contributions into next
	// and swaps it in after the step (ws.epiGrid); an active-row step, and
	// every step elsewhere, writes them in place, into src.
	slots, next, streamed := ws.epiGrid(e, n, k)
	deltaParts := make([]float64, slots*k)
	danglingParts := make([]float64, slots*k)
	epi := func(slot, lo, hi int) {
		dp := deltaParts[slot*k : slot*k+k]
		gp := danglingParts[slot*k : slot*k+k]
		clear(dp)
		clear(gp)
		if active {
			sw.activeRows(lo, hi, dp, gp)
		} else {
			sw.rows(lo, hi, dp, gp)
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
	// restore rewinds to a checkpoint, and leaves the active-row mode for
	// good: the sets describe the arrays the run had built, not these.
	restore := func(c *Checkpoint) {
		copy(ranks, c.Ranks)
		copy(dangling, c.Aux)
		restoreContrib(ranks, contrib, invDeg, n, k)
		iter = c.Iter
		active = false
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
		for j := range sources {
			sw.teleport[j] = 1 - o.Damping
			if o.RedistributeDangling {
				sw.teleport[j] += o.Damping * dangling[j]
			}
		}
		var stepErr error
		if active && leave(iter, sw.rankRows.Count(), n) {
			active = false
		}
		if active {
			// A source row takes its teleport whether or not anything
			// reached it, so it is walked like a row that holds a rank.
			for _, s := range sw.srcRows {
				sw.rankRows.Add(s)
			}
			sw.contrib = contrib
			stepErr = ae.StepBatchActiveCtx(ctx, contrib, sums, k, sw.contribRows, sw.touched, epi)
		} else {
			sw.contrib = next
			stepErr = e.StepCtx(ctx, contrib, sums, k, spmv.Epilogue{Run: epi, Stream: streamed})
			if stepErr == nil && streamed {
				contrib, next = next, contrib
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
		clear(res.Deltas)
		clear(dangling)
		for p := 0; p < slots; p++ {
			for j := 0; j < k; j++ {
				res.Deltas[j] += deltaParts[p*k+j]
				dangling[j] += danglingParts[p*k+j]
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
	if active {
		ws.sparse = [2]int{n, k}
		res.Rows = ws.rankRows
	}
	return res, nil
}

// prepare sizes the workspace's arrays for a run of k lanes over n
// vertices and leaves ranks and contrib all +0.0 and invDeg filled from
// outDeg, wiping on pool (on the caller when pool is nil). sums is not
// cleared: a dense Step writes every row of it and the rows an
// active-row Step leaves alone are never read. After a run that ended
// in the active-row mode only the rows rankRows names hold anything,
// and only they are wiped.
func (ws *PPRWorkspace) prepare(ctx context.Context, pool *sched.Pool, outDeg []int, n, k int) error {
	var staleRanks, staleContrib bool
	ws.invDeg, _ = sized(ws.invDeg, n)
	ws.ranks, staleRanks = sized(ws.ranks, n*k)
	ws.contrib, staleContrib = sized(ws.contrib, n*k)
	ws.sums, _ = sized(ws.sums, n*k)
	invDeg, ranks, contrib := ws.invDeg, ws.ranks, ws.contrib
	span := n * k
	wipe := func(_, lo, hi int) {
		if staleRanks {
			clear(ranks[lo:hi])
		}
		if staleContrib {
			clear(contrib[lo:hi])
		}
	}
	if ws.sparse == [2]int{n, k} {
		rows := ws.rankRows
		span = len(rows)
		wipe = func(_, lo, hi int) {
			for wi := lo; wi < hi; wi++ {
				for m := rows[wi]; m != 0; m &= m - 1 {
					vb := (wi<<6 + bits.TrailingZeros64(m)) * k
					clear(ranks[vb : vb+k])
					clear(contrib[vb : vb+k])
				}
			}
		}
	}
	ws.sparse = [2]int{}
	switch {
	case !staleRanks && !staleContrib:
	case pool == nil:
		wipe(0, 0, span)
	default:
		if err := pool.ForStaticCtx(ctx, span, wipe); err != nil {
			return err
		}
	}
	for v, d := range outDeg {
		invDeg[v] = 0
		if d > 0 {
			invDeg[v] = 1 / float64(d)
		}
	}
	return nil
}

// epiGrid returns the engine's epilogue slots, whether it streams an
// epilogue, and the array a dense step's epilogue writes the next
// contributions into: on a streaming engine next, sized to n·k here —
// the streamed contract (spmv.Epilogue.Stream) forbids writing src, and a
// slot's epilogue may run while others still read contrib — which the
// driver swaps with contrib after every successful step, as
// RunPageRankCtx does; contrib itself, in place, elsewhere.
func (ws *PPRWorkspace) epiGrid(e spmv.Stepper, n, k int) (slots int, next []float64, streamed bool) {
	slots, streamed = e.EpiSlots()
	if !streamed {
		return slots, ws.contrib, false
	}
	ws.next, _ = sized(ws.next, n*k)
	return slots, ws.next, true
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

// pprRowAsm selects the AVX2 row op (pprRows8AVX2, pprRows4AVX2) over
// its Go twin pprRows for the plain rows of an 8- or 4-lane sweep. It is
// set once per process from the CPU (spmv.HasAVX2, at init in
// ppr_amd64.go) and read once per range; the tests clear it to run the
// twin.
var pprRowAsm bool

// pprSweep is the element-wise half of a PPR iteration — damping, the
// teleport, per-lane L1 delta, next contributions, next dangling mass —
// over the arrays of one run. The teleport is K (row, mass) pairs, lane
// j's mass going to row sources[j], not a dense n×K vector of which K
// elements are non-zero: a range is swept plain and cut at its source
// rows.
type pprSweep struct {
	k            int
	damping      float64
	redistribute bool

	ranks, sums, contrib, invDeg []float64
	outDeg                       []int

	// sources[j] is lane j's row, teleport[j] its mass this iteration
	// (the orchestrator rewrites it between Steps; a frozen lane's is 0),
	// srcRows the distinct source rows, ascending.
	sources  []int
	teleport []float64
	srcRows  []int

	// The active-row sets of PPRWorkspace; only activeRows uses them.
	contribRows, rankRows, touched spmv.RowSet
}

// distinctAscending returns the distinct values of rows in ascending
// order, leaving rows as it is.
func distinctAscending(rows []int) []int {
	out := slices.Clone(rows)
	slices.Sort(out)
	return slices.Compact(out)
}

// rows sweeps vertices [lo, hi), accumulating per-lane delta and
// dangling mass into the caller's slices.
//
//ihtl:noalloc
func (p *pprSweep) rows(lo, hi int, delta, dangl []float64) {
	for _, s := range p.srcRows {
		if s >= hi {
			break
		}
		if s < lo {
			continue
		}
		p.plainRows(lo, s, delta, dangl)
		p.row(s, true, delta, dangl)
		lo = s + 1
	}
	p.plainRows(lo, hi, delta, dangl)
}

// plainRows sweeps rows that are nobody's source: nv = d·sums. The dense
// teleport vector made that d·sums + 0.0, which is the same bits: a sum
// that starts at +0.0 is never -0.0, so neither is d times it. The row
// op runs as an AVX2 body at 8 and at 4 lanes where pprRowAsm is set, as
// its Go twin pprRows otherwise. With RedistributeDangling a second pass
// then adds each dangling row's new ranks to dangl, in row order: the
// additions, and so the bits, of adding them as each row is swept.
//
//ihtl:noalloc
func (p *pprSweep) plainRows(lo, hi int, delta, dangl []float64) {
	switch {
	case pprRowAsm && p.k == 8:
		pprRows8AVX2(lo, hi, p.damping, p.sums, p.ranks, p.contrib, p.invDeg, delta)
	case pprRowAsm && p.k == 4:
		pprRows4AVX2(lo, hi, p.damping, p.sums, p.ranks, p.contrib, p.invDeg, delta)
	default:
		pprRows(p.k, lo, hi, p.damping, p.sums, p.ranks, p.contrib, p.invDeg, delta)
	}
	if !p.redistribute {
		return
	}
	k := p.k
	for v := lo; v < hi; v++ {
		if p.outDeg[v] != 0 {
			continue
		}
		for j, nv := range p.ranks[v*k : v*k+k] {
			dangl[j] += nv
		}
	}
}

// pprRows is the row op over rows [lo, hi) of a k-lane sweep: each lane's
// new rank d·sums, the magnitude of its change added to delta[j] in row
// order, the rank stored and its contribution rank·invDeg[v] stored. It
// is the Go twin of the AVX2 bodies (ppr_amd64.s), which do the same
// operations lane for lane, with the same first operands, so the bits —
// NaN payloads included — are this loop's.
//
//ihtl:noalloc
//ihtl:nobce
//ihtl:noescape
func pprRows(k, lo, hi int, d float64, sums, ranks, contrib, invDeg, delta []float64) {
	for v := lo; v < hi; v++ {
		vb := v * k
		inv := unchecked.At(invDeg, v)
		for j := 0; j < k; j++ {
			idx := vb + j
			nv := d * unchecked.At(sums, idx)
			unchecked.AddAt(delta, j, math.Abs(nv-unchecked.At(ranks, idx)))
			unchecked.SetAt(ranks, idx, nv)
			unchecked.SetAt(contrib, idx, nv*inv)
		}
	}
}

// row sweeps one row that may be a source, and whose sums — when summed
// is false, an active-row Step left the row unwritten — may stand for
// all +0.0. It reports whether the row's new rank, and its new
// contribution, hold a lane other than +0.0.
//
//ihtl:noalloc
func (p *pprSweep) row(v int, summed bool, delta, dangl []float64) (rank, contrib bool) {
	k := p.k
	vb := v * k
	inv := p.invDeg[v]
	dangle := p.redistribute && p.outDeg[v] == 0
	var rankBits, contribBits uint64
	for j := 0; j < k; j++ {
		idx := vb + j
		sum := 0.0
		if summed {
			sum = p.sums[idx]
		}
		nv := p.damping * sum
		if p.sources[j] == v {
			nv += p.teleport[j]
		}
		delta[j] += math.Abs(nv - p.ranks[idx])
		p.ranks[idx] = nv
		c := nv * inv
		p.contrib[idx] = c
		if dangle {
			dangl[j] += nv
		}
		rankBits |= math.Float64bits(nv)
		contribBits |= math.Float64bits(c)
	}
	return rankBits != 0, contribBits != 0
}

// activeRows is rows after an active-row Step: it walks only the rows
// the Step wrote or that hold a rank (the orchestrator has added the
// source rows to those), in ascending order, and rewrites their bits in
// rankRows and contribRows. Every row it passes over has all-+0.0 ranks
// and would be given all-+0.0 sums by a dense Step, so rows would store
// what it already holds and add +0.0 — the identity for a sum of
// magnitudes — to delta and dangl: the two sweeps agree bit for bit.
// Ranges meet inside words, hence the atomic word updates.
//
//ihtl:noalloc
func (p *pprSweep) activeRows(lo, hi int, delta, dangl []float64) {
	for wi := lo >> 6; wi<<6 < hi; wi++ {
		mask := spmv.RangeMask(wi, lo, hi)
		summed, ranked := p.touched[wi], p.rankRows.Load(wi)
		walk := (summed | ranked) & mask
		if walk == 0 {
			continue
		}
		var rankBits, contribBits uint64
		for m := walk; m != 0; m &= m - 1 {
			b := uint(bits.TrailingZeros64(m))
			v := wi<<6 + int(b)
			// A written row of all +0.0 sums that holds no rank (so is no
			// source either) stays all +0.0 and moves no delta: a reached
			// row whose active in-neighbours added only +0.0s.
			if ranked>>b&1 == 0 && spmv.SkipZeroLanes(p.sums[v*p.k:v*p.k+p.k]) {
				continue
			}
			rank, contrib := p.row(v, summed>>b&1 != 0, delta, dangl)
			if rank {
				rankBits |= 1 << b
			}
			if contrib {
				contribBits |= 1 << b
			}
		}
		p.rankRows.Put(wi, mask, rankBits)
		p.contribRows.Put(wi, mask, contribBits)
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
