package main

import (
	"cmp"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"time"

	"ihtl"
	"ihtl/internal/analytics"
	"ihtl/internal/core"
)

// Tolerances of the correctness checks.
const (
	stepTol  = 1e-9 // max relative error of one Step against the reference sweep
	rankTol  = 1e-6 // L1 distance of PageRank / PPR ranks to the reference
	pprIters = 10   // ppr8_s runs {MaxIters: 10, Tol: -1}
	pprLanes = 8
)

// graphState is a workload's graph after set-up.
type graphState struct {
	pool     *ihtl.Pool
	g        *ihtl.Graph
	eng      *ihtl.Engine
	rawEdges int // length of the generated edge list
}

// runGraph is one pass of a library workload: set-ups, then the ladder
// Step → PageRank → PersonalizedPageRank on the engine the last
// set-up left, then (traced) the per-layer probes.
func runGraph(r *run, w *workload) error {
	pool := ihtl.NewPool(r.cfg.workers)
	defer pool.Close()
	gs, setupS, err := setupGraph(r, w, pool, r.plan.minSetups, r.plan.maxSetups)
	if err != nil {
		return err
	}
	r.set("setup_s", median(setupS), len(setupS))
	r.set("rss_mb", residentMB("VmRSS"), 0)

	sp := r.tr.begin("measure")
	defer func() { r.tr.end(sp, nil) }()
	if err := measureLadder(r, gs); err != nil {
		return err
	}
	if r.tr.on() {
		return measureLayers(r, gs)
	}
	return nil
}

// setupGraph obtains the workload's edge list and runs the set-up the
// user pays — edge list → CSR/CSC → iHTL engine — at least minTimes,
// and on up to maxTimes while the set-ups fit plan.setupBudget,
// keeping the last. It returns the seconds of each set-up; the edge
// list is dropped and the heap returned to the OS before it returns,
// so the resident set read next is the steady state.
func setupGraph(r *run, w *workload, pool *ihtl.Pool, minTimes, maxTimes int) (*graphState, []float64, error) {
	sp := r.tr.begin("setup")
	defer func() { r.tr.end(sp, nil) }()

	key, generate := w.input(r.cfg.seed, r.cfg.smoke)
	gsp := r.tr.begin("gen.edges")
	el, hit := loadEdges(r.cfg.cacheDir, key)
	if !hit {
		var err error
		genS := timeOp(func() { el, err = generate(pool) })
		if err != nil {
			return nil, nil, err
		}
		r.set("gen.edges_s", genS, 1)
		if err := storeEdges(r.cfg.cacheDir, key, el); err != nil {
			return nil, nil, fmt.Errorf("edge cache: %w", err)
		}
	}
	r.tr.end(gsp, map[string]any{"cache_hit": hit, "edges": len(el.edges)})

	gs := &graphState{pool: pool, rawEdges: len(el.edges)}
	var totalS, buildS, engineS []float64
	var spent float64
	for len(totalS) < minTimes || (len(totalS) < maxTimes && spent+median(totalS) <= r.plan.setupBudget) {
		gs.g, gs.eng = nil, nil
		runtime.GC() // the previous set-up's graph is garbage; collect it outside the timing
		var err error
		bsp := r.tr.begin("ihtl.BuildGraphOn")
		b := timeOp(func() { gs.g, err = ihtl.BuildGraphOn(pool, el.numV, el.edges) })
		r.tr.end(bsp, nil)
		if err != nil {
			return nil, nil, err
		}
		esp := r.tr.begin("ihtl.NewEngine")
		e := timeOp(func() { gs.eng, err = ihtl.NewEngine(gs.g, pool, ihtl.Params{}) })
		if err != nil {
			return nil, nil, err
		}
		r.tr.end(esp, map[string]any{"core.Build_ns": gs.eng.IHTL().BuildStats().Wall.Nanoseconds()})
		buildS, engineS, totalS, spent = append(buildS, b), append(engineS, e), append(totalS, b+e), spent+b+e
	}
	times := len(totalS)
	r.did(times)

	ih := gs.eng.IHTL()
	bs := ih.BuildStats()
	r.set("graph.vertices", float64(gs.g.NumV), 0)
	r.set("graph.edges", float64(gs.g.NumE), 0)
	r.set("graph.build_s", median(buildS), times)
	r.set("graph.build_medges_per_s", float64(gs.rawEdges)/median(buildS)/1e6, times)
	r.set("core.build_s", bs.Wall.Seconds(), 1)
	r.set("core.build.rank_s", bs.Rank.Seconds(), 1)
	r.set("core.build.select_s", bs.Select.Seconds(), 1)
	r.set("core.build.relabel_s", bs.Relabel.Seconds(), 1)
	r.set("core.build.blocks_s", bs.Blocks.Seconds(), 1)
	r.set("core.build.worker_util", (bs.RankBusy+bs.RelabelBusy+bs.BlocksBusy).Seconds()/(float64(pool.Workers())*bs.Wall.Seconds()), 1)
	r.set("core.engine_new_s", engineS[times-1]-bs.Wall.Seconds(), 1) // the kept set-up, whose build bs describes
	st := ih.Stats(gs.g)
	r.set("core.hubs", float64(st.NumHubs), 0)
	r.set("core.blocks", float64(st.NumBlocks), 0)
	r.set("core.flipped_edge_frac", st.FlippedEdgeFrac, 0)

	el = edgeList{}
	runtime.GC()
	debug.FreeOSMemory()
	return gs, totalS, nil
}

// residentMB reads a resident-set line (VmRSS, VmHWM) of this process
// from /proc/self/status, in MB; 0 where /proc is not there.
func residentMB(field string) float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == field+":" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// denseSource is the Step input the timings use: 1/n everywhere. The
// engines skip zero sources, so a sparse vector would time less work.
func denseSource(n int) []float64 {
	src := make([]float64, n)
	for i := range src {
		src[i] = 1 / float64(n)
	}
	return src
}

// pickSources returns the k vertices of highest out-degree (lowest ID
// first among equals). The engines skip zero sources, so the work of
// ten PPR iterations depends on how fast the sources' mass spreads:
// from seeded arbitrary pages of the web graph it varied by 40 %
// between seeds, from the best-connected ones it does not. The sources
// still follow from the seed, through the graph it generates.
func pickSources(g *ihtl.Graph, k int) []ihtl.VID {
	order := make([]ihtl.VID, g.NumV)
	for v := range order {
		order[v] = ihtl.VID(v)
	}
	slices.SortFunc(order, func(a, b ihtl.VID) int {
		return cmp.Or(cmp.Compare(g.OutDegree(b), g.OutDegree(a)), cmp.Compare(a, b))
	})
	return order[:k]
}

// checkStep compares one Step of an engine over ih, taken through the
// relabeling, with the reference sweep on the original graph.
func checkStep(r *run, g *ihtl.Graph, ih *ihtl.IHTL, eng stepper) {
	n := g.NumV
	x := make([]float64, n)
	for v := range x {
		x[v] = float64(1+v%13) / float64(n) // not uniform, so a wrong permutation shows
	}
	xNew, yNew, got, want := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
	ih.PermuteToNew(x, xNew)
	eng.Step(xNew, yNew)
	ih.PermuteToOld(yNew, got)
	refSweep(g, x, want, r.cfg.workers)
	err := maxRelErr(got, want)
	r.op(1, err <= stepTol, "Step differs from the reference sweep: max relative error %.3g > %g", err, stepTol)
}

// hostRef times the frozen reference sweep on the workload's own
// graph, right beside the operation it normalises. On the host the
// benchmark was built on, a neighbour's memory traffic slows every
// memory-bound operation by 15–40 % for minutes at a time (an ALU-bound
// spin does not move), so raw times from ten passes spread 13–28 %. The
// sweep slows with them: the ratio of an operation to the sweeps that
// traverse as many edges spreads about 3 %. The end-to-end ladder
// metrics are therefore these ratios; the raw times stay per-layer.
type hostRef struct {
	g        *ihtl.Graph
	src, dst []float64
	workers  int
	reps     int // sweeps per reading
}

// newHostRef sizes a reading to last about `reading` (one sweep at least).
func newHostRef(g *ihtl.Graph, workers int, reading time.Duration) *hostRef {
	h := &hostRef{g: g, src: denseSource(g.NumV), dst: make([]float64, g.NumV), workers: workers, reps: 1}
	h.reps = max(1, int(reading.Seconds()/h.sweepSeconds(1)))
	return h
}

// sweepSeconds is the wall time of one whole-graph reference sweep on
// `workers` goroutines, now, averaged over `readings` readings.
func (h *hostRef) sweepSeconds(readings int) float64 {
	return timeBlocks(func() { refSweep(h.g, h.src, h.dst, h.workers) }, h.reps*readings, 1)[0]
}

// measureLadder times the three rungs the end-to-end metrics name and
// checks each against its reference.
func measureLadder(r *run, gs *graphState) error {
	n, edges := gs.g.NumV, float64(gs.g.NumE)
	src, dst := denseSource(n), make([]float64, n)
	step := func() { gs.eng.Step(src, dst) }
	ref := newHostRef(gs.g, r.cfg.workers, r.plan.refReading)

	checkStep(r, gs.g, gs.eng.IHTL(), gs.eng)
	measureSteps(r, "ihtl.Step blocks", step, ref, r.plan.stepBlock, r.plan.stepShare, edges)

	// PageRank to the default tolerance, ranks in original IDs.
	var ranks []float64
	var err error
	prS, prRef := timeReps(r, "ihtl.PageRank", r.plan.prShare, ref, func() {
		if err == nil {
			ranks, err = ihtl.PageRank(gs.eng, gs.pool, ihtl.PageRankOptions{})
		}
	})
	if err != nil {
		return err
	}
	want, wantIters := refPageRank(gs.g, 1e-9, 100, r.cfg.workers)
	d := l1Dist(ranks, want)
	r.op(len(prS), d <= rankTol, "PageRank is L1 %.3g from the reference (> %g)", d, rankTol)
	// The public PageRank does not return its iteration count; the
	// analytics driver underneath it does, on an engine over the same
	// iHTL graph.
	ce, err := core.NewEngine(gs.eng.IHTL(), gs.pool)
	if err != nil {
		return err
	}
	res, err := analytics.RunPageRank(ce, gs.eng.IHTL().OutDegrees(), gs.pool, analytics.PageRankOptions{})
	if err != nil {
		return err
	}
	r.op(1, abs(res.Iters-wantIters) <= 1, "PageRank took %d iterations, the reference %d", res.Iters, wantIters)
	r.set("analytics.pagerank_iters", float64(res.Iters), 0)
	r.set("pagerank_s", median(prS), len(prS))
	r.set("pagerank_vs_ref", medianRatio(prS, prRef, float64(res.Iters)), len(prS))

	// Eight personalized PageRanks in one batch.
	sources := pickSources(gs.g, pprLanes)
	var lanes [][]float64
	pprS, pprRef := timeReps(r, "ihtl.PersonalizedPageRank", r.plan.pprShare, ref, func() {
		if err == nil {
			lanes, err = ihtl.PersonalizedPageRank(gs.eng, gs.pool, sources, ihtl.PageRankOptions{MaxIters: pprIters, Tol: -1})
		}
	})
	if err != nil {
		return err
	}
	r.set("ppr8_s", median(pprS), len(pprS))
	r.set("ppr8_vs_ref", medianRatio(pprS, pprRef, pprLanes*pprIters), len(pprS))
	ok := true
	for _, j := range []int{0, pprLanes - 1} {
		if d := l1Dist(lanes[j], refPPR(gs.g, sources[j], pprIters, r.cfg.workers)); d > rankTol {
			ok = false
			r.notes = append(r.notes, fmt.Sprintf("PPR lane %d is L1 %.3g from the reference (> %g)", j, d, rankTol))
		}
	}
	r.op(len(pprS), ok, "PersonalizedPageRank differs from the reference")
	return nil
}

// measureSteps times blocks of an engine's Step, a reference reading
// after each, and reports step_ns_per_edge and step_vs_ref. Three
// untimed Steps come first; they also fill the caches.
func measureSteps(r *run, span string, step func(), ref *hostRef, block time.Duration, share, edges float64) {
	warm := timeBlocks(step, 1, 3)
	reading := ref.sweepSeconds(1) * float64(ref.reps)
	per, blocks := blockShape(slices.Min(warm), block, share*r.cfg.seconds*block.Seconds()/(block.Seconds()+reading), r.plan.minBlocks)
	sp := r.tr.begin(span)
	stepS, refS := make([]float64, blocks), make([]float64, blocks)
	for b := range stepS {
		stepS[b] = timeBlocks(step, per, 1)[0]
		refS[b] = ref.sweepSeconds(1)
	}
	r.tr.end(sp, map[string]any{"calls": per * blocks, "blocks": blocks})
	r.did(blocks)
	r.set("step_ns_per_edge", median(stepS)*1e9/edges, blocks)
	r.set("step_vs_ref", medianRatio(stepS, refS, 1), blocks)
}

// medianRatio is the median over samples of op[i] ÷ (sweeps × ref[i]):
// an operation's time relative to the reference sweeps that traverse
// as many edges, each pair taken at the same moment.
func medianRatio(op, ref []float64, sweeps float64) float64 {
	ratios := make([]float64, len(op))
	for i := range op {
		ratios[i] = op[i] / (sweeps * ref[i])
	}
	return median(ratios)
}

// timeReps repeats a long operation until its share of --seconds is
// spent, at least plan.minOps times, one span each. It returns the
// seconds of each repetition and, for each, the mean of the reference
// readings taken just before and just after it.
func timeReps(r *run, name string, share float64, ref *hostRef, fn func()) (ops, refs []float64) {
	var spent float64
	const readings = 4 // a repetition is long and there are few: read the reference longer
	before := ref.sweepSeconds(readings)
	for len(ops) < r.plan.minOps || spent+spent/float64(len(ops)) <= share*r.cfg.seconds {
		sp := r.tr.begin(name)
		s := timeOp(fn)
		r.tr.end(sp, nil)
		after := ref.sweepSeconds(readings)
		ops, refs, spent = append(ops, s), append(refs, (before+after)/2), spent+s+after*float64(ref.reps*readings)
		before = after
	}
	return ops, refs
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
