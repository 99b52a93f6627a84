package main

import (
	"context"
	"os"
	"path/filepath"
	"runtime"

	"ihtl"
	"ihtl/internal/analytics"
	"ihtl/internal/core"
	"ihtl/internal/serve"
)

// stepper is any engine's Step: what the per-layer probes time and the
// reference sweep checks.
type stepper interface {
	Step(src, dst []float64)
}

// measureLayers is the traced run's extra work: the per-layer numbers
// that say where an end-to-end metric's time goes. Each probe times a
// layer's public functions from outside; none of it feeds the
// end-to-end metrics, which come from the untraced run.
func measureLayers(r *run, gs *graphState) error {
	sp := r.tr.begin("layers")
	defer func() { r.tr.end(sp, nil) }()

	g, ih, pool := gs.g, gs.eng.IHTL(), gs.pool
	n, edges := g.NumV, float64(g.NumE)
	src, dst := denseSource(n), make([]float64, n)

	stepOf := func(name string, s stepper) (float64, int) {
		return r.probe(name, func() { s.Step(src, dst) })
	}

	// host: the benchmark's own single-thread sweep and a fixed spin,
	// so a slow host can be told from a slow commit.
	sweep := func() float64 { return timeOp(func() { refSweepRows(g, src, dst, 0, n) }) }
	sweeps := []float64{sweep()}
	r.set("host.spin_ms", timeOp(spin)*1e3, 1)
	dispatchS, k := r.probe("sched.Pool.Run", func() { pool.Run(func(int) {}) })
	r.set("sched.dispatch_us", dispatchS*1e6, k)

	// core: phase split of the default engine's Step.
	ce, err := core.NewEngine(ih, pool)
	if err != nil {
		return err
	}
	stepS, _ := stepOf("core.Engine.Step", ce)
	ce.TakeBreakdown()
	steps := 20
	for i := 0; i < steps; i++ {
		ce.Step(src, dst)
	}
	b := ce.TakeBreakdown()
	busy := b.TotalBusy().Seconds()
	flipped := float64(ih.FlippedEdges())
	r.set("core.step.flipped_busy_frac", b.FlippedBusy.Seconds()/busy, steps)
	r.set("core.step.merge_busy_frac", b.MergeBusy.Seconds()/busy, steps)
	r.set("core.step.sparse_busy_frac", b.SparseTotalBusy().Seconds()/busy, steps)
	r.set("core.step.flipped_ns_per_edge", perEdgeNs(b.FlippedBusy.Seconds()+b.MergeBusy.Seconds(), steps, flipped), steps)
	r.set("core.step.sparse_ns_per_edge", perEdgeNs(b.SparseTotalBusy().Seconds(), steps, edges-flipped), steps)
	r.set("core.step.worker_util", busy/(float64(pool.Workers())*b.Wall.Seconds()), steps)
	r.set("core.bytes_per_edge", float64(ce.BytesPerStep())/edges, 0)

	// trace overhead: the same Step blocks with and without a span each.
	per, blocks := blockShape(stepS, r.plan.layerBlock, 0, 2*r.plan.layerBlocks)
	var plain, spanned []float64
	for i := 0; i < blocks; i++ {
		plain = append(plain, timeBlocks(func() { gs.eng.Step(src, dst) }, per, 1)[0])
		spanned = append(spanned, timeOp(func() {
			bsp := r.tr.begin("ihtl.Step block")
			for j := 0; j < per; j++ {
				gs.eng.Step(src, dst)
			}
			r.tr.end(bsp, map[string]any{"calls": per})
		})/float64(per))
	}
	r.set("trace.overhead_frac", median(spanned)/median(plain)-1, blocks)

	// spmv: the pull baseline — the paper's headline, reported, never gated.
	pull, err := ihtl.NewBaselineEngine(g, pool, ihtl.Pull)
	if err != nil {
		return err
	}
	pullS, k := stepOf("spmv.Engine.Step(pull)", pull)
	r.set("spmv.pull_ns_per_edge", pullS*1e9/edges, k)
	if fp, ok := pull.(interface{ BytesPerStep() int64 }); ok {
		r.set("spmv.pull_bytes_per_edge", float64(fp.BytesPerStep())/edges, 0)
	}
	r.set("core.speedup_vs_pull", pullS/stepS, k)
	sweeps = append(sweeps, sweep())

	// core: each engine option's Step, one row per regime.
	options := []struct {
		metric string
		opt    ihtl.EngineOptions
	}{
		{"core.step_phased_ns_per_edge", ihtl.EngineOptions{Phased: true}},
		{"core.step_static_ns_per_edge", ihtl.EngineOptions{StaticFlipped: true}},
		{"core.step_varint_ns_per_edge", ihtl.EngineOptions{BlockEncoding: ihtl.EncodingVarint}},
		{"core.step_pb_ns_per_edge", ihtl.EngineOptions{SparseKernel: ihtl.SparsePB}},
	}
	for _, o := range options {
		e, err := core.NewEngineOpts(ih, pool, o.opt)
		if err != nil {
			return err
		}
		optS, k := stepOf(o.metric, e)
		r.set(o.metric, optS*1e9/edges, k)
	}
	sharded, err := ihtl.NewEngineOpts(nil, g, pool, ihtl.Params{}, ihtl.EngineOptions{Shards: 2})
	if err != nil {
		return err
	}
	shardS, k := stepOf("core.step_shards2_ns_per_edge", sharded)
	r.set("core.step_shards2_ns_per_edge", shardS*1e9/edges, k)

	// core + analytics: the batch kernels beside the scalar ones.
	b1s, b1d := ihtl.NewBatch(n, 1), ihtl.NewBatch(n, 1)
	copy(b1s.Data, src)
	k1S, k := r.probe("ihtl.Engine.StepBatch(k=1)", func() { gs.eng.StepBatch(b1s, b1d) })
	r.set("core.stepbatch_k1_ns_per_edge", k1S*1e9/edges, k)
	b8s, b8d := ihtl.NewBatch(n, pprLanes), ihtl.NewBatch(n, pprLanes)
	for i := range b8s.Data {
		b8s.Data[i] = 1 / float64(n)
	}
	k8S, k := r.probe("ihtl.Engine.StepBatch(k=8)", func() { gs.eng.StepBatch(b8s, b8d) })
	r.set("core.stepbatch_k8_ns_per_edge_lane", k8S*1e9/edges/pprLanes, k)
	r.set("analytics.ppr8_lane_gain", pprLanes*stepS/k8S, k)
	sources := pickSources(g, pprLanes)
	pprS, k := r.probe("ihtl.PersonalizedPageRank", func() {
		_, err = ihtl.PersonalizedPageRank(gs.eng, pool, sources, ihtl.PageRankOptions{MaxIters: pprIters, Tol: -1})
	})
	if err != nil {
		return err
	}
	r.set("analytics.ppr8_iter_ms", pprS/pprIters*1e3, k)

	// analytics: what PageRank adds around its Steps. The Step is probed
	// again on both sides of the PageRank, so one host state covers both.
	stepBefore, _ := stepOf("core.Engine.Step", ce)
	var res analytics.PageRankResult
	prS, k := r.probe("analytics.RunPageRank", func() {
		res, err = analytics.RunPageRank(ce, ih.OutDegrees(), pool, analytics.PageRankOptions{})
	})
	if err != nil {
		return err
	}
	stepAfter, _ := stepOf("core.Engine.Step", ce)
	r.set("analytics.pagerank_iters", float64(res.Iters), 0)
	r.set("analytics.pagerank_iter_ms", prS/float64(res.Iters)*1e3, k)
	r.set("analytics.pagerank_overhead_frac", 1-float64(res.Iters)*(stepBefore+stepAfter)/2/prS, k)
	sweeps = append(sweeps, sweep())
	r.set("host.ref_sweep_ns_per_edge", median(sweeps)*1e9/edges, len(sweeps))

	// core + serve: the engine file — written, mapped, and opened by a daemon.
	path := filepath.Join(r.cfg.outDir, "layers-"+r.cfg.workload+".ihtl2")
	defer os.Remove(path)
	if err := measureEngineFile(r, ih, path, edges); err != nil {
		return err
	}

	// cache: the locality claim as a count, where one simulated
	// iteration is affordable.
	if g.NumE <= r.plan.simMaxEdges {
		ssp := r.tr.begin("ihtl.Simulate*Locality")
		cfg := ihtl.ScaledCacheConfig(simScale)
		pullSim, _ := ihtl.SimulatePullLocality(g, cfg)
		ihtlSim, _, err := ihtl.SimulateIHTLLocality(g, cfg)
		r.tr.end(ssp, nil)
		if err != nil {
			return err
		}
		r.set("cache.sim_pull_l2_miss_rate", pullSim.L2.MissRate(), 0)
		r.set("cache.sim_ihtl_l2_miss_rate", ihtlSim.L2.MissRate(), 0)
	}
	r.set("host.peak_rss_mb", residentMB("VmHWM"), 0)
	return nil
}

// simScale divides the Xeon geometry so its L2 (1 MiB / 16 = 64 KiB)
// stands to a scale-14 graph's vertex data (99 KB) roughly as this
// host's 2 MiB L2 stands to social-flipped's.
const simScale = 16

// measureEngineFile times the v2 engine file's write path and both
// ways it is opened.
func measureEngineFile(r *run, ih *ihtl.IHTL, path string, edges float64) error {
	var err error
	sp := r.tr.begin("core.IHTL.SaveFileV2")
	r.set("core.save_v2_s", timeOp(func() { err = ih.SaveFileV2(path) }), 1)
	r.tr.end(sp, nil)
	if err != nil {
		return err
	}
	st, err := os.Stat(path)
	if err != nil {
		return err
	}
	r.set("core.file_bytes_per_edge", float64(st.Size())/edges, 0)

	var ef *ihtl.EngineFile
	sp = r.tr.begin("ihtl.OpenEngineFile")
	r.set("core.open_v2_ms", timeOp(func() { ef, err = ihtl.OpenEngineFile(path) })*1e3, 1)
	r.tr.end(sp, nil)
	if err != nil {
		return err
	}
	if err := ef.Close(); err != nil {
		return err
	}

	var s *serve.Server
	sp = r.tr.begin("serve.New")
	r.set("serve.open_ms", timeOp(func() { s, err = serve.New(serve.Config{EnginePath: path, Workers: r.cfg.workers}) })*1e3, 1)
	r.tr.end(sp, nil)
	if err != nil {
		return err
	}
	if err := s.Drain(context.Background()); err != nil {
		return err
	}
	return s.Close()
}

// probe returns the median seconds of one call of fn, and the number
// of samples behind it. A short operation gets three untimed calls (a
// new engine's buffers fault in over its first Steps) and is timed in
// plan.layerBlocks blocks of about plan.layerBlock; one longer than a
// block gets one untimed call and is timed alone, as often as
// plan.layerBudget allows but at least twice.
func (r *run) probe(name string, fn func()) (seconds float64, samples int) {
	sp := r.tr.begin(name)
	runtime.GC() // not in the middle of a block
	first := timeOp(fn)
	per := max(1, int(r.plan.layerBlock.Seconds()/first))
	if first < r.plan.layerBlock.Seconds() {
		fn()
		fn()
	}
	samples = min(max(2, int(r.plan.layerBudget/(float64(per)*first))), r.plan.layerBlocks)
	seconds = median(timeBlocks(fn, per, samples))
	r.tr.end(sp, map[string]any{"calls": 1 + per*samples})
	return seconds, samples
}

func perEdgeNs(seconds float64, steps int, edges float64) float64 {
	if edges == 0 {
		return 0
	}
	return seconds * 1e9 / float64(steps) / edges
}

// spin is a fixed amount of dependent integer work.
func spin() {
	x := uint64(1)
	for i := 0; i < 50_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	spinSink = x
}

var spinSink uint64
