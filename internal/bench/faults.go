package bench

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"time"

	"ihtl/internal/analytics"
	"ihtl/internal/core"
	"ihtl/internal/faultinject"
	"ihtl/internal/sched"
	"ihtl/internal/spmv"
)

// FaultDataset is the fault-recovery smoke dataset: the scale-16
// R-MAT (a scale-12 stand-in under -small, matching CI's budget).
func FaultDataset(small bool) *Dataset {
	if small {
		return rmatDS("rmat12f", "fault-recovery smoke (small)", 12, 8, 99)
	}
	return rmatDS("rmat16f", "fault-recovery smoke", 16, 8, 99)
}

// FaultScenarios lists the scenario IDs RunFaultsJSON measures, in
// report order. Each row times a full fixed-iteration PageRank;
// comparing a recovery row's ns_per_step against pagerank-clean gives
// that fault's end-to-end recovery overhead.
func FaultScenarios() []string {
	return []string{
		"pagerank-clean",
		"pagerank-checkpointed",
		"pagerank-cancel-resume",
		"pagerank-nan-rollback",
		"pagerank-panic-retry",
	}
}

// RunFaultsJSON measures PageRank wall time on the fused iHTL engine
// under the fault-tolerance machinery: clean, checkpointing-only, and
// three seeded fault-and-recover scenarios (mid-run cancel + resume, a
// NaN absorbed by HealthRollback, a worker panic retried from the last
// checkpoint). Faults land at seed-derived iterations via the
// deterministic injection harness, so a given (dataset, seed) run is
// reproducible. Every recovered run's ranks are checked against the
// clean run before its row is emitted — a scenario that "recovers"
// into wrong results fails the whole report.
func RunFaultsJSON(env *Env, d *Dataset, seed uint64) (*StepReport, error) {
	g, err := d.Load()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", d.Name, err)
	}
	ih, err := core.BuildWith(g, env.ihtlParams(), env.Pool)
	if err != nil {
		return nil, err
	}
	e, err := core.NewEngine(ih, env.Pool)
	if err != nil {
		return nil, err
	}
	he, err := core.NewEngineOpts(ih, env.Pool, core.EngineOptions{
		Health: spmv.HealthPolicy{Mode: spmv.HealthRollback},
	})
	if err != nil {
		return nil, err
	}
	deg := make([]int, g.NumV)
	for nv := 0; nv < g.NumV; nv++ {
		deg[nv] = g.OutDegree(ih.OldID[nv])
	}

	// Enough iterations that a mid-run fault has room on both sides.
	iters := 4 * env.Iters
	if iters < 8 {
		iters = 8
	}
	// faultIter is the seed-derived iteration the fault lands in.
	faultIter := 1 + faultinject.SeededAfter(seed, "bench.fault-iter", int64(iters-2))
	opts := func() analytics.PageRankOptions {
		return analytics.PageRankOptions{MaxIters: iters, Tol: -1}
	}

	rep := &StepReport{
		Workers:    env.Pool.Workers(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Iters:      iters,
		Host:       CollectHost(env.Pool.Workers()),
	}
	emit := func(scenario string, elapsed time.Duration) {
		ns := elapsed.Nanoseconds() / int64(iters)
		rep.Results = append(rep.Results, StepResult{
			Dataset:   d.Name,
			Kernel:    scenario,
			Vertices:  g.NumV,
			Edges:     g.NumE,
			NsPerStep: ns,
			NsPerEdge: float64(ns) / float64(g.NumE),
		})
	}

	// pagerank-clean: the baseline every recovery row is read against.
	start := time.Now()
	clean, err := analytics.RunPageRankCtx(nil, e, deg, env.Pool, opts())
	if err != nil {
		return nil, fmt.Errorf("pagerank-clean: %w", err)
	}
	emit("pagerank-clean", time.Since(start))
	verify := func(scenario string, ranks []float64) error {
		for v := range clean.Ranks {
			if math.Abs(ranks[v]-clean.Ranks[v]) > 1e-9*(1+math.Abs(clean.Ranks[v])) {
				return fmt.Errorf("%s: recovered rank[%d] = %g, clean %g", scenario, v, ranks[v], clean.Ranks[v])
			}
		}
		return nil
	}

	// pagerank-checkpointed: no faults — isolates the per-iteration
	// snapshot cost from the recovery costs below.
	o := opts()
	o.CheckpointEvery = 1
	start = time.Now()
	if _, err := analytics.RunPageRankCtx(nil, e, deg, env.Pool, o); err != nil {
		return nil, fmt.Errorf("pagerank-checkpointed: %w", err)
	}
	emit("pagerank-checkpointed", time.Since(start))

	// pagerank-cancel-resume: cancel at the fault iteration, then
	// resume from the checkpoint taken there; the row times both runs.
	ctx, cancel := context.WithCancel(context.Background())
	var ckpt *analytics.Checkpoint
	o = opts()
	o.CheckpointEvery = 1
	o.OnCheckpoint = func(c *analytics.Checkpoint) {
		if int64(c.Iter) == faultIter {
			ckpt = c.Clone()
			cancel()
		}
	}
	start = time.Now()
	_, rerr := analytics.RunPageRankCtx(ctx, e, deg, env.Pool, o)
	cancel()
	if !errors.Is(rerr, context.Canceled) || ckpt == nil {
		return nil, fmt.Errorf("pagerank-cancel-resume: cancel at iter %d did not take (err %v)", faultIter, rerr)
	}
	o = opts()
	o.Resume = ckpt
	res, err := analytics.RunPageRankCtx(nil, e, deg, env.Pool, o)
	if err != nil {
		return nil, fmt.Errorf("pagerank-cancel-resume: %w", err)
	}
	emit("pagerank-cancel-resume", time.Since(start))
	if err := verify("pagerank-cancel-resume", res.Ranks); err != nil {
		return nil, err
	}

	// pagerank-nan-rollback: poison the health watchdog once, inside
	// the fault iteration; HealthRollback plus per-iteration
	// checkpoints must absorb it. The watchdog's poison hook fires once
	// per scan range, so a one-step probe calibrates hits-per-step.
	probe := faultinject.NewPlan(faultinject.Rule{
		Site: faultinject.SiteStepHealth, Kind: faultinject.NaN, After: 1 << 60,
	})
	faultinject.Activate(probe)
	if err := he.StepCtx(nil, clean.Ranks, make([]float64, g.NumV), 1, spmv.Epilogue{}); err != nil {
		faultinject.Deactivate()
		return nil, fmt.Errorf("health probe: %w", err)
	}
	faultinject.Deactivate()
	healthPerStep := probe.Hits(faultinject.SiteStepHealth)
	o = opts()
	o.CheckpointEvery = 1
	faultinject.Activate(faultinject.NewPlan(faultinject.Rule{
		Site: faultinject.SiteStepHealth, Kind: faultinject.NaN,
		After: faultIter * healthPerStep, Times: 1,
	}))
	start = time.Now()
	res, err = analytics.RunPageRankCtx(nil, he, deg, env.Pool, o)
	faultinject.Deactivate()
	if err != nil {
		return nil, fmt.Errorf("pagerank-nan-rollback: %w", err)
	}
	if res.Rollbacks < 1 {
		return nil, fmt.Errorf("pagerank-nan-rollback: fault at iter %d never rolled back", faultIter)
	}
	emit("pagerank-nan-rollback", time.Since(start))
	if err := verify("pagerank-nan-rollback", res.Ranks); err != nil {
		return nil, err
	}

	// pagerank-panic-retry: kill a worker mid-Step at a seeded flipped-
	// task claim inside the fault iteration, then retry from the last
	// checkpoint at the driver level — the recovery loop an application
	// embedding the engine would run.
	probe = faultinject.NewPlan(faultinject.Rule{
		Site: faultinject.SiteFlippedTask, Kind: faultinject.Panic, After: 1 << 60,
	})
	faultinject.Activate(probe)
	if err := e.StepCtx(nil, clean.Ranks, make([]float64, g.NumV), 1, spmv.Epilogue{}); err != nil {
		faultinject.Deactivate()
		return nil, fmt.Errorf("task probe: %w", err)
	}
	faultinject.Deactivate()
	tasksPerStep := probe.Hits(faultinject.SiteFlippedTask)
	faultinject.Activate(faultinject.NewPlan(faultinject.Rule{
		Site: faultinject.SiteFlippedTask, Kind: faultinject.Panic,
		After: faultIter*tasksPerStep + tasksPerStep/2, Times: 1,
	}))
	start = time.Now()
	ckpt = nil
	o = opts()
	o.CheckpointEvery = 1
	o.OnCheckpoint = func(c *analytics.Checkpoint) { ckpt = c.Clone() }
	res, rerr = analytics.RunPageRankCtx(nil, e, deg, env.Pool, o)
	var perr *sched.PanicError
	if !errors.As(rerr, &perr) || ckpt == nil {
		faultinject.Deactivate()
		return nil, fmt.Errorf("pagerank-panic-retry: fault at iter %d did not surface a PanicError (err %v)", faultIter, rerr)
	}
	o.Resume = ckpt
	o.OnCheckpoint = nil
	o.CheckpointEvery = 0
	res, err = analytics.RunPageRankCtx(nil, e, deg, env.Pool, o)
	faultinject.Deactivate()
	if err != nil {
		return nil, fmt.Errorf("pagerank-panic-retry: retry: %w", err)
	}
	emit("pagerank-panic-retry", time.Since(start))
	if err := verify("pagerank-panic-retry", res.Ranks); err != nil {
		return nil, err
	}
	return rep, nil
}
