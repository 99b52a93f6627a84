package analytics

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"ihtl/internal/core"
	"ihtl/internal/faultinject"
	"ihtl/internal/graph"
	"ihtl/internal/sched"
	"ihtl/internal/spmv"
)

// recoveryEngine is the engine the fault-recovery scenarios run on: a
// flipped-block iHTL engine that balances its flipped tasks statically
// (so a replayed iteration lands on the same bits as the first) with
// the numeric watchdog armed in rollback mode. It returns the engine
// and the out-degrees in its vertex order.
func recoveryEngine(tb testing.TB, g *graph.Graph, hubsPerBlock int) (*core.Engine, []int) {
	tb.Helper()
	ih, err := core.Build(g, core.Params{HubsPerBlock: hubsPerBlock})
	if err != nil {
		tb.Fatal(err)
	}
	e, err := core.NewEngineOpts(ih, testPool, core.EngineOptions{
		Health: spmv.HealthPolicy{Mode: spmv.HealthRollback},
	})
	if err != nil {
		tb.Fatal(err)
	}
	deg := make([]int, g.NumV)
	for nv := range deg {
		deg[nv] = g.OutDegree(ih.OldID[nv])
	}
	return e, deg
}

// hitsPerStep counts how often one Step passes the fault site: a
// rule that never fires is armed around a single step.
func hitsPerStep(tb testing.TB, e spmv.Stepper, site faultinject.Site, kind faultinject.Kind) int64 {
	tb.Helper()
	probe := faultinject.NewPlan(faultinject.Rule{Site: site, Kind: kind, After: 1 << 60})
	faultinject.Activate(probe)
	defer faultinject.Deactivate()
	n := e.NumVertices()
	src := make([]float64, n)
	for v := range src {
		src[v] = 1 / float64(n)
	}
	if err := e.StepCtx(nil, src, make([]float64, n), 1, spmv.Epilogue{}); err != nil {
		tb.Fatal(err)
	}
	return probe.Hits(site)
}

// pageRankCancelResume cancels a run from its checkpoint callback once
// iteration at has completed, then resumes from that checkpoint.
func pageRankCancelResume(e spmv.Stepper, deg []int, opt PageRankOptions, at int) ([]float64, error) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var ckpt *Checkpoint
	o := opt
	o.CheckpointEvery = 1
	o.OnCheckpoint = func(c *Checkpoint) {
		if c.Iter == at {
			ckpt = c.Clone()
			cancel()
		}
	}
	if _, err := RunPageRankCtx(ctx, e, deg, nil, o); !errors.Is(err, context.Canceled) || ckpt == nil {
		return nil, fmt.Errorf("cancel at iteration %d did not take (err %v)", at, err)
	}
	o = opt
	o.Resume = ckpt
	res, err := RunPageRank(e, deg, nil, o)
	return res.Ranks, err
}

// pageRankNaNRollback poisons the watchdog's scan once, at hit after,
// and lets HealthRollback with per-iteration checkpoints absorb it.
func pageRankNaNRollback(e spmv.Stepper, deg []int, opt PageRankOptions, after int64) ([]float64, error) {
	faultinject.Activate(faultinject.NewPlan(faultinject.Rule{
		Site: faultinject.SiteStepHealth, Kind: faultinject.NaN, After: after, Times: 1,
	}))
	defer faultinject.Deactivate()
	o := opt
	o.CheckpointEvery = 1
	res, err := RunPageRank(e, deg, nil, o)
	if err == nil && res.Rollbacks < 1 {
		err = fmt.Errorf("the NaN at health hit %d never rolled back", after)
	}
	return res.Ranks, err
}

// pageRankPanicRetry panics a worker at flipped-task claim after, which
// must surface as a *sched.PanicError, and then runs the recovery an
// application embedding the engine would: resume from the last
// checkpoint the failed run delivered. It returns the resumed ranks and
// the iteration that checkpoint was taken at.
func pageRankPanicRetry(e spmv.Stepper, deg []int, opt PageRankOptions, after int64) ([]float64, int, error) {
	faultinject.Activate(faultinject.NewPlan(faultinject.Rule{
		Site: faultinject.SiteFlippedTask, Kind: faultinject.Panic, After: after, Times: 1,
	}))
	defer faultinject.Deactivate()
	var ckpt *Checkpoint
	o := opt
	o.CheckpointEvery = 1
	o.OnCheckpoint = func(c *Checkpoint) { ckpt = c.Clone() }
	_, err := RunPageRank(e, deg, nil, o)
	var perr *sched.PanicError
	if !errors.As(err, &perr) || ckpt == nil {
		return nil, 0, fmt.Errorf("the panic at task claim %d did not surface a PanicError (err %v)", after, err)
	}
	o = opt
	o.Resume = ckpt
	res, err := RunPageRank(e, deg, nil, o)
	return res.Ranks, ckpt.Iter, err
}

// TestPageRankPanicThenResume: a worker panic in the middle of a
// PageRank iteration fails the run with a *sched.PanicError, leaves the
// engine usable, and a resume from the last checkpoint reaches the
// clean run's ranks bit for bit.
func TestPageRankPanicThenResume(t *testing.T) {
	g := mustRMAT(t, 10, 8, 83)
	e, deg := recoveryEngine(t, g, 64)
	opt := PageRankOptions{MaxIters: 20, Tol: -1}
	clean, err := RunPageRank(e, deg, nil, opt)
	if err != nil {
		t.Fatal(err)
	}
	tasks := hitsPerStep(t, e, faultinject.SiteFlippedTask, faultinject.Panic)
	if tasks < 2 {
		t.Fatalf("%d flipped tasks per step: the panic needs one mid-step", tasks)
	}
	// Halfway through the flipped tasks of the eighth iteration.
	const failIter = 7
	ranks, ckptIter, err := pageRankPanicRetry(e, deg, opt, failIter*tasks+tasks/2)
	if err != nil {
		t.Fatal(err)
	}
	if ckptIter != failIter {
		t.Fatalf("resumed from iteration %d, want %d", ckptIter, failIter)
	}
	if !bitsEqual(ranks, clean.Ranks) {
		t.Fatal("panic + resume did not reproduce the clean run")
	}
}

// BenchmarkFaultRecovery times a fixed 20-iteration PageRank on a
// scale-16 R-MAT under the fault-tolerance machinery: clean,
// checkpointing every iteration, and three faults at iteration 7 with
// their recovery — cancel and resume, a NaN absorbed by
// HealthRollback, a worker panic retried from the last checkpoint.
// A row's ns/op against clean's is that scenario's end-to-end cost,
// and every row's ranks must equal the clean run's bit for bit.
func BenchmarkFaultRecovery(b *testing.B) {
	g := mustRMAT(b, 16, 8, 99)
	e, deg := recoveryEngine(b, g, 2048)
	opt := PageRankOptions{MaxIters: 20, Tol: -1}
	const failIter = 7
	clean, err := RunPageRank(e, deg, nil, opt)
	if err != nil {
		b.Fatal(err)
	}
	health := hitsPerStep(b, e, faultinject.SiteStepHealth, faultinject.NaN)
	tasks := hitsPerStep(b, e, faultinject.SiteFlippedTask, faultinject.Panic)
	for _, sc := range []struct {
		name string
		run  func() ([]float64, error)
	}{
		{"clean", func() ([]float64, error) {
			res, err := RunPageRank(e, deg, nil, opt)
			return res.Ranks, err
		}},
		{"checkpointed", func() ([]float64, error) {
			o := opt
			o.CheckpointEvery = 1
			res, err := RunPageRank(e, deg, nil, o)
			return res.Ranks, err
		}},
		{"cancel-resume", func() ([]float64, error) {
			return pageRankCancelResume(e, deg, opt, failIter)
		}},
		{"nan-rollback", func() ([]float64, error) {
			return pageRankNaNRollback(e, deg, opt, failIter*health)
		}},
		{"panic-retry", func() ([]float64, error) {
			ranks, _, err := pageRankPanicRetry(e, deg, opt, failIter*tasks+tasks/2)
			return ranks, err
		}},
	} {
		b.Run(sc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ranks, err := sc.run()
				if err != nil {
					b.Fatal(err)
				}
				if !bitsEqual(ranks, clean.Ranks) {
					b.Fatal("recovered ranks differ from the clean run's")
				}
			}
		})
	}
}
