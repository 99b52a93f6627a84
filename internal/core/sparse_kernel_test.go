package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"ihtl/internal/faultinject"
	"ihtl/internal/gen"
	"ihtl/internal/sched"
	"ihtl/internal/spmv"
)

// TestSparseKernelByGraph: every engine runs the uniform pull, and the
// graph decides only the epilogue's placement —
// streamed over the pull's parts where nothing is flipped, the static
// grid of the workers' shares behind the barrier where something is.
func TestSparseKernelByGraph(t *testing.T) {
	g := residentGraphs(t)["rmat"]
	for _, c := range []struct {
		p      Params
		slots  int
		stream bool
	}{
		{Params{}, 4 * testPool.Workers(), true},
		{Params{HubsPerBlock: flipB}, testPool.Workers(), false},
	} {
		ih, err := Build(g, c.p)
		if err != nil {
			t.Fatal(err)
		}
		e, err := NewEngine(ih, testPool)
		if err != nil {
			t.Fatal(err)
		}
		if slots, streamed := e.EpiSlots(); slots != c.slots || streamed != c.stream {
			t.Errorf("%d flipped blocks: %d slots, streamed %v; want %d, %v",
				len(ih.Blocks), slots, streamed, c.slots, c.stream)
		}
	}
}

// TestSparseKernelAllocationFree pins the zero-allocation steady state
// of the sparse pull: after warm-up, neither Step nor a stable-width
// StepBatch allocates.
func TestSparseKernelAllocationFree(t *testing.T) {
	g, err := gen.RMAT(gen.DefaultRMAT(9, 8, 5))
	if err != nil {
		t.Fatal(err)
	}
	ih, err := Build(g, Params{HubsPerBlock: 64})
	if err != nil {
		t.Fatal(err)
	}
	const k = 4
	e, err := NewEngine(ih, testPool)
	if err != nil {
		t.Fatal(err)
	}
	src := integerVec(3, g.NumV)
	dst := make([]float64, g.NumV)
	bsrc := integerVec(3, g.NumV*k)
	bdst := make([]float64, g.NumV*k)
	for i := 0; i < 3; i++ { // warm worker stacks and the batch state
		e.Step(src, dst)
		e.StepBatch(bsrc, bdst, k)
	}
	if allocs := testing.AllocsPerRun(20, func() { e.Step(src, dst) }); allocs != 0 {
		t.Errorf("Step allocates %.1f objects per run, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(20, func() { e.StepBatch(bsrc, bdst, k) }); allocs != 0 {
		t.Errorf("StepBatch allocates %.1f objects per run, want 0", allocs)
	}
}

// TestSparseKernelCancelThenCleanStep drives randomised cancellation
// through the sparse pull: an abort can land before, during or after
// the parts are claimed, and the engine must recover to exact results
// on the next clean step.
func TestSparseKernelCancelThenCleanStep(t *testing.T) {
	e, _ := faultTestEngine(t, EngineOptions{})
	n := e.NumVertices()
	src := randomSrc(n, 77)
	ref := make([]float64, n)
	e.Step(src, ref)

	dst := make([]float64, n)
	for seed := uint64(0); seed < 12; seed++ {
		to := time.Duration(faultinject.SeededAfter(seed, "test.sparse-cancel", 400)) * time.Microsecond
		ctx, cancel := context.WithTimeout(context.Background(), to)
		err := e.StepCtx(ctx, src, dst, 1, spmv.Epilogue{})
		cancel()
		if err != nil && !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("seed %d: err = %v, want nil or DeadlineExceeded", seed, err)
		}
		if err := e.StepCtx(nil, src, dst, 1, spmv.Epilogue{}); err != nil {
			t.Fatalf("seed %d: clean step: %v", seed, err)
		}
		wantClose(t, "clean step after cancel", dst, ref)
	}
}

// TestSparseKernelInjectedPanicRecovery injects panics at the pull's
// sparse-part site: the panic must surface as *sched.PanicError
// unwrapping to the injected fault, and the very next clean step must
// match.
func TestSparseKernelInjectedPanicRecovery(t *testing.T) {
	const site = faultinject.SiteSparsePart
	e, _ := faultTestEngine(t, EngineOptions{})
	n := e.NumVertices()
	src := randomSrc(n, 13)
	ref := make([]float64, n)
	e.Step(src, ref)

	dst := make([]float64, n)
	for after := int64(0); after < 3; after++ {
		plan := faultinject.NewPlan(faultinject.Rule{Site: site, Kind: faultinject.Panic, After: after})
		faultinject.Activate(plan)
		err := e.StepCtx(nil, src, dst, 1, spmv.Epilogue{})
		faultinject.Deactivate()
		if plan.Fired(site) == 0 {
			if err != nil {
				t.Fatalf("after=%d: err = %v with no fault fired", after, err)
			}
		} else {
			var perr *sched.PanicError
			if !errors.As(err, &perr) {
				t.Fatalf("after=%d: err = %v, want *sched.PanicError", after, err)
			}
			var ip *faultinject.InjectedPanic
			if !errors.As(err, &ip) || ip.Site != site {
				t.Fatalf("after=%d: PanicError does not unwrap to the injected fault: %v", after, err)
			}
		}
		if err := e.StepCtx(nil, src, dst, 1, spmv.Epilogue{}); err != nil {
			t.Fatalf("after=%d: clean step: %v", after, err)
		}
		wantClose(t, "clean step after injected panic", dst, ref)
	}
}

// TestSparseKernelBreakdownSplit checks the phase clocks of a fused
// step: flipped push, merge and sparse pull each record busy time,
// TotalBusy is their sum, and SparseTotalBusy is the pull's SparseBusy.
func TestSparseKernelBreakdownSplit(t *testing.T) {
	g, err := gen.Web(gen.DefaultWeb(4000, 11))
	if err != nil {
		t.Fatal(err)
	}
	ih, err := Build(g, Params{HubsPerBlock: 64})
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(ih, testPool)
	if err != nil {
		t.Fatal(err)
	}
	src := integerVec(2, g.NumV)
	dst := make([]float64, g.NumV)
	for i := 0; i < 3; i++ {
		e.Step(src, dst)
	}
	b := e.TakeBreakdown()
	if b.FlippedBusy <= 0 || b.MergeBusy <= 0 || b.SparseBusy <= 0 {
		t.Fatalf("a phase recorded no busy time: flipped %v merge %v sparse %v", b.FlippedBusy, b.MergeBusy, b.SparseBusy)
	}
	if b.SparseTotalBusy() != b.SparseBusy || b.TotalBusy() != b.FlippedBusy+b.MergeBusy+b.SparseBusy {
		t.Fatal("SparseTotalBusy or TotalBusy does not sum the phase clocks")
	}
	if b.Steps != 3 || b.Wall <= 0 {
		t.Fatalf("%d steps over %v wall; want 3 steps, wall > 0", b.Steps, b.Wall)
	}
}

// TestStepEpiZeroFlipRows is the option matrix over a graph with no
// flipped block, stepped through StepCtx with a streamable epilogue.
// The epilogue checks, when it is called, that its rows [lo, hi)
// already hold the oracle's values — an epilogue run before its rows
// are final fails here, as does a slot run twice or never, or slots
// that do not tile the rows in order. Every engine here streams; an
// epilogue that does not permit streaming stays behind the barrier, so
// there every slot may read all of dst.
func TestStepEpiZeroFlipRows(t *testing.T) {
	g := residentGraphs(t)["rmat"]
	n := g.NumV
	src := integerVec(11, n)
	want := referenceStep(g, src, 1)
	ih, err := Build(g, Params{})
	if err != nil {
		t.Fatal(err)
	}
	requireZeroBlocks(t, "rmat", ih)
	for _, workers := range []int{1, 2, 3} {
		pool := sched.NewPool(workers)
		defer pool.Close()
		for _, opt := range optionMatrix(t, nil) {
			label := fmt.Sprintf("w%d/%s", workers, optLabel(opt))
			e, err := NewEngineOpts(ih, pool, opt)
			if err != nil {
				t.Fatal(err)
			}
			slots, streamed := e.EpiSlots()
			if slots != 4*workers || !streamed {
				t.Fatalf("%s: %d slots, streamed %v; want %d, true", label, slots, streamed, 4*workers)
			}
			for _, barrier := range []bool{false, true} {
				bounds := make([][2]int, slots)
				ran := make([]int, slots)
				early := make([]bool, slots)
				dst := make([]float64, n)
				epi := func(slot, lo, hi int) {
					ran[slot]++
					bounds[slot] = [2]int{lo, hi}
					check, stop := lo, hi
					if barrier {
						check, stop = 0, n // behind the barrier: all of dst is final
					}
					for v := check; v < stop; v++ {
						if math.Float64bits(dst[v]) != math.Float64bits(want[v]) {
							early[slot] = true
						}
					}
				}
				for step := 0; step < 2; step++ {
					clear(ran)
					clear(dst) // so a row read before it is pulled differs
					if err := e.StepCtx(nil, src, dst, 1, spmv.Epilogue{Run: epi, Stream: !barrier}); err != nil {
						t.Fatal(err)
					}
					next := 0
					for p := range slots {
						if ran[p] != 1 || early[p] || bounds[p][0] != next {
							t.Fatalf("%s barrier=%v step %d: slot %d ran %d times over [%d, %d) (next row %d), saw rows not yet final: %v",
								label, barrier, step, p, ran[p], bounds[p][0], bounds[p][1], next, early[p])
						}
						next = bounds[p][1]
					}
					if next != n {
						t.Fatalf("%s barrier=%v: the slots end at row %d of %d", label, barrier, next, n)
					}
					requireBitIdentical(t, label, want, dst)
				}
			}
		}
	}
}

// TestStreamedStepEpiAllocationFree pins the streamed placement's
// steady state, watched and not: the step StepCtx runs in its region,
// with the epilogue inside the sparse claim loop, allocates nothing.
func TestStreamedStepEpiAllocationFree(t *testing.T) {
	ih, err := Build(residentGraphs(t)["rmat"], Params{})
	if err != nil {
		t.Fatal(err)
	}
	for _, opt := range []EngineOptions{{}, {Health: spmv.HealthPolicy{Mode: spmv.HealthRollback}}} {
		e, err := NewEngineOpts(ih, testPool, opt)
		if err != nil {
			t.Fatal(err)
		}
		slots, streamed := e.EpiSlots()
		if !streamed {
			t.Fatalf("%s: the engine does not stream", optLabel(opt))
		}
		src := integerVec(3, ih.NumV)
		dst := make([]float64, ih.NumV)
		sums := make([]float64, slots)
		epi := func(slot, lo, hi int) {
			s := 0.0
			for _, x := range dst[lo:hi] {
				s += x
			}
			sums[slot] = s
		}
		for i := 0; i < 3; i++ { // warm worker stacks
			e.step(src, dst, 1, epi, true)
		}
		if allocs := testing.AllocsPerRun(20, func() { e.step(src, dst, 1, epi, true) }); allocs != 0 {
			t.Errorf("%s: streamed step allocates %.1f objects per run, want 0", optLabel(opt), allocs)
		}
	}
}

// TestFusedStepAllocationFree pins the fused pipeline's zero-allocation
// steady state: after construction, Steps allocate nothing — no
// per-dispatch scheduler, no closures, no WaitGroups.
func TestFusedStepAllocationFree(t *testing.T) {
	g, err := gen.RMAT(gen.DefaultRMAT(9, 8, 5))
	if err != nil {
		t.Fatal(err)
	}
	ih, err := Build(g, Params{HubsPerBlock: 64})
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(ih, testPool)
	if err != nil {
		t.Fatal(err)
	}
	src := integerVec(3, g.NumV)
	dst := make([]float64, g.NumV)
	for i := 0; i < 3; i++ { // warm worker stacks
		e.Step(src, dst)
	}
	if allocs := testing.AllocsPerRun(20, func() { e.Step(src, dst) }); allocs != 0 {
		t.Errorf("fused Step allocates %.1f objects per run, want 0", allocs)
	}
}
