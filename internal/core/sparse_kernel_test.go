package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"ihtl/internal/faultinject"
	"ihtl/internal/gen"
	"ihtl/internal/sched"
	"ihtl/internal/spmv"
)

// TestSparseKernelDifferential pins the sparse pull bit-for-bit against
// the spmv.Pull baseline, across graphs and worker counts, and again on
// a second step: the part scheduler must have been left re-armed by the
// first.
func TestSparseKernelDifferential(t *testing.T) {
	workerCounts := []int{1, 3, runtime.GOMAXPROCS(0)}
	for name, g := range diffGraphs(t) {
		src := integerVec(4321, g.NumV)
		var want []float64
		for _, workers := range workerCounts {
			t.Run(fmt.Sprintf("%s/w%d", name, workers), func(t *testing.T) {
				pool := sched.NewPool(workers)
				defer pool.Close()

				pe, err := spmv.NewEngine(g, pool, spmv.Pull, spmv.Options{})
				if err != nil {
					t.Fatal(err)
				}
				pullDst := make([]float64, g.NumV)
				pe.Step(src, pullDst)
				if want == nil {
					want = pullDst
				} else {
					requireBitIdentical(t, "pull-across-workers", want, pullDst)
				}

				ih, err := Build(g, Params{HubsPerBlock: 64})
				if err != nil {
					t.Fatal(err)
				}
				e, err := NewEngine(ih, pool)
				if err != nil {
					t.Fatal(err)
				}
				requireBitIdentical(t, "pull", want, stepOldSpace(ih, e, src))
				requireBitIdentical(t, "pull (second step)", want, stepOldSpace(ih, e, src))
			})
		}
	}
}

// TestSparseKernelBatchDifferential pins StepBatch bit-for-bit against
// K scalar Steps of the same engine (which the scalar differential pins
// to pull). The kernel and phased axes name the deprecated
// EngineOptions.SparseKernel and Phased values, which no code reads:
// every row steps the one fused pipeline and its pull.
func TestSparseKernelBatchDifferential(t *testing.T) {
	kernels := []struct {
		name   string
		kernel SparseKernel
	}{{"pull", SparsePull}, {"pb", SparsePB}}
	for name, g := range diffGraphs(t) {
		ih, err := Build(g, Params{HubsPerBlock: 64})
		if err != nil {
			t.Fatal(err)
		}
		pool := sched.NewPool(3)
		defer pool.Close()
		for _, kernel := range kernels {
			for _, phased := range []bool{false, true} {
				e, err := NewEngineOpts(ih, pool, EngineOptions{
					SparseKernel: kernel.kernel, Phased: phased,
				})
				if err != nil {
					t.Fatal(err)
				}
				for _, k := range []int{2, 4} {
					label := fmt.Sprintf("%s/kernel=%s phased=%v/k%d", name, kernel.name, phased, k)
					t.Run(label, func(t *testing.T) {
						lanes, src := packLanes(99, ih.NumV, k)
						want := make([][]float64, k)
						for j := 0; j < k; j++ {
							want[j] = make([]float64, ih.NumV)
							e.Step(lanes[j], want[j])
						}
						dst := make([]float64, ih.NumV*k)
						e.StepBatch(src, dst, k)
						got := make([]float64, ih.NumV)
						for j := 0; j < k; j++ {
							for v := 0; v < ih.NumV; v++ {
								got[v] = dst[v*k+j]
							}
							requireBitIdentical(t, fmt.Sprintf("lane %d", j), want[j], got)
						}
					})
				}
			}
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
	_, bsrc := packLanes(3, g.NumV, k)
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
