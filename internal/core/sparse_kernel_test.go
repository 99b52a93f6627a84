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

// sparseKernels is the ablation matrix: every selectable sparse kernel
// must be bit-for-bit identical to the baseline pull.
var sparseKernels = []SparseKernel{SparsePull, SparsePB}

// TestSparseKernelDifferential pins both sparse kernels — under
// both the fused and the phased pipeline — bit-for-bit against the
// spmv.Pull baseline, across graphs and worker counts. The PB kernel's
// chunk-indexed segments and ascending-chunk drain make its result
// schedule-independent (see sparse.go), so exact equality must hold at
// every worker count.
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
				for _, kernel := range sparseKernels {
					for _, phased := range []bool{false, true} {
						e, err := NewEngineOpts(ih, pool, EngineOptions{
							SparseKernel: kernel, Phased: phased,
						})
						if err != nil {
							t.Fatal(err)
						}
						label := fmt.Sprintf("kernel=%v phased=%v", kernel, phased)
						requireBitIdentical(t, label, want, stepOldSpace(ih, e, src))
						// Second step: cursors, schedulers and barriers must
						// have been left re-armed by the first.
						requireBitIdentical(t, label+" (second step)", want, stepOldSpace(ih, e, src))
					}
				}
			})
		}
	}
}

// TestSparseKernelSignedZero runs the differential with negative values
// and -0.0 sources: the bin phase's SkipZero must keep the PB kernel —
// and the standalone spmv.PropBlocked baseline — bit-identical to pull
// (only +0.0, the additive identity, may be skipped; see signedVec).
func TestSparseKernelSignedZero(t *testing.T) {
	for name, g := range diffGraphs(t) {
		src := signedVec(31, g.NumV)
		pool := sched.NewPool(3)
		defer pool.Close()

		pe, err := spmv.NewEngine(g, pool, spmv.Pull, spmv.Options{})
		if err != nil {
			t.Fatal(err)
		}
		want := make([]float64, g.NumV)
		pe.Step(src, want)

		// Standalone propagation-blocked baseline, including a small
		// bucket width so multi-bucket replay is exercised.
		for _, rows := range []int{0, 512} {
			be, err := spmv.NewEngine(g, pool, spmv.PropBlocked, spmv.Options{BucketRows: rows})
			if err != nil {
				t.Fatal(err)
			}
			got := make([]float64, g.NumV)
			be.Step(src, got)
			requireBitIdentical(t, fmt.Sprintf("%s/prop-blocked rows=%d", name, rows), want, got)
		}

		ih, err := Build(g, Params{HubsPerBlock: 64})
		if err != nil {
			t.Fatal(err)
		}
		for _, kernel := range sparseKernels {
			e, err := NewEngineOpts(ih, pool, EngineOptions{SparseKernel: kernel})
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("%s/kernel=%v", name, kernel)
			requireBitIdentical(t, label, want, stepOldSpace(ih, e, src))
		}
	}
}

// TestSparseKernelBatchDifferential pins StepBatch under every sparse
// kernel bit-for-bit against K scalar Steps of the same engine (which
// the scalar differential pins to pull).
func TestSparseKernelBatchDifferential(t *testing.T) {
	for name, g := range diffGraphs(t) {
		ih, err := Build(g, Params{HubsPerBlock: 64})
		if err != nil {
			t.Fatal(err)
		}
		pool := sched.NewPool(3)
		defer pool.Close()
		for _, kernel := range sparseKernels {
			for _, phased := range []bool{false, true} {
				e, err := NewEngineOpts(ih, pool, EngineOptions{
					SparseKernel: kernel, Phased: phased,
				})
				if err != nil {
					t.Fatal(err)
				}
				for _, k := range []int{2, 4} {
					label := fmt.Sprintf("%s/kernel=%v phased=%v/k%d", name, kernel, phased, k)
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
// of both sparse kernels: after warm-up, neither Step nor a
// stable-width StepBatch allocates.
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
	for _, kernel := range sparseKernels {
		e, err := NewEngineOpts(ih, testPool, EngineOptions{SparseKernel: kernel})
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
			t.Errorf("%v: Step allocates %.1f objects per run, want 0", kernel, allocs)
		}
		if allocs := testing.AllocsPerRun(20, func() { e.StepBatch(bsrc, bdst, k) }); allocs != 0 {
			t.Errorf("%v: StepBatch allocates %.1f objects per run, want 0", kernel, allocs)
		}
	}
}

// TestPropBlockedStepAllocFree pins the standalone spmv baseline the
// same way (its direction list already runs the generic alloc test;
// this one pins the non-default bucket width).
func TestPropBlockedStepAllocFree(t *testing.T) {
	g, err := gen.RMAT(gen.DefaultRMAT(9, 8, 5))
	if err != nil {
		t.Fatal(err)
	}
	pool := sched.NewPool(2)
	defer pool.Close()
	e, err := spmv.NewEngine(g, pool, spmv.PropBlocked, spmv.Options{BucketRows: 1024})
	if err != nil {
		t.Fatal(err)
	}
	src := integerVec(3, g.NumV)
	dst := make([]float64, g.NumV)
	e.Step(src, dst)
	if allocs := testing.AllocsPerRun(10, func() { e.Step(src, dst) }); allocs != 0 {
		t.Errorf("prop-blocked Step allocates %.1f objects per run, want 0", allocs)
	}
}

// TestSparseKernelCancelThenCleanStep drives randomised cancellation
// through both sparse kernels: under the PB kernel's two-phase path
// aborts can land before the bin barrier, inside it, or during the
// drain, and the engine must recover to exact results on the next clean
// step. The barrier's WaitAbort is what makes an abort during phase 1
// release the workers parked on it.
func TestSparseKernelCancelThenCleanStep(t *testing.T) {
	for _, kernel := range sparseKernels {
		e, _ := faultTestEngine(t, EngineOptions{SparseKernel: kernel})
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
				t.Fatalf("%v seed %d: err = %v, want nil or DeadlineExceeded", kernel, seed, err)
			}
			if err := e.StepCtx(nil, src, dst, 1, spmv.Epilogue{}); err != nil {
				t.Fatalf("%v seed %d: clean step: %v", kernel, seed, err)
			}
			wantClose(t, "clean step after cancel", dst, ref)
		}
	}
}

// TestSparseKernelInjectedPanicRecovery injects panics at the PB
// kernel's bin and drain sites and at the pull's sparse-part site: the
// panic must surface as *sched.PanicError unwrapping to
// the injected fault, and the very next clean step must match.
func TestSparseKernelInjectedPanicRecovery(t *testing.T) {
	cases := []struct {
		kernel SparseKernel
		sites  []faultinject.Site
	}{
		{SparsePull, []faultinject.Site{faultinject.SiteSparsePart}},
		{SparsePB, []faultinject.Site{faultinject.SiteSparseBin, faultinject.SiteSparseDrain}},
	}
	for _, tc := range cases {
		e, _ := faultTestEngine(t, EngineOptions{SparseKernel: tc.kernel})
		n := e.NumVertices()
		src := randomSrc(n, 13)
		ref := make([]float64, n)
		e.Step(src, ref)

		dst := make([]float64, n)
		for _, site := range tc.sites {
			for after := int64(0); after < 3; after++ {
				plan := faultinject.NewPlan(faultinject.Rule{Site: site, Kind: faultinject.Panic, After: after})
				faultinject.Activate(plan)
				err := e.StepCtx(nil, src, dst, 1, spmv.Epilogue{})
				faultinject.Deactivate()
				if plan.Fired(site) == 0 {
					if err != nil {
						t.Fatalf("%v/%s after=%d: err = %v with no fault fired", tc.kernel, site, after, err)
					}
				} else {
					var perr *sched.PanicError
					if !errors.As(err, &perr) {
						t.Fatalf("%v/%s after=%d: err = %v, want *sched.PanicError", tc.kernel, site, after, err)
					}
					var ip *faultinject.InjectedPanic
					if !errors.As(err, &ip) || ip.Site != site {
						t.Fatalf("%v/%s after=%d: PanicError does not unwrap to the injected fault: %v", tc.kernel, site, after, err)
					}
				}
				if err := e.StepCtx(nil, src, dst, 1, spmv.Epilogue{}); err != nil {
					t.Fatalf("%v/%s after=%d: clean step: %v", tc.kernel, site, after, err)
				}
				wantClose(t, "clean step after injected panic", dst, ref)
			}
		}
	}
}

// TestParseSparseKernel pins the flag surface of the ablation.
func TestParseSparseKernel(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want SparseKernel
	}{
		{"", SparsePull}, {"pull", SparsePull}, {"pb", SparsePB},
	} {
		got, err := ParseSparseKernel(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("ParseSparseKernel(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
		if tc.in != "" && got.String() != tc.in {
			t.Fatalf("String round trip: %v -> %q", got, got.String())
		}
	}
	for _, bad := range []string{"bogus", "auto"} {
		if _, err := ParseSparseKernel(bad); err == nil {
			t.Fatalf("ParseSparseKernel accepted %q", bad)
		}
	}
}

// TestSparseKernelBreakdownSplit checks the new clock split: the PB
// kernel reports its busy time under BinBusy/DrainBusy (SparseBusy
// stays zero), the pull under SparseBusy, and both feed
// SparseTotalBusy and TotalBusy.
func TestSparseKernelBreakdownSplit(t *testing.T) {
	g, err := gen.Web(gen.DefaultWeb(4000, 11))
	if err != nil {
		t.Fatal(err)
	}
	ih, err := Build(g, Params{HubsPerBlock: 64})
	if err != nil {
		t.Fatal(err)
	}
	src := integerVec(2, g.NumV)
	dst := make([]float64, g.NumV)

	pb, err := NewEngineOpts(ih, testPool, EngineOptions{SparseKernel: SparsePB})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		pb.Step(src, dst)
	}
	b := pb.TakeBreakdown()
	if b.BinBusy <= 0 || b.DrainBusy <= 0 {
		t.Fatalf("PB clocks not split: bin %v drain %v", b.BinBusy, b.DrainBusy)
	}
	if b.SparseBusy != 0 {
		t.Fatalf("PB kernel charged %v to SparseBusy", b.SparseBusy)
	}
	if b.SparseTotalBusy() != b.BinBusy+b.DrainBusy {
		t.Fatal("SparseTotalBusy does not sum the phase clocks")
	}

	pull, err := NewEngineOpts(ih, testPool, EngineOptions{SparseKernel: SparsePull})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		pull.Step(src, dst)
	}
	b = pull.TakeBreakdown()
	if b.SparseBusy <= 0 {
		t.Fatal("pull recorded no sparse busy time")
	}
	if b.BinBusy != 0 || b.DrainBusy != 0 {
		t.Fatalf("pull kernel charged bin/drain clocks: %v/%v", b.BinBusy, b.DrainBusy)
	}
}
