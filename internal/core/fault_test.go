package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"

	"ihtl/internal/faultinject"
	"ihtl/internal/gen"
	"ihtl/internal/graph"
	"ihtl/internal/sched"
	"ihtl/internal/spmv"
	"ihtl/internal/xrand"
)

// flipB is the B a default build derives, given explicitly — which is
// an instruction to flip. The fixtures that use it, here and in the
// other suites, are far under the resident threshold (Params.resident),
// so a default build of them is one sparse block; with flipB they stay
// the graphs they were before that rule, and the push, merge and
// build-fill fault sites stay live.
const flipB = DefaultL2Bytes / DefaultVertexBytes

func faultTestEngine(t *testing.T, opt EngineOptions) (*Engine, *graph.Graph) {
	t.Helper()
	g, err := gen.RMAT(gen.DefaultRMAT(11, 8, 7))
	if err != nil {
		t.Fatal(err)
	}
	ih, err := BuildWith(g, Params{HubsPerBlock: flipB}, testPool)
	if err != nil {
		t.Fatal(err)
	}
	if ih.NumHubs == 0 || len(ih.Blocks) == 0 {
		t.Fatal("fixture graph selected no hubs; fault sites would be dead")
	}
	e, err := NewEngineOpts(ih, testPool, opt)
	if err != nil {
		t.Fatal(err)
	}
	return e, g
}

func randomSrc(n int, seed uint64) []float64 {
	r := xrand.New(seed)
	src := make([]float64, n)
	for i := range src {
		src[i] = r.Float64()
	}
	return src
}

// wantClose compares an SpMV result against a reference to relative
// 1e-9. Bitwise equality is not the contract here: flipped tasks are
// claimed dynamically, so the per-worker buffer partial-sum grouping
// (and with it the last few bits) varies run to run even without
// faults.
func wantClose(t *testing.T, tag string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", tag, len(got), len(want))
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9*(1+math.Abs(want[i])) {
			t.Fatalf("%s: element %d = %g, want %g", tag, i, got[i], want[i])
		}
	}
}

func TestStepCtxCancelThenCleanStep(t *testing.T) {
	e, _ := faultTestEngine(t, EngineOptions{})
	n := e.NumVertices()
	src := randomSrc(n, 99)
	ref := make([]float64, n)
	e.Step(src, ref)

	dst := make([]float64, n)
	for seed := uint64(0); seed < 12; seed++ {
		// Randomised cancellation point: a seeded wall-clock timeout
		// that lands somewhere inside (or before, or after) the step.
		to := time.Duration(faultinject.SeededAfter(seed, "test.step-cancel", 400)) * time.Microsecond
		ctx, cancel := context.WithTimeout(context.Background(), to)
		err := e.StepCtx(ctx, src, dst, 1, spmv.Epilogue{})
		cancel()
		if err != nil && !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("seed %d: err = %v, want nil or DeadlineExceeded", seed, err)
		}
		// Whatever happened, the engine must be clean: the next
		// uncancelled step matches the reference.
		if err := e.StepCtx(nil, src, dst, 1, spmv.Epilogue{}); err != nil {
			t.Fatalf("seed %d: clean step: %v", seed, err)
		}
		wantClose(t, "clean step after cancel", dst, ref)
	}
}

func TestStepCtxInjectedPanicRecovery(t *testing.T) {
	e, _ := faultTestEngine(t, EngineOptions{})
	n := e.NumVertices()
	src := randomSrc(n, 5)
	ref := make([]float64, n)
	e.Step(src, ref)

	sites := []faultinject.Site{
		faultinject.SiteFlippedTask,
		faultinject.SiteSparsePart,
		faultinject.SiteMergeBlock,
	}
	dst := make([]float64, n)
	for _, site := range sites {
		for after := int64(0); after < 3; after++ {
			plan := faultinject.NewPlan(faultinject.Rule{Site: site, Kind: faultinject.Panic, After: after})
			faultinject.Activate(plan)
			err := e.StepCtx(nil, src, dst, 1, spmv.Epilogue{})
			faultinject.Deactivate()
			if plan.Fired(site) == 0 {
				// The site had fewer than After+1 hits this step (e.g.
				// a single merge); nothing was injected.
				if err != nil {
					t.Fatalf("%s after=%d: err = %v with no fault fired", site, after, err)
				}
			} else {
				var perr *sched.PanicError
				if !errors.As(err, &perr) {
					t.Fatalf("%s after=%d: err = %v, want *sched.PanicError", site, after, err)
				}
				var ip *faultinject.InjectedPanic
				if !errors.As(err, &ip) || ip.Site != site {
					t.Fatalf("%s after=%d: PanicError does not unwrap to the injected fault: %v", site, after, err)
				}
			}
			// Recovery invariant: the very next clean step matches.
			if err := e.StepCtx(nil, src, dst, 1, spmv.Epilogue{}); err != nil {
				t.Fatalf("%s after=%d: clean step: %v", site, after, err)
			}
			wantClose(t, "clean step after injected panic", dst, ref)
		}
	}
}

func TestStepCtxHealthError(t *testing.T) {
	e, _ := faultTestEngine(t, EngineOptions{Health: spmv.HealthPolicy{Mode: spmv.HealthError}})
	n := e.NumVertices()
	src := randomSrc(n, 17)
	dst := make([]float64, n)

	// A clean step passes the watchdog.
	if err := e.StepCtx(nil, src, dst, 1, spmv.Epilogue{}); err != nil {
		t.Fatalf("clean step under watchdog: %v", err)
	}

	faultinject.Activate(faultinject.NewPlan(faultinject.Rule{
		Site: faultinject.SiteStepHealth, Kind: faultinject.NaN, After: 0,
	}))
	err := e.StepCtx(nil, src, dst, 1, spmv.Epilogue{})
	faultinject.Deactivate()
	var nerr *spmv.NumericError
	if !errors.As(err, &nerr) {
		t.Fatalf("err = %v, want *spmv.NumericError", err)
	}
	if nerr.Rollback {
		t.Fatal("HealthError verdict asks for rollback")
	}
	if nerr.Count < 1 {
		t.Fatalf("NumericError.Count = %d, want >= 1", nerr.Count)
	}

	// The plain entrypoint panics with the same verdict.
	faultinject.Activate(faultinject.NewPlan(faultinject.Rule{
		Site: faultinject.SiteStepHealth, Kind: faultinject.NaN, After: 0,
	}))
	func() {
		defer faultinject.Deactivate()
		defer func() {
			if r := recover(); r == nil {
				t.Fatal("plain Step under HealthError did not panic on NaN")
			} else if _, ok := r.(*spmv.NumericError); !ok {
				t.Fatalf("panic value %T, want *spmv.NumericError", r)
			}
		}()
		e.Step(src, dst)
	}()
}

func TestStepCtxHealthClamp(t *testing.T) {
	e, _ := faultTestEngine(t, EngineOptions{Health: spmv.HealthPolicy{Mode: spmv.HealthClamp}})
	n := e.NumVertices()
	src := randomSrc(n, 23)
	dst := make([]float64, n)
	faultinject.Activate(faultinject.NewPlan(faultinject.Rule{
		Site: faultinject.SiteStepHealth, Kind: faultinject.NaN, After: 0,
	}))
	err := e.StepCtx(nil, src, dst, 1, spmv.Epilogue{})
	faultinject.Deactivate()
	if err != nil {
		t.Fatalf("clamp mode surfaced an error: %v", err)
	}
	for i, x := range dst {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			t.Fatalf("dst[%d] = %g survived the clamp", i, x)
		}
	}
}

func TestStepCtxHealthRollbackVerdict(t *testing.T) {
	e, _ := faultTestEngine(t, EngineOptions{Health: spmv.HealthPolicy{Mode: spmv.HealthRollback}})
	n := e.NumVertices()
	src := randomSrc(n, 29)
	dst := make([]float64, n)
	faultinject.Activate(faultinject.NewPlan(faultinject.Rule{
		Site: faultinject.SiteStepHealth, Kind: faultinject.NaN, After: 0,
	}))
	err := e.StepCtx(nil, src, dst, 1, spmv.Epilogue{})
	faultinject.Deactivate()
	var nerr *spmv.NumericError
	if !errors.As(err, &nerr) {
		t.Fatalf("err = %v, want *spmv.NumericError", err)
	}
	if !nerr.Rollback {
		t.Fatal("HealthRollback verdict lacks the Rollback flag")
	}
}

func TestStepBatchCtxPanicRecovery(t *testing.T) {
	e, _ := faultTestEngine(t, EngineOptions{})
	n := e.NumVertices()
	const k = 4
	src := randomSrc(n*k, 41)
	ref := make([]float64, n*k)
	e.StepBatch(src, ref, k)

	dst := make([]float64, n*k)
	plan := faultinject.NewPlan(faultinject.Rule{Site: faultinject.SiteFlippedTask, Kind: faultinject.Panic, After: 1})
	faultinject.Activate(plan)
	err := e.StepCtx(nil, src, dst, k, spmv.Epilogue{})
	faultinject.Deactivate()
	if plan.Fired(faultinject.SiteFlippedTask) == 0 {
		t.Skip("no flipped task claimed before the injection point")
	}
	var perr *sched.PanicError
	if !errors.As(err, &perr) {
		t.Fatalf("err = %v, want *sched.PanicError", err)
	}
	if err := e.StepCtx(nil, src, dst, k, spmv.Epilogue{}); err != nil {
		t.Fatalf("clean batch step: %v", err)
	}
	wantClose(t, "clean batch step after injected panic", dst, ref)
}

func TestBuildWithCtxCancellation(t *testing.T) {
	g, err := gen.RMAT(gen.DefaultRMAT(12, 8, 3))
	if err != nil {
		t.Fatal(err)
	}
	refIH, err := Build(g, Params{HubsPerBlock: flipB})
	if err != nil {
		t.Fatal(err)
	}

	// Pre-cancelled ctx never starts the build.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := BuildWithCtx(ctx, g, Params{HubsPerBlock: flipB}, testPool); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled build: err = %v, want context.Canceled", err)
	}
	// A nil pool is a private one-worker pool, refused the same way and
	// closed on the way out.
	base := runtime.NumGoroutine()
	if _, err := BuildWithCtx(ctx, g, Params{HubsPerBlock: flipB}, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled nil-pool build: err = %v, want context.Canceled", err)
	}
	requireGoroutinesBack(t, "pre-cancelled nil-pool build", base)

	for seed := uint64(0); seed < 10; seed++ {
		to := time.Duration(faultinject.SeededAfter(seed, "test.build-cancel", 3000)) * time.Microsecond
		ctx, cancel := context.WithTimeout(context.Background(), to)
		ih, err := BuildWithCtx(ctx, g, Params{HubsPerBlock: flipB}, testPool)
		cancel()
		switch {
		case err != nil:
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("seed %d: err = %v, want DeadlineExceeded", seed, err)
			}
			if ih != nil {
				t.Fatalf("seed %d: failed build returned a non-nil IHTL", seed)
			}
		default:
			// A build that beat the timeout must be bit-for-bit the
			// nil-pool result (builds are deterministic).
			if ih.NumHubs != refIH.NumHubs || ih.NumVWEH != refIH.NumVWEH || ih.NumFV != refIH.NumFV {
				t.Fatalf("seed %d: partition %d/%d/%d, want %d/%d/%d", seed,
					ih.NumHubs, ih.NumVWEH, ih.NumFV, refIH.NumHubs, refIH.NumVWEH, refIH.NumFV)
			}
			for v := range refIH.NewID {
				if ih.NewID[v] != refIH.NewID[v] {
					t.Fatalf("seed %d: NewID[%d] = %d, want %d", seed, v, ih.NewID[v], refIH.NewID[v])
				}
			}
		}
	}
}

func TestFaultedStepsLeakNoGoroutines(t *testing.T) {
	e, _ := faultTestEngine(t, EngineOptions{})
	n := e.NumVertices()
	src := randomSrc(n, 51)
	dst := make([]float64, n)
	base := runtime.NumGoroutine()
	for i := 0; i < 30; i++ {
		faultinject.Activate(faultinject.NewPlan(faultinject.Rule{
			Site: faultinject.SiteFlippedTask, Kind: faultinject.Panic, After: int64(i % 5),
		}))
		_ = e.StepCtx(nil, src, dst, 1, spmv.Epilogue{})
		faultinject.Deactivate()
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Microsecond)
		_ = e.StepCtx(ctx, src, dst, 1, spmv.Epilogue{})
		cancel()
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base+2 {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("goroutines did not settle: %d, base %d", runtime.NumGoroutine(), base)
}

// TestBuildWithCtxCancelMidGather cancels the build while a worker
// sleeps inside the sparse block's row gather — the last parts to fire
// SiteBuildFill — and requires ctx.Err() back, then a clean build equal
// to the reference.
func TestBuildWithCtxCancelMidGather(t *testing.T) {
	g, err := gen.RMAT(gen.DefaultRMAT(11, 8, 7))
	if err != nil {
		t.Fatal(err)
	}
	p := Params{HubsPerBlock: flipB}
	// A rule that never fires counts the hits.
	count := faultinject.NewPlan(faultinject.Rule{Site: faultinject.SiteBuildFill, Kind: faultinject.Delay, After: 1 << 62})
	faultinject.Activate(count)
	refIH, err := BuildWith(g, p, testPool)
	faultinject.Deactivate()
	if err != nil {
		t.Fatal(err)
	}
	// The gather fires once per part, after every other fill.
	gatherHit := count.Hits(faultinject.SiteBuildFill) - int64(testPool.Workers())
	plan := faultinject.NewPlan(faultinject.Rule{
		Site: faultinject.SiteBuildFill, Kind: faultinject.Delay, After: gatherHit, Delay: 200 * time.Millisecond,
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		for plan.Fired(faultinject.SiteBuildFill) == 0 {
			time.Sleep(time.Millisecond)
		}
		cancel()
	}()
	faultinject.Activate(plan)
	ih, err := BuildWithCtx(ctx, g, p, testPool)
	faultinject.Deactivate()
	if plan.Fired(faultinject.SiteBuildFill) == 0 {
		t.Fatal("the delay never fired")
	}
	if !errors.Is(err, context.Canceled) || ih != nil {
		t.Fatalf("cancel mid-gather: (ih != nil) = %v, err = %v, want nil and context.Canceled", ih != nil, err)
	}
	clean, err := BuildWithCtx(context.Background(), g, p, testPool)
	if err != nil {
		t.Fatal(err)
	}
	requireIHTLEqual(t, "clean build after a cancelled gather", refIH, clean)
}

// TestBuildWithCtxInjectedPanic lands injected panics on the
// SiteBuildFill site — the static relabel/rank/CSR-fill passes inside
// BuildWithCtx's Fallible region — on a pool and on a nil pool (the
// build's private one-worker pool), and checks the build returns the
// fault as a *sched.PanicError instead of crashing, leaves no goroutine
// behind, and that an uninjected build of the same graph succeeds and
// matches the reference exactly.
func TestBuildWithCtxInjectedPanic(t *testing.T) {
	g, err := gen.RMAT(gen.DefaultRMAT(11, 8, 7))
	if err != nil {
		t.Fatal(err)
	}
	refIH, err := BuildWith(g, Params{HubsPerBlock: flipB}, testPool)
	if err != nil {
		t.Fatal(err)
	}
	for _, pool := range []*sched.Pool{testPool, nil} {
		for after := int64(0); after < 8; after++ {
			label := fmt.Sprintf("pool=%v/after=%d", pool != nil, after)
			base := runtime.NumGoroutine()
			plan := faultinject.NewPlan(faultinject.Rule{
				Site: faultinject.SiteBuildFill, Kind: faultinject.Panic, After: after,
			})
			faultinject.Activate(plan)
			ih, err := BuildWithCtx(context.Background(), g, Params{HubsPerBlock: flipB}, pool)
			faultinject.Deactivate()
			if plan.Fired(faultinject.SiteBuildFill) == 0 {
				t.Fatalf("%s: SiteBuildFill never fired; the build fills lost their instrumentation", label)
			}
			var perr *sched.PanicError
			if !errors.As(err, &perr) {
				t.Fatalf("%s: err = %v, want *sched.PanicError", label, err)
			}
			var ip *faultinject.InjectedPanic
			if !errors.As(err, &ip) || ip.Site != faultinject.SiteBuildFill {
				t.Fatalf("%s: error does not unwrap to the injected fault: %v", label, err)
			}
			if ih != nil {
				t.Fatalf("%s: got a non-nil IHTL alongside the error", label)
			}
			requireGoroutinesBack(t, label, base)
			// Recovery invariant: the next clean build is bit-for-bit the
			// reference (builds are deterministic).
			clean, err := BuildWithCtx(context.Background(), g, Params{HubsPerBlock: flipB}, pool)
			if err != nil {
				t.Fatalf("%s: clean build: %v", label, err)
			}
			requireIHTLEqual(t, label+": clean build", refIH, clean)
		}
	}
}

// requireGoroutinesBack polls until the goroutine count is back at
// base: a nil-pool build closes its private pool on every path, so a
// worker it leaked would hold the count above base for good.
func requireGoroutinesBack(t *testing.T, label string, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines, %d before the build", label, runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}
