package graph

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"ihtl/internal/faultinject"
	"ihtl/internal/sched"
)

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

func TestBuildCtxPreCancelled(t *testing.T) {
	pool := sched.NewPool(4)
	defer pool.Close()
	edges := skewedEdges(1<<10, 1<<13, 11)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opt := DefaultBuildOptions()
	opt.Pool = pool
	if _, err := BuildCtx(ctx, 1<<10, edges, opt); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// A nil pool is a private one-worker pool, refused the same way
	// and closed on the way out.
	base := runtime.NumGoroutine()
	if _, err := BuildCtx(ctx, 1<<10, edges, DefaultBuildOptions()); !errors.Is(err, context.Canceled) {
		t.Fatalf("nil-pool err = %v, want context.Canceled", err)
	}
	requireGoroutinesBack(t, "nil-pool pre-cancelled build", base)
}

func TestBuildCtxInjectedPanic(t *testing.T) {
	pool := sched.NewPool(4)
	defer pool.Close()
	edges := skewedEdges(1<<12, 1<<15, 13)
	want, err := Build(1<<12, edges, DefaultBuildOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, arm := range []struct {
		name string
		pool *sched.Pool
	}{{"pool", pool}, {"nil", nil}} {
		opt := DefaultBuildOptions()
		opt.Pool = arm.pool
		base := runtime.NumGoroutine()
		plan := faultinject.NewPlan(faultinject.Rule{
			Site: faultinject.SiteBuildTranspose, Kind: faultinject.Panic, After: 2,
		})
		faultinject.Activate(plan)
		g, err := BuildCtx(nil, 1<<12, edges, opt)
		faultinject.Deactivate()
		if plan.Fired(faultinject.SiteBuildTranspose) == 0 {
			t.Fatalf("%s: transposition site never reached the injection point", arm.name)
		}
		var perr *sched.PanicError
		if !errors.As(err, &perr) {
			t.Fatalf("%s: err = %v, want *sched.PanicError", arm.name, err)
		}
		var ip *faultinject.InjectedPanic
		if !errors.As(err, &ip) || ip.Site != faultinject.SiteBuildTranspose {
			t.Fatalf("%s: PanicError does not unwrap to the injected fault: %v", arm.name, err)
		}
		if g != nil {
			t.Fatalf("%s: failed build returned a non-nil graph", arm.name)
		}
		requireGoroutinesBack(t, arm.name+": injected panic", base)

		// The pool and builder are clean afterwards: the next build is
		// bit-for-bit the one-worker result.
		got, err := BuildCtx(nil, 1<<12, edges, opt)
		if err != nil {
			t.Fatal(err)
		}
		requireGraphsEqual(t, arm.name+": rebuild after injected panic", want, got)
	}
}

func TestBuildCtxSeededTimeouts(t *testing.T) {
	pool := sched.NewPool(4)
	defer pool.Close()
	edges := skewedEdges(1<<13, 1<<16, 17)
	opt := DefaultBuildOptions()
	opt.Pool = pool
	want, err := Build(1<<13, edges, DefaultBuildOptions())
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(0); seed < 10; seed++ {
		to := time.Duration(faultinject.SeededAfter(seed, "test.graph-build-cancel", 2000)) * time.Microsecond
		ctx, cancel := context.WithTimeout(context.Background(), to)
		g, err := BuildCtx(ctx, 1<<13, edges, opt)
		cancel()
		if err != nil {
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("seed %d: err = %v, want DeadlineExceeded", seed, err)
			}
			continue
		}
		requireGraphsEqual(t, "build that beat the timeout", want, g)
	}
}
