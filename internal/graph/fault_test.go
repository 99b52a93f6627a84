package graph

import (
	"context"
	"errors"
	"testing"
	"time"

	"ihtl/internal/faultinject"
	"ihtl/internal/sched"
)

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
	// Without a pool the ctx checks still run between phases.
	if _, err := BuildCtx(ctx, 1<<10, edges, DefaultBuildOptions()); !errors.Is(err, context.Canceled) {
		t.Fatalf("sequential err = %v, want context.Canceled", err)
	}
}

func TestBuildCtxInjectedPanic(t *testing.T) {
	pool := sched.NewPool(4)
	defer pool.Close()
	edges := skewedEdges(1<<12, 1<<15, 13)
	opt := DefaultBuildOptions()
	opt.Pool = pool

	plan := faultinject.NewPlan(faultinject.Rule{
		Site: faultinject.SiteBuildTranspose, Kind: faultinject.Panic, After: 2,
	})
	faultinject.Activate(plan)
	g, err := BuildCtx(nil, 1<<12, edges, opt)
	faultinject.Deactivate()
	if plan.Fired(faultinject.SiteBuildTranspose) == 0 {
		t.Fatal("transposition site never reached the injection point")
	}
	var perr *sched.PanicError
	if !errors.As(err, &perr) {
		t.Fatalf("err = %v, want *sched.PanicError", err)
	}
	var ip *faultinject.InjectedPanic
	if !errors.As(err, &ip) || ip.Site != faultinject.SiteBuildTranspose {
		t.Fatalf("PanicError does not unwrap to the injected fault: %v", err)
	}
	if g != nil {
		t.Fatal("failed build returned a non-nil graph")
	}

	// The pool and builder are clean afterwards: the next build is
	// bit-for-bit the sequential result.
	want, err := Build(1<<12, edges, DefaultBuildOptions())
	if err != nil {
		t.Fatal(err)
	}
	got, err := BuildCtx(nil, 1<<12, edges, opt)
	if err != nil {
		t.Fatal(err)
	}
	requireGraphsEqual(t, "rebuild after injected panic", want, got)
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
