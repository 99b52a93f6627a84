package sched

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"ihtl/internal/faultinject"
)

// settleGoroutines polls until the goroutine count drops back to at
// most base (plus slack for runtime helpers), failing t otherwise.
func settleGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base+2 {
			return
		}
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("goroutines did not settle: %d, base %d", runtime.NumGoroutine(), base)
}

func TestWorkerPanicReturnsPanicError(t *testing.T) {
	p := NewPool(4)
	defer p.Close()

	err := p.ForDynamicCtx(nil, 1000, 10, func(worker, lo, hi int) {
		if lo <= 500 && 500 < hi {
			panic("boom at 500")
		}
	})
	var perr *PanicError
	if !errors.As(err, &perr) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if perr.Value != "boom at 500" {
		t.Fatalf("panic value = %v", perr.Value)
	}
	if len(perr.Stack) == 0 {
		t.Fatal("captured no stack")
	}
	if perr.Worker < 0 || perr.Worker >= 4 {
		t.Fatalf("worker index %d out of range", perr.Worker)
	}

	// The pool must be fully reusable after the failure.
	var n atomic.Int64
	if err := p.ForDynamicCtx(nil, 100, 1, func(worker, lo, hi int) {
		n.Add(int64(hi - lo))
	}); err != nil {
		t.Fatalf("clean dispatch after panic: %v", err)
	}
	if n.Load() != 100 {
		t.Fatalf("clean dispatch covered %d/100 items", n.Load())
	}
}

func TestPlainDispatchRepanicsWithPanicError(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("plain dispatch swallowed the worker panic")
		}
		if _, ok := r.(*PanicError); !ok {
			t.Fatalf("re-panic value %T, want *PanicError", r)
		}
		// Pool still serves dispatches after the re-panic.
		ran := make([]bool, 2)
		p.Run(func(w int) { ran[w] = true })
		if !ran[0] || !ran[1] {
			t.Fatalf("pool wedged after re-panic: %v", ran)
		}
	}()
	p.Run(func(w int) {
		if w == 1 {
			panic("worker 1 dies")
		}
	})
}

func TestInjectedPanicUnwrapsThroughPanicError(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	faultinject.Activate(faultinject.NewPlan(faultinject.Rule{
		Site: faultinject.SiteSchedClaim, Kind: faultinject.Panic, After: 7,
	}))
	defer faultinject.Deactivate()

	err := p.ForStealCtx(nil, 10000, 16, func(worker, lo, hi int) {})
	var ip *faultinject.InjectedPanic
	if !errors.As(err, &ip) {
		t.Fatalf("err = %v, want to unwrap *faultinject.InjectedPanic", err)
	}
	if ip.Site != faultinject.SiteSchedClaim || ip.Hit != 7 {
		t.Fatalf("injected at %s hit %d, want %s hit 7", ip.Site, ip.Hit, faultinject.SiteSchedClaim)
	}
}

func TestCancelMidDispatch(t *testing.T) {
	p := NewPool(4)
	defer p.Close()

	for seed := uint64(0); seed < 10; seed++ {
		// Randomised cancellation point: a seeded chunk-claim index.
		cancelAt := faultinject.SeededAfter(seed, "test.cancel", 500)
		ctx, cancel := context.WithCancel(context.Background())
		var claims atomic.Int64
		var done atomic.Int64
		err := p.ForDynamicCtx(ctx, 100000, 16, func(worker, lo, hi int) {
			if claims.Add(1) == cancelAt+1 {
				cancel()
			}
			// Slow the chunks slightly so the cancel watcher's abort
			// store lands while plenty of chunks remain unclaimed.
			time.Sleep(2 * time.Microsecond)
			done.Add(int64(hi - lo))
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("seed %d: err = %v, want context.Canceled", seed, err)
		}
		// Cancellation is observed at chunk claims: the bulk of the
		// range (there are 6250 chunks, cancelled within the first
		// ~500) must never have been processed.
		if done.Load() == 100000 {
			t.Fatalf("seed %d: cancellation at claim %d did not stop the dispatch", seed, cancelAt)
		}

		// A clean follow-up dispatch must cover everything.
		var n atomic.Int64
		if err := p.ForDynamicCtx(nil, 1000, 16, func(worker, lo, hi int) {
			n.Add(int64(hi - lo))
		}); err != nil || n.Load() != 1000 {
			t.Fatalf("seed %d: follow-up dispatch err=%v covered=%d", seed, err, n.Load())
		}
	}
}

func TestPreCancelledCtxSkipsDispatch(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	err := p.RunCtx(ctx, func(w int) { ran = true })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran {
		t.Fatal("worker body ran under a pre-cancelled ctx")
	}
}

func TestRunCtxOnClosedPool(t *testing.T) {
	p := NewPool(2)
	p.Close()
	p.Close() // idempotent
	if err := p.RunCtx(nil, func(w int) {}); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("err = %v, want ErrPoolClosed", err)
	}
	if _, err := p.Fallible(nil); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("Fallible err = %v, want ErrPoolClosed", err)
	}
}

func TestPlainDispatchOnClosedPoolPanicsWithErrPoolClosed(t *testing.T) {
	p := NewPool(2)
	p.Close()
	defer func() {
		r := recover()
		if err, ok := r.(error); !ok || !errors.Is(err, ErrPoolClosed) {
			t.Fatalf("panic value = %v, want ErrPoolClosed", r)
		}
	}()
	p.Run(func(w int) {})
}

func TestNestedFallibleRegionPanics(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	end, err := p.Fallible(nil)
	if err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("nested Fallible did not panic")
			}
		}()
		p.Fallible(nil)
	}()
	if err := end(); err != nil {
		t.Fatalf("region close: %v", err)
	}
}

func TestFallibleMultiPhaseDegradesToNoOps(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	end, err := p.Fallible(nil)
	if err != nil {
		t.Fatal(err)
	}
	p.ForDynamic(1000, 10, func(worker, lo, hi int) {
		if lo == 0 {
			panic(fmt.Errorf("phase 1 fails"))
		}
	})
	// Later phases of the region must not execute their bodies.
	var ran atomic.Int64
	p.ForDynamic(1000, 10, func(worker, lo, hi int) { ran.Add(1) })
	p.Run(func(w int) { ran.Add(1) })
	rerr := end()
	var perr *PanicError
	if !errors.As(rerr, &perr) {
		t.Fatalf("end() = %v, want *PanicError", rerr)
	}
	if ran.Load() != 0 {
		t.Fatalf("post-failure phases ran %d bodies, want 0", ran.Load())
	}
	// Region closed: the pool is clean again.
	var n atomic.Int64
	p.ForDynamic(100, 1, func(worker, lo, hi int) { n.Add(int64(hi - lo)) })
	if n.Load() != 100 {
		t.Fatalf("post-region dispatch covered %d/100", n.Load())
	}
}

func TestCancelWatcherGoroutinesSettle(t *testing.T) {
	base := runtime.NumGoroutine()
	p := NewPool(4)
	for i := 0; i < 50; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		if i%2 == 0 {
			cancel() // half the regions see a pre-cancelled ctx
			if err := p.RunCtx(ctx, func(w int) {}); !errors.Is(err, context.Canceled) {
				t.Fatalf("iter %d: %v", i, err)
			}
			continue
		}
		if err := p.RunCtx(ctx, func(w int) {}); err != nil {
			t.Fatalf("iter %d: %v", i, err)
		}
		cancel()
	}
	p.Close()
	settleGoroutines(t, base)
}

func TestBarrierWaitAbortReleases(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	b := NewBarrier(4)
	// One worker panics INSTEAD of reaching the barrier — but only
	// after the other three are at (or entering) it — so they must be
	// released by the abort flag instead of deadlocking.
	var released atomic.Int64
	var ready atomic.Int64
	err := p.RunCtx(nil, func(w int) {
		if w == 0 {
			for ready.Load() < 3 {
				runtime.Gosched()
			}
			panic("dies before barrier")
		}
		ready.Add(1)
		if !b.WaitAbort(p) {
			released.Add(1)
		}
	})
	var perr *PanicError
	if !errors.As(err, &perr) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if released.Load() != 3 {
		t.Fatalf("released %d workers via abort, want 3", released.Load())
	}
	b.Reset()
	// Barrier is reusable after Reset: a clean dispatch crosses it.
	var crossed atomic.Int64
	if err := p.RunCtx(nil, func(w int) {
		if b.WaitAbort(p) {
			crossed.Add(1)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if crossed.Load() != 4 {
		t.Fatalf("crossed %d, want 4", crossed.Load())
	}
}

// TestBarrierWaitAbortWakesParkedOnCancel pins the other abort source:
// two workers are parked at the barrier (their spin budget is long
// spent) while the third never arrives; cancelling the region's context
// must wake them, and they must report an aborted crossing. A lost
// wake-up hangs the dispatch, which the test timeout turns into a
// failure.
func TestBarrierWaitAbortWakesParkedOnCancel(t *testing.T) {
	p := NewPool(3)
	defer p.Close()
	b := NewBarrier(3)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var atBarrier, released atomic.Int64
	go func() {
		for atBarrier.Load() < 2 {
			runtime.Gosched()
		}
		time.Sleep(5 * time.Millisecond) // let both finish spinning and park
		cancel()
	}()
	err := p.RunCtx(ctx, func(w int) {
		if w == 0 {
			<-ctx.Done()
			return
		}
		atBarrier.Add(1)
		if !b.WaitAbort(p) {
			released.Add(1)
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if released.Load() != 2 {
		t.Fatalf("released %d parked workers via cancel, want 2", released.Load())
	}
}
