package sched

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
)

// ErrPoolClosed reports a dispatch attempted after Close. The
// ctx-aware entrypoints (RunCtx and friends) return it; the legacy
// panicking entrypoints use it as their panic value.
var ErrPoolClosed = errors.New("sched: dispatch on closed Pool")

// PanicError is the first panic captured from a pool worker during a
// dispatch: the recovered value, the worker that raised it, and its
// stack at recovery time. Plain dispatches re-panic with it on the
// orchestrating goroutine; ctx-aware dispatches and Fallible regions
// return it as an error.
type PanicError struct {
	Value  any
	Worker int
	Stack  []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("sched: worker %d panicked: %v", e.Worker, e.Value)
}

// Unwrap exposes a panic value that was itself an error (e.g. an
// injected *faultinject.InjectedPanic) to errors.Is/As.
func (e *PanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// recoverWorker is deferred around every worker job body. It trips the
// abort flag first — so sibling claim loops and abort-aware barriers
// unwind within one chunk — then records the first panic with its
// stack. It deliberately lives outside the //ihtl:noalloc annotated
// call path: it only runs (and allocates) on the failure path.
func (p *Pool) recoverWorker(worker int) {
	r := recover()
	if r == nil {
		return
	}
	p.setAbort()
	p.panicMu.Lock()
	if p.panicErr == nil {
		p.panicErr = &PanicError{Value: r, Worker: worker, Stack: debug.Stack()}
	}
	p.panicMu.Unlock()
}

// setAbort trips the abort flag mid-dispatch and wakes the workers
// parked at a barrier, which cannot poll the flag.
func (p *Pool) setAbort() {
	p.abort.Store(true)
	p.wakeParked()
}

// wakeParked makes every worker parked at a barrier of this pool
// re-check its barrier's sense and the abort flag.
//
//ihtl:noalloc
func (p *Pool) wakeParked() {
	p.parkMu.Lock()
	p.parked.Broadcast()
	p.parkMu.Unlock()
}

// Fallible opens a fallible dispatch region: until the returned end
// func is called, every plain dispatch on the pool runs with worker
// panics diverted into the region (captured, not re-raised) and with
// cancellation of ctx tripping the abort flag that every claim loop
// polls. end() closes the region and reports its first failure — a
// *PanicError from any worker, or ctx.Err() — leaving the pool clean
// for the next dispatch.
//
// After a failure, the remaining dispatches of the region degrade to
// cheap no-ops (workers observe the abort flag on their first claim),
// so a multi-phase orchestrator can issue its whole pipeline and check
// the error once at end(). ctx may be nil (no cancellation). Regions
// must not nest and, like dispatches, must come from the single
// orchestrating goroutine. If the pool is closed or ctx is already
// cancelled, Fallible returns a nil end and the error without opening
// a region.
func (p *Pool) Fallible(ctx context.Context) (end func() error, err error) {
	if p.closed.Load() {
		return nil, ErrPoolClosed
	}
	if p.inRegion {
		panic("sched: nested Fallible region")
	}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	p.inRegion = true
	p.regionErr = nil
	stopWatch := p.armCancel(ctx)
	return func() error {
		stopWatch()
		p.inRegion = false
		err := p.regionErr
		p.regionErr = nil
		if err == nil && ctx != nil {
			err = ctx.Err()
		}
		p.abort.Store(false)
		return err
	}, nil
}

// armCancel mirrors cancellation of ctx into the pool's abort flag
// from a watcher goroutine, so in-flight claim loops observe it within
// one chunk rather than at the next dispatch boundary. The returned
// stop joins the watcher before clearing the flag, so a cancellation
// that races with region teardown can never leak into the next region.
func (p *Pool) armCancel(ctx context.Context) (stop func()) {
	if ctx == nil || ctx.Done() == nil {
		return func() {}
	}
	stopped := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		select {
		case <-ctx.Done():
			p.ctxCanceled.Store(true)
			p.setAbort()
		case <-stopped:
		}
	}()
	return func() {
		close(stopped)
		<-done
		p.ctxCanceled.Store(false)
	}
}

// dispatchCtx wraps one plain dispatch in a single-dispatch Fallible
// region.
func (p *Pool) dispatchCtx(ctx context.Context, tmpl job) error {
	end, err := p.Fallible(ctx)
	if err != nil {
		return err
	}
	p.dispatch(tmpl)
	return end()
}

// ctxErr is the empty-work result of the ctx-aware parallel-fors:
// nothing ran, but a cancelled ctx still reports its error.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// RunCtx is Run with cancellation and panic isolation: fn runs once on
// every worker; a panic in any fn is captured as a *PanicError and
// returned, and cancellation of ctx makes unstarted workers no-ops.
// Unlike the plain entrypoints it returns ErrPoolClosed instead of
// panicking on a closed pool. The cancellation fast path costs one
// atomic load per worker, so annotated hot paths stay allocation-free.
func (p *Pool) RunCtx(ctx context.Context, fn func(worker int)) error {
	return p.dispatchCtx(ctx, job{fn: fn})
}

// ForStaticCtx is ForStatic with cancellation and panic isolation; see
// RunCtx for the contract.
func (p *Pool) ForStaticCtx(ctx context.Context, n int, fn func(worker, lo, hi int)) error {
	if n <= 0 {
		return ctxErr(ctx)
	}
	return p.dispatchCtx(ctx, job{staticN: n, rangeFn: fn})
}

// ForDynamicCtx is ForDynamic with cancellation and panic isolation:
// cancellation is observed at every chunk claim (one atomic load); see
// RunCtx for the contract.
func (p *Pool) ForDynamicCtx(ctx context.Context, n, grain int, fn func(worker, lo, hi int)) error {
	if n <= 0 {
		return ctxErr(ctx)
	}
	if grain <= 0 {
		grain = defaultGrain
	}
	return p.dispatchCtx(ctx, job{dynN: n, grain: grain, rangeFn: fn})
}

// ForStealCtx is ForSteal with cancellation and panic isolation:
// cancellation is observed at every chunk claim; see RunCtx for the
// contract.
func (p *Pool) ForStealCtx(ctx context.Context, n, grain int, fn func(worker, lo, hi int)) error {
	return p.ForStealWithCtx(ctx, p.steal, n, grain, fn)
}

// ForStealWithCtx is ForStealWith with cancellation and panic
// isolation; see RunCtx for the contract.
func (p *Pool) ForStealWithCtx(ctx context.Context, s *StealScheduler, n, grain int, fn func(worker, lo, hi int)) error {
	if n <= 0 {
		return ctxErr(ctx)
	}
	if grain <= 0 {
		grain = defaultGrain
	}
	if len(s.ranges) != p.workers {
		panic("sched: StealScheduler sized for a different worker count")
	}
	s.Reset(n)
	return p.dispatchCtx(ctx, job{steal: s, grain: grain, rangeFn: fn})
}
