// Package ctxleak seeds cancellation holes for the ctxleak analyzer.
package ctxleak

import (
	"context"

	"ihtl/internal/sched"
)

// badRun carries a ctx but dispatches through the plain entry points:
// cancellation is never observed, a worker panic crashes the process.
func badRun(ctx context.Context, p *sched.Pool, xs []float64) {
	p.Run(func(worker int) { // want `badRun carries a context.Context but dispatches via Pool.Run`
		_ = xs[worker]
	})
	p.ForStatic(len(xs), func(worker, lo, hi int) { // want `badRun carries a context.Context but dispatches via Pool.ForStatic`
		for i := lo; i < hi; i++ {
			xs[i] = 0
		}
	})
}

// goodCtx uses the cancellation-aware variants: clean.
func goodCtx(ctx context.Context, p *sched.Pool, xs []float64) error {
	if err := p.RunCtx(ctx, func(worker int) {
		_ = xs[worker]
	}); err != nil {
		return err
	}
	return p.ForStaticCtx(ctx, len(xs), func(worker, lo, hi int) {
		for i := lo; i < hi; i++ {
			xs[i] = 0
		}
	})
}

// goodNoCtx has no context parameter, so plain dispatches are the
// correct shape: clean.
func goodNoCtx(p *sched.Pool, xs []float64) {
	p.ForStatic(len(xs), func(worker, lo, hi int) {
		for i := lo; i < hi; i++ {
			xs[i] = 0
		}
	})
}

// goodFallible opens a Fallible region, inside which the plain
// dispatches ARE ctx- and panic-aware by the region's contract: clean.
func goodFallible(ctx context.Context, p *sched.Pool, xs []float64) error {
	end, err := p.Fallible(ctx)
	if err != nil {
		return err
	}
	p.ForStatic(len(xs), func(worker, lo, hi int) {
		for i := lo; i < hi; i++ {
			xs[i] = 0
		}
	})
	return end()
}

// waived documents a deliberate hole: the cleanup dispatch must run
// even after cancellation, and the waiver silences the finding.
func waived(ctx context.Context, p *sched.Pool, xs []float64) {
	//ihtl:allow-noctx cleanup must run to completion even when ctx is cancelled
	p.ForStatic(len(xs), func(worker, lo, hi int) {
		for i := lo; i < hi; i++ {
			xs[i] = 0
		}
	})
}

// wrongWaiver carries an unrelated directive, which must NOT silence
// the finding.
func wrongWaiver(ctx context.Context, p *sched.Pool, xs []float64) {
	//ihtl:allow-capture not the right directive
	p.Run(func(worker int) { // want `wrongWaiver carries a context.Context but dispatches via Pool.Run`
		_ = xs[worker]
	})
}

// process/processCtx are a plain/ctx sibling pair like the analytics
// drivers (RunPageRank / RunPageRankCtx): calling the plain form from
// a ctx-carrying function is the serving-layer cancellation hole.
func process(xs []float64) {
	for i := range xs {
		xs[i] = 0
	}
}

func processCtx(ctx context.Context, xs []float64) error {
	for i := range xs {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		xs[i] = 0
	}
	return nil
}

// engine carries the method shape of the same pair (Step / StepCtx).
type engine struct{}

func (engine) Step(xs []float64)                               {}
func (engine) StepCtx(ctx context.Context, xs []float64) error { return nil }

// badSibling carries a ctx but calls the plain forms: the client
// hanging up is never observed.
func badSibling(ctx context.Context, e engine, xs []float64) {
	process(xs) // want `badSibling carries a context.Context but calls process, which never observes cancellation; use processCtx`
	e.Step(xs)  // want `badSibling carries a context.Context but calls Step, which never observes cancellation; use StepCtx`
}

// goodSibling threads the ctx through the Ctx variants: clean.
func goodSibling(ctx context.Context, e engine, xs []float64) error {
	if err := processCtx(ctx, xs); err != nil {
		return err
	}
	return e.StepCtx(ctx, xs)
}

// goodNoCtxSibling has no ctx to thread, so the plain forms are the
// correct shape: clean.
func goodNoCtxSibling(e engine, xs []float64) {
	process(xs)
	e.Step(xs)
}

// waivedSibling documents a deliberate plain call — the work is too
// short to be worth a cancellation check: clean.
func waivedSibling(ctx context.Context, xs []float64) {
	//ihtl:allow-noctx two-element fixup, shorter than the ctx check
	process(xs)
}

// epilogue and stepper carry the shape of the stepping interface: a
// width-1 Step beside the one full entry, StepCtx, which also takes the
// lane width and an epilogue. The extra parameters do not hide the pair.
type epilogue struct {
	run    func(slot, lo, hi int)
	stream bool
}

type stepper interface {
	Step(src, dst []float64)
	StepCtx(ctx context.Context, src, dst []float64, k int, epi epilogue) error
}

type wideEngine struct{}

func (wideEngine) Step(src, dst []float64) {}
func (wideEngine) StepCtx(ctx context.Context, src, dst []float64, k int, epi epilogue) error {
	return nil
}

// badStepper steps through the plain form of the pair, on the
// interface and on a concrete engine, inside a ctx-carrying function.
func badStepper(ctx context.Context, s stepper, e wideEngine, src, dst []float64) {
	s.Step(src, dst) // want `badStepper carries a context.Context but calls Step, which never observes cancellation; use StepCtx`
	e.Step(src, dst) // want `badStepper carries a context.Context but calls Step, which never observes cancellation; use StepCtx`
}

// goodStepper threads the ctx through StepCtx: clean.
func goodStepper(ctx context.Context, s stepper, src, dst []float64) error {
	return s.StepCtx(ctx, src, dst, 1, epilogue{})
}
