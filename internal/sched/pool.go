// Package sched provides the parallel-execution substrate used by all
// graph kernels in this repository: a reusable worker pool following
// the master-worker model of the paper's implementation, grain-based
// parallel-for loops with static and dynamic (work-stealing) schedules,
// the vertex- and edge-balanced partitioners of GraphGrind
// (Sun et al., ICS'17) used to load-balance SpMV, and the fused-region
// primitives (Barrier, Countdowns) that let an engine run a multi-phase
// iteration as a single pool dispatch.
package sched

import (
	"runtime"
	"sync"
	"sync/atomic"

	"ihtl/internal/faultinject"
)

// Pool is a fixed set of worker goroutines that repeatedly execute
// parallel jobs. Reusing the same goroutines across SpMV iterations
// avoids per-iteration spawn cost and keeps per-thread buffers
// (the iHTL flipped-block buffers) affine to one worker.
//
// A Pool must be created with NewPool and released with Close.
// Dispatches (Run and every parallel-for built on it) must come from a
// single orchestrating goroutine at a time: the pool reuses one
// completion WaitGroup and one steal scheduler across dispatches so
// that steady-state dispatch is allocation-free.
type Pool struct {
	workers int
	jobs    chan job
	wg      sync.WaitGroup
	closed  atomic.Bool

	// done is the reusable completion barrier of the current dispatch.
	done sync.WaitGroup
	// steal is the reusable scheduler behind ForSteal (engines that
	// need several schedulers in one fused region hold their own and
	// use ForStealWith).
	steal *StealScheduler
	// dyn is the reusable claim counter behind ForDynamic,
	// reset by dispatch. Reuse is safe because dispatches are
	// single-orchestrator: no two jobs are in flight at once.
	dyn atomic.Int64

	// abort is the cooperative kill switch of the current dispatch: set
	// when a worker panics or the region's context is cancelled, read
	// once per chunk claim by every dynamic mode (and pollable via
	// Aborted by engine-owned claim loops and abort-aware barriers).
	// dispatch re-derives it from ctxCanceled and regionErr, so a
	// failure poisons the rest of its region but never the next one.
	abort atomic.Bool
	// parked is where workers waiting at a Barrier sleep once their
	// spin budget is spent (under parkMu). One place per pool, not per
	// barrier, so setAbort reaches every sleeper without a registry; a
	// crossing of one barrier wakes the sleepers of the pool's others,
	// which re-check and sleep again.
	parkMu sync.Mutex
	parked sync.Cond
	// ctxCanceled mirrors ctx.Done() of the Fallible region currently
	// armed, set by the watcher goroutine and cleared when the watcher
	// is joined.
	ctxCanceled atomic.Bool
	// panicMu serialises first-panic capture across workers; panicErr
	// is read by the orchestrator only after done.Wait (a WaitGroup
	// happens-before edge), so the read needs no lock.
	panicMu  sync.Mutex
	panicErr *PanicError

	// Orchestrator-only region state (see Fallible).
	inRegion  bool
	regionErr error
}

// job is one worker's share of a dispatch. Exactly one mode is set:
// fn selects a plain run; steal drains rangeFn over chunks claimed
// from the scheduler; dynN drains grain-sized chunks from the pool's
// dyn counter; staticN runs rangeFn once on the worker's static split.
// Keeping every claim loop in the worker, and the schedule parameters
// in this by-value struct, makes ALL parallel-for dispatches
// allocation-free — no per-call closure wraps the caller's fn.
type job struct {
	fn      func(worker int)
	steal   *StealScheduler
	grain   int
	rangeFn func(worker, lo, hi int)
	staticN int
	dynN    int
	done    *sync.WaitGroup
	id      int
}

// NewPool creates a pool with the given number of workers. If workers
// is <= 0, runtime.GOMAXPROCS(0) workers are created.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{
		workers: workers,
		jobs:    make(chan job),
		steal:   NewStealScheduler(workers),
	}
	p.parked.L = &p.parkMu
	p.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go p.worker()
	}
	return p
}

//ihtl:noalloc
func (p *Pool) worker() {
	defer p.wg.Done()
	for j := range p.jobs {
		p.runJob(j)
		j.done.Done()
	}
}

// runJob executes one worker's share of a dispatch. Every dynamic
// claim loop re-checks the pool's abort flag before taking the next
// chunk — one atomic load per claim, the amortised cancellation cost —
// and the deferred recover isolates a panicking worker body: the panic
// is captured (first wins) and the abort flag tripped so sibling claim
// loops drain instead of deadlocking on unreachable barriers.
//
//ihtl:noalloc
func (p *Pool) runJob(j job) {
	defer p.recoverWorker(j.id)
	switch {
	case j.fn != nil:
		if p.abort.Load() {
			return
		}
		j.fn(j.id)
	case j.steal != nil:
		for !p.abort.Load() {
			lo, hi, ok := j.steal.Next(j.id, j.grain)
			if !ok {
				return
			}
			faultinject.Fire(faultinject.SiteSchedClaim)
			j.rangeFn(j.id, lo, hi)
		}
	case j.dynN > 0:
		for !p.abort.Load() {
			lo := int(p.dyn.Add(int64(j.grain))) - j.grain
			if lo >= j.dynN {
				return
			}
			hi := lo + j.grain
			if hi > j.dynN {
				hi = j.dynN
			}
			faultinject.Fire(faultinject.SiteSchedClaim)
			j.rangeFn(j.id, lo, hi)
		}
	default:
		if p.abort.Load() {
			return
		}
		lo, hi := splitRange(j.staticN, p.workers, j.id)
		if lo < hi {
			j.rangeFn(j.id, lo, hi)
		}
	}
}

// Workers reports the number of workers in the pool.
func (p *Pool) Workers() int { return p.workers }

// Run executes fn once on every worker concurrently, passing each
// worker its id in [0, Workers()), and blocks until all return.
// It is the primitive on which the parallel-for schedules are built.
//
//ihtl:noalloc
func (p *Pool) Run(fn func(worker int)) {
	p.dispatch(job{fn: fn})
}

// dispatch fans the job template out to every worker and waits. On a
// closed pool it panics with ErrPoolClosed (the ctx-aware entrypoints
// return it instead). A worker panic during the dispatch is re-raised
// here on the orchestrator — unless a Fallible region is open, in
// which case it is recorded as the region's error and the region's
// remaining dispatches degrade to cheap no-ops.
//
//ihtl:noalloc
func (p *Pool) dispatch(tmpl job) {
	if p.closed.Load() {
		p.panicClosed()
	}
	p.abort.Store(p.ctxCanceled.Load() || p.regionErr != nil)
	p.dyn.Store(0)
	tmpl.done = &p.done
	p.done.Add(p.workers)
	for w := 0; w < p.workers; w++ {
		tmpl.id = w
		p.jobs <- tmpl
	}
	p.done.Wait()
	if p.panicErr != nil {
		p.settlePanic()
	}
}

func (p *Pool) panicClosed() {
	panic(ErrPoolClosed)
}

// settlePanic consumes the captured worker panic after a dispatch:
// inside a Fallible region it becomes the region error (first
// failure wins); outside one it is re-raised on the orchestrator,
// preserving the pre-robustness contract that a panicking worker body
// crashes the plain dispatch call.
func (p *Pool) settlePanic() {
	pe := p.panicErr
	p.panicErr = nil
	if p.inRegion {
		if p.regionErr == nil {
			p.regionErr = pe
		}
		return
	}
	panic(pe)
}

// Aborted reports whether the in-flight dispatch has been asked to
// stop (a sibling worker panicked, or the Fallible region's context
// was cancelled). Engine-owned claim loops running under Run poll it
// at task boundaries; it is one atomic load.
//
//ihtl:noalloc
func (p *Pool) Aborted() bool { return p.abort.Load() }

// Close shuts the pool down and is idempotent: the first call closes
// the job channel and joins the workers, subsequent calls return
// immediately. It must not be called concurrently with a dispatch;
// dispatching afterwards panics with (or, via the ctx-aware
// entrypoints, returns) ErrPoolClosed.
func (p *Pool) Close() {
	if p.closed.Swap(true) {
		return
	}
	close(p.jobs)
	p.wg.Wait()
}
