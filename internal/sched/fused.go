package sched

import "sync/atomic"

// The fused-region primitives below let an engine run what used to be
// several barriered Pool dispatches as ONE dispatch: workers
// synchronise inside the parallel region with a barrier or with
// per-item completion counters, paying nanoseconds of shared-counter
// traffic instead of a channel send + WaitGroup round-trip per worker
// per phase.

// barrierSpins bounds the polite spin of a waiter before it parks: long
// enough to catch a sibling that is a few hundred nanoseconds behind,
// short enough that a waiter whose sibling is not even running (more
// workers than CPUs, a busy daemon) hands its CPU back at once.
const barrierSpins = 300

// Barrier is a reusable sense-reversing barrier for exactly N
// participants, all of them workers of one Pool. It is intended for
// short intra-dispatch phase boundaries inside a Pool.Run region;
// unlike sync.WaitGroup it can be crossed an arbitrary number of times
// per region. A waiter spins briefly on the sense word and then parks
// on the pool. It never yields through runtime.Gosched: every such
// yield re-queues the goroutine globally and wakes an idle P, which
// under a serving load turned the wait into millions of scheduler
// events and made the daemon's timers fire late.
type Barrier struct {
	n       int64
	arrived atomic.Int64
	sense   atomic.Uint64
}

// NewBarrier creates a barrier for n participants.
func NewBarrier(n int) *Barrier {
	if n < 1 {
		panic("sched: barrier needs >= 1 participant")
	}
	return &Barrier{n: int64(n)}
}

// WaitAbort blocks until all n participants — workers of pool p inside
// one dispatch — have called it, then releases them all and returns
// true; the barrier is immediately reusable for the next phase. When
// the dispatch is aborting (a sibling worker panicked before arriving,
// or the region's context was cancelled) a waiter returns false without
// crossing — the release that keeps panic isolation deadlock-free; the
// pool wakes parked waiters when it trips the flag. A last arriver
// always completes the crossing and returns true. After an aborted
// crossing the barrier may hold straggler arrival counts; the
// orchestrator must Reset it before reuse (the engines do this in their
// post-failure state recovery).
//
//ihtl:noalloc
func (b *Barrier) WaitAbort(p *Pool) bool {
	gen := b.sense.Load()
	if b.arrived.Add(1) == b.n {
		// Last arriver: reset the count for the next generation, then
		// release. Waiters only read sense, so the order is safe.
		b.arrived.Store(0)
		b.sense.Add(1)
		p.wakeParked()
		return true
	}
	for i := 0; i < barrierSpins; i++ {
		if b.sense.Load() != gen {
			return true
		}
	}
	// Park. The sense and the abort flag are re-checked under parkMu,
	// and both the releaser and setAbort broadcast under it after their
	// store, so no wake-up is lost.
	p.parkMu.Lock()
	defer p.parkMu.Unlock()
	for b.sense.Load() == gen {
		if p.Aborted() {
			return false
		}
		p.parked.Wait()
	}
	return true
}

// Reset re-arms a barrier abandoned by an aborted crossing, clearing
// partial arrival counts. It must only be called while no worker is
// inside Wait/WaitAbort (i.e. between dispatches).
func (b *Barrier) Reset() {
	b.arrived.Store(0)
}

// Countdowns is a set of atomic countdown latches, one per item. The
// fused iHTL Step uses one latch per flipped block: every task of the
// block decrements it on completion, and the worker whose decrement
// reaches zero knows all buffer contributions for the block are
// visible (atomic decrements give acquire/release ordering) and merges
// it — the only gating the merge needs, instead of a full barrier
// between the push and merge phases.
type Countdowns struct {
	counts []atomic.Int64
}

// NewCountdowns creates n latches, all at zero; call Reset before use.
func NewCountdowns(n int) *Countdowns {
	return &Countdowns{counts: make([]atomic.Int64, n)}
}

// Reset arms every latch with its count from per (len(per) must equal
// Len). It must not race with Done.
//
//ihtl:noalloc
func (c *Countdowns) Reset(per []int) {
	if len(per) != len(c.counts) {
		panic("sched: Countdowns.Reset length mismatch")
	}
	for i, n := range per {
		c.counts[i].Store(int64(n))
	}
}

// Done records one completion against latch i and reports whether this
// call released it (brought it exactly to zero). Everything written by
// goroutines whose Done calls preceded the releasing one
// happens-before the release, per the Go memory model's atomics
// guarantee.
//
//ihtl:noalloc
func (c *Countdowns) Done(i int) bool {
	return c.counts[i].Add(-1) == 0
}
