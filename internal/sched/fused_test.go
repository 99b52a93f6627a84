package sched

import (
	"sync/atomic"
	"testing"
)

// TestBarrierPhases checks the happens-before guarantee across many
// reused generations: every worker's plain (non-atomic) write before
// generation g must be visible to every worker after it. Run under
// -race this also validates the barrier against the race detector's
// modelling of the atomics involved.
func TestBarrierPhases(t *testing.T) {
	const workers = 5
	const phases = 500
	p := NewPool(workers)
	defer p.Close()
	b := NewBarrier(workers)
	cells := make([]int, workers)
	var mismatches atomic.Int64
	p.Run(func(w int) {
		for phase := 1; phase <= phases; phase++ {
			cells[w] = phase
			b.WaitAbort(p)
			sum := 0
			for _, c := range cells {
				sum += c
			}
			if sum != phase*workers {
				mismatches.Add(1)
			}
			// Second barrier so no worker races ahead into the next
			// phase's writes while peers still read this one.
			b.WaitAbort(p)
		}
	})
	if n := mismatches.Load(); n != 0 {
		t.Fatalf("%d phase sums were wrong: writes not ordered by Barrier.WaitAbort", n)
	}
}

func TestBarrierRejectsZeroParticipants(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewBarrier(0) did not panic")
		}
	}()
	NewBarrier(0)
}

// TestCountdownsGateStress models the fused engine's merge gating: for
// each latch, workers accumulate plain (non-atomic) contributions into
// per-worker buffers and count down; whichever worker releases the
// latch sums ALL workers' buffers for it. Correct totals — and a clean
// -race run — require the Done release to order every contributor's
// prior writes before the releaser's reads, exactly the property the
// engine's per-block merge relies on.
func TestCountdownsGateStress(t *testing.T) {
	const workers = 4
	const items = 64
	const perItem = 9
	p := NewPool(workers)
	defer p.Close()
	c := NewCountdowns(items)
	arm := make([]int, items)
	for i := range arm {
		arm[i] = perItem
	}
	bufs := make([][]int, workers)
	for w := range bufs {
		bufs[w] = make([]int, items)
	}
	results := make([]int, items)

	for round := 0; round < 50; round++ {
		c.Reset(arm)
		clear(results)
		p.ForSteal(items*perItem, 1, func(w, lo, hi int) {
			for task := lo; task < hi; task++ {
				item := task % items
				bufs[w][item]++ // plain write, ordered only by Done
				if c.Done(item) {
					sum := 0
					for t := 0; t < workers; t++ {
						sum += bufs[t][item]
						bufs[t][item] = 0
					}
					results[item] = sum
				}
			}
		})
		for i, r := range results {
			if r != perItem {
				t.Fatalf("round %d: item %d summed %d contributions, want %d", round, i, r, perItem)
			}
		}
	}
}

func TestCountdownsResetLengthMismatchPanics(t *testing.T) {
	c := NewCountdowns(3)
	defer func() {
		if recover() == nil {
			t.Fatal("Reset with wrong length did not panic")
		}
	}()
	c.Reset([]int{1, 2})
}

// TestForStealWithReusesScheduler checks coverage and reuse across
// many loops over one caller-owned scheduler.
func TestForStealWithReusesScheduler(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	s := NewStealScheduler(p.Workers())
	for _, n := range []int{0, 1, 5, 1000, 4096} {
		coverageCheck(t, n, func(mark func(int)) {
			p.ForStealWith(s, n, 7, func(w, lo, hi int) {
				for i := lo; i < hi; i++ {
					mark(i)
				}
			})
		})
	}
}

func TestForStealWithWrongWorkerCountPanics(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	s := NewStealScheduler(3)
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched scheduler did not panic")
		}
	}()
	p.ForStealWith(s, 10, 1, func(w, lo, hi int) {})
}

// TestForStealAllocationFree pins the satellite fix: ForSteal reuses
// the pool's scheduler and the pool's completion WaitGroup, so a
// steady-state loop allocates nothing (the closure below is hoisted
// out of the measured region).
func TestForStealAllocationFree(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	fn := func(w, lo, hi int) {}
	p.ForSteal(1<<12, 64, fn) // warm worker stacks
	if allocs := testing.AllocsPerRun(50, func() { p.ForSteal(1<<12, 64, fn) }); allocs != 0 {
		t.Errorf("ForSteal allocates %.1f objects per run, want 0", allocs)
	}
	s := NewStealScheduler(p.Workers())
	if allocs := testing.AllocsPerRun(50, func() { p.ForStealWith(s, 1<<12, 64, fn) }); allocs != 0 {
		t.Errorf("ForStealWith allocates %.1f objects per run, want 0", allocs)
	}
}

// TestRunAllocationFree pins the fused-dispatch foundation: Run itself
// must not allocate per call (prebuilt worker body, reused WaitGroup).
func TestRunAllocationFree(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	var count atomic.Int64
	fn := func(w int) { count.Add(1) }
	p.Run(fn)
	if allocs := testing.AllocsPerRun(50, func() { p.Run(fn) }); allocs != 0 {
		t.Errorf("Run allocates %.1f objects per run, want 0", allocs)
	}
}

// TestPoolDispatchSequence guards the reused completion WaitGroup:
// dispatches from one orchestrator, back to back, must all complete
// with full worker participation.
func TestPoolDispatchSequence(t *testing.T) {
	p := NewPool(3)
	defer p.Close()
	var total atomic.Int64
	for i := 0; i < 200; i++ {
		p.Run(func(w int) { total.Add(1) })
		p.ForSteal(10, 1, func(w, lo, hi int) { total.Add(int64(hi - lo)) })
	}
	if got := total.Load(); got != 200*(3+10) {
		t.Fatalf("total = %d, want %d", got, 200*(3+10))
	}
}
