package spmv

import (
	"fmt"
	"testing"

	"ihtl/internal/gen"
	"ihtl/internal/sched"
)

// TestStepAllocFree pins the steady-state allocation count of every
// baseline engine's Step and StepBatch at zero: after the first call
// warms lazily-sized state (the batched buffered engine grows its
// per-worker buffers on first use of a lane width), repeated dispatches
// must not allocate. This is the runtime counterpart of the ihtlvet
// noalloc pass — the static pass proves the annotated bodies cannot
// allocate, this test proves the whole dispatch path (pool fan-out
// included) stays allocation-free.
func TestStepAllocFree(t *testing.T) {
	g, err := gen.RMAT(gen.DefaultRMAT(8, 8, 42))
	if err != nil {
		t.Fatal(err)
	}
	pool := sched.NewPool(2)
	defer pool.Close()

	const k = 4
	src := batchTestVec(7, g.NumV)
	dst := make([]float64, g.NumV)
	srcK := batchTestVec(8, g.NumV*k)
	dstK := make([]float64, g.NumV*k)

	for _, dir := range []Direction{Pull, PushAtomic, PushBuffered, PushPartitioned} {
		e, err := NewEngine(g, pool, dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Run(fmt.Sprintf("%v/Step", dir), func(t *testing.T) {
			e.Step(src, dst)
			if n := testing.AllocsPerRun(5, func() { e.Step(src, dst) }); n != 0 {
				t.Errorf("Step allocates %v times per call, want 0", n)
			}
		})
		t.Run(fmt.Sprintf("%v/StepBatch", dir), func(t *testing.T) {
			e.StepBatch(srcK, dstK, k)
			if n := testing.AllocsPerRun(5, func() { e.StepBatch(srcK, dstK, k) }); n != 0 {
				t.Errorf("StepBatch(k=%d) allocates %v times per call, want 0", k, n)
			}
		})
	}
}
