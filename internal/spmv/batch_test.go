package spmv

import (
	"fmt"
	"math"
	"testing"

	"ihtl/internal/gen"
	"ihtl/internal/sched"
	"ihtl/internal/xrand"
)

func TestSkipZero(t *testing.T) {
	negZero := math.Copysign(0, -1)
	if !SkipZero(0) {
		t.Error("SkipZero(+0.0) = false, want true")
	}
	if SkipZero(negZero) {
		t.Error("SkipZero(-0.0) = true, want false: -0.0 must be traversed")
	}
	if SkipZero(1) || SkipZero(-1) || SkipZero(math.Inf(1)) {
		t.Error("SkipZero skipped a nonzero value")
	}
	if !SkipZeroLanes([]float64{0, 0, 0}) {
		t.Error("SkipZeroLanes(all +0.0) = false, want true")
	}
	if SkipZeroLanes([]float64{0, negZero, 0}) {
		t.Error("SkipZeroLanes with a -0.0 lane = true, want false")
	}
	if SkipZeroLanes([]float64{0, 0, 2}) {
		t.Error("SkipZeroLanes with a nonzero lane = true, want false")
	}
	if !SkipZeroLanes(nil) {
		t.Error("SkipZeroLanes(empty) = false, want true")
	}
}

// batchTestVec mixes small signed integers, +0.0 (skippable) and -0.0
// (must be traversed); all sums are exact, so batched and scalar
// results must match bit-for-bit regardless of scheduling.
func batchTestVec(seed uint64, n int) []float64 {
	rng := xrand.New(seed)
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(int64(rng.Uint64n(9)) - 4)
		if v[i] == 0 && rng.Uint64n(2) == 0 {
			v[i] = math.Copysign(0, -1)
		}
	}
	return v
}

// TestStepBatchMatchesScalar pins every direction's StepBatch with K
// lanes bit-for-bit against K independent scalar Steps.
func TestStepBatchMatchesScalar(t *testing.T) {
	g, err := gen.RMAT(gen.DefaultRMAT(9, 8, 77))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 3} {
		pool := sched.NewPool(workers)
		defer pool.Close()
		for _, dir := range []Direction{Pull, PushAtomic, PushBuffered, PushPartitioned} {
			e, err := NewEngine(g, pool, dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range []int{1, 2, 4, 8} {
				t.Run(fmt.Sprintf("%v/w%d/k%d", dir, workers, k), func(t *testing.T) {
					lanes := make([][]float64, k)
					src := make([]float64, g.NumV*k)
					for j := 0; j < k; j++ {
						lanes[j] = batchTestVec(uint64(100+j), g.NumV)
						for v := 0; v < g.NumV; v++ {
							src[v*k+j] = lanes[j][v]
						}
					}
					want := make([]float64, g.NumV)
					dst := make([]float64, g.NumV*k)
					e.StepBatch(src, dst, k)
					for j := 0; j < k; j++ {
						e.Step(lanes[j], want)
						for v := 0; v < g.NumV; v++ {
							if math.Float64bits(dst[v*k+j]) != math.Float64bits(want[v]) {
								t.Fatalf("lane %d vertex %d: got %v want %v",
									j, v, dst[v*k+j], want[v])
							}
						}
					}
					// Repeat at the same width: buffers must have been left
					// reusable (PushBuffered's K-wide buffers are cached).
					e.StepBatch(src, dst, k)
					for j := 0; j < k; j++ {
						e.Step(lanes[j], want)
						for v := 0; v < g.NumV; v++ {
							if math.Float64bits(dst[v*k+j]) != math.Float64bits(want[v]) {
								t.Fatalf("second batch: lane %d vertex %d: got %v want %v",
									j, v, dst[v*k+j], want[v])
							}
						}
					}
				})
			}
		}
	}
}

func TestStepBatchPanics(t *testing.T) {
	g, err := gen.RMAT(gen.DefaultRMAT(5, 4, 3))
	if err != nil {
		t.Fatal(err)
	}
	pool := sched.NewPool(2)
	defer pool.Close()
	e, err := NewEngine(g, pool, Pull, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mustPanic := func(label string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", label)
			}
		}()
		fn()
	}
	mustPanic("k=0", func() { e.StepBatch(nil, nil, 0) })
	mustPanic("short src", func() {
		e.StepBatch(make([]float64, g.NumV), make([]float64, g.NumV*2), 2)
	})
	mustPanic("short dst", func() {
		e.StepBatch(make([]float64, g.NumV*2), make([]float64, g.NumV), 2)
	})
}
