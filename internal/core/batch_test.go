package core

import (
	"fmt"
	"testing"

	"ihtl/internal/gen"
	"ihtl/internal/sched"
	"ihtl/internal/spmv"
)

// packLanes interleaves k integer-valued vectors (distinct seeds) into
// a vertex-major batch of length n*k, returning both forms.
func packLanes(seed uint64, n, k int) (lanes [][]float64, batch []float64) {
	lanes = make([][]float64, k)
	batch = make([]float64, n*k)
	for j := 0; j < k; j++ {
		lanes[j] = integerVec(seed+uint64(j)*7919, n)
		for v := 0; v < n; v++ {
			batch[v*k+j] = lanes[j][v]
		}
	}
	return lanes, batch
}

// TestStepBatchDifferential pins StepBatch with K lanes bit-for-bit
// against K independent scalar Steps, across graphs, worker counts and
// batch widths, at default options (TestLaneKernelsMatchScalarStep
// crosses the option matrix). The phased=true rows build their engine
// with the deprecated Phased set, which no code reads. Integer-valued
// sources make float addition exact and associative, so the results
// are schedule-independent (see fused_diff_test.go).
func TestStepBatchDifferential(t *testing.T) {
	for name, g := range diffGraphs(t) {
		ih, err := Build(g, Params{HubsPerBlock: 64})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 3} {
			pool := sched.NewPool(workers)
			defer pool.Close()
			for _, phased := range []bool{false, true} {
				e, err := NewEngineOpts(ih, pool, EngineOptions{Phased: phased})
				if err != nil {
					t.Fatal(err)
				}
				for _, k := range []int{1, 2, 4, 8} {
					// The literal "atomic=false" keeps these subtests under
					// the names the recorded test floor knows them by.
					label := fmt.Sprintf("%s/w%d/phased=%v atomic=false/k%d", name, workers, phased, k)
					t.Run(label, func(t *testing.T) {
						lanes, src := packLanes(42, ih.NumV, k)
						want := make([][]float64, k)
						for j := 0; j < k; j++ {
							want[j] = make([]float64, ih.NumV)
							e.Step(lanes[j], want[j])
						}
						dst := make([]float64, ih.NumV*k)
						e.StepBatch(src, dst, k)
						got := make([]float64, ih.NumV)
						for j := 0; j < k; j++ {
							for v := 0; v < ih.NumV; v++ {
								got[v] = dst[v*k+j]
							}
							requireBitIdentical(t, fmt.Sprintf("lane %d", j), want[j], got)
						}
						// A second StepBatch must match too: it proves the
						// K-wide buffers, dirty ranges and gates were left
						// clean by the first batched iteration.
						e.StepBatch(src, dst, k)
						for j := 0; j < k; j++ {
							for v := 0; v < ih.NumV; v++ {
								got[v] = dst[v*k+j]
							}
							requireBitIdentical(t, fmt.Sprintf("lane %d (second)", j), want[j], got)
						}
					})
				}
			}
		}
	}
}

// TestStepBatchWidthChange exercises the batch-state rebuild when the
// width changes mid-engine, including dropping back to scalar Steps.
func TestStepBatchWidthChange(t *testing.T) {
	g, err := gen.RMAT(gen.DefaultRMAT(8, 8, 3))
	if err != nil {
		t.Fatal(err)
	}
	ih, err := Build(g, Params{HubsPerBlock: 32})
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(ih, testPool)
	if err != nil {
		t.Fatal(err)
	}
	scalarSrc := integerVec(9, ih.NumV)
	want := make([]float64, ih.NumV)
	e.Step(scalarSrc, want)
	got := make([]float64, ih.NumV)
	for _, k := range []int{4, 2, 8, 1} {
		src := make([]float64, ih.NumV*k)
		dst := make([]float64, ih.NumV*k)
		for v := 0; v < ih.NumV; v++ {
			for j := 0; j < k; j++ {
				src[v*k+j] = scalarSrc[v]
			}
		}
		e.StepBatch(src, dst, k)
		for j := 0; j < k; j++ {
			for v := 0; v < ih.NumV; v++ {
				got[v] = dst[v*k+j]
			}
			requireBitIdentical(t, fmt.Sprintf("k=%d lane %d", k, j), want, got)
		}
		e.Step(scalarSrc, got) // scalar path must stay intact between widths
		requireBitIdentical(t, fmt.Sprintf("scalar after k=%d", k), want, got)
	}
}

// TestStepBatchEpi checks the fused batched epilogue contract of
// StepCtx on a flipped engine: every slot is run exactly once, after all
// of dst (all lanes) is complete.
func TestStepBatchEpi(t *testing.T) {
	g, err := gen.RMAT(gen.DefaultRMAT(9, 8, 21))
	if err != nil {
		t.Fatal(err)
	}
	ih, err := Build(g, Params{HubsPerBlock: 64})
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(ih, testPool)
	if err != nil {
		t.Fatal(err)
	}
	const k = 4
	_, src := packLanes(7, ih.NumV, k)
	dst := make([]float64, ih.NumV*k)
	want := make([]float64, ih.NumV*k)
	e.StepBatch(src, want, k)
	covered := make([]int32, ih.NumV)
	err = e.StepCtx(nil, src, dst, k, spmv.Epilogue{Run: func(w, lo, hi int) {
		for v := lo; v < hi; v++ {
			covered[v]++
			for j := 0; j < k; j++ {
				// dst must already hold the finished SpMV value;
				// scale in place to prove the epilogue ran after.
				dst[v*k+j] *= 2
			}
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < ih.NumV; v++ {
		if covered[v] != 1 {
			t.Fatalf("vertex %d covered %d times, want 1", v, covered[v])
		}
		for j := 0; j < k; j++ {
			if dst[v*k+j] != 2*want[v*k+j] {
				t.Fatalf("epilogue saw incomplete dst at v=%d lane=%d", v, j)
			}
		}
	}
}

// TestStepBatchAllocationFree pins the fused batched pipeline's
// zero-allocation steady state at a stable width.
func TestStepBatchAllocationFree(t *testing.T) {
	g, err := gen.RMAT(gen.DefaultRMAT(9, 8, 5))
	if err != nil {
		t.Fatal(err)
	}
	ih, err := Build(g, Params{HubsPerBlock: 64})
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(ih, testPool)
	if err != nil {
		t.Fatal(err)
	}
	const k = 4
	_, src := packLanes(3, ih.NumV, k)
	dst := make([]float64, ih.NumV*k)
	for i := 0; i < 3; i++ { // warm worker stacks and the batch state
		e.StepBatch(src, dst, k)
	}
	if allocs := testing.AllocsPerRun(20, func() { e.StepBatch(src, dst, k) }); allocs != 0 {
		t.Errorf("fused StepBatch allocates %.1f objects per run, want 0", allocs)
	}
}

// TestStepBatchMergeStress hammers the K-wide countdown-gated merge
// with many workers and repeated batched iterations; run under -race
// (CI does) it checks the merge's happens-before edges for K-wide
// buffers exactly as the scalar stress does for scalar ones.
func TestStepBatchMergeStress(t *testing.T) {
	g, err := gen.RMAT(gen.DefaultRMAT(10, 8, 13))
	if err != nil {
		t.Fatal(err)
	}
	ih, err := Build(g, Params{HubsPerBlock: 32})
	if err != nil {
		t.Fatal(err)
	}
	pool := sched.NewPool(8)
	defer pool.Close()
	e, err := NewEngine(ih, pool)
	if err != nil {
		t.Fatal(err)
	}
	const k = 4
	_, src := packLanes(17, ih.NumV, k)
	dst := make([]float64, ih.NumV*k)
	want := make([]float64, ih.NumV*k)
	e.StepBatch(src, want, k)
	iters := 30
	if testing.Short() {
		iters = 8
	}
	for i := 0; i < iters; i++ {
		e.StepBatch(src, dst, k)
		requireBitIdentical(t, fmt.Sprintf("iter %d", i), want, dst)
	}
}

// TestPermuteBatchRoundTrip checks the batched relabeling helpers
// against their scalar counterparts and each other.
func TestPermuteBatchRoundTrip(t *testing.T) {
	g, err := gen.RMAT(gen.DefaultRMAT(8, 6, 31))
	if err != nil {
		t.Fatal(err)
	}
	ih, err := Build(g, Params{HubsPerBlock: 32})
	if err != nil {
		t.Fatal(err)
	}
	const k = 3
	lanes, batch := packLanes(5, ih.NumV, k)
	fwd := make([]float64, ih.NumV*k)
	back := make([]float64, ih.NumV*k)
	ih.PermuteToNewBatch(batch, fwd, k)
	laneNew := make([]float64, ih.NumV)
	for j := 0; j < k; j++ {
		ih.PermuteToNew(lanes[j], laneNew)
		for v := 0; v < ih.NumV; v++ {
			if fwd[v*k+j] != laneNew[v] {
				t.Fatalf("PermuteToNewBatch lane %d differs at %d", j, v)
			}
		}
	}
	ih.PermuteToOldBatch(fwd, back, k)
	requireBitIdentical(t, "round trip", batch, back)
}

// TestParamsForBatch checks the K-wide cache-budget adjustment.
func TestParamsForBatch(t *testing.T) {
	p := Params{}.ForBatch(4)
	if got := p.withDefaults().HubsPerBlock; got != DefaultL2Bytes/(DefaultVertexBytes*4) {
		t.Errorf("ForBatch(4) derived B = %d, want %d", got, DefaultL2Bytes/(DefaultVertexBytes*4))
	}
	if p := (Params{HubsPerBlock: 1000}).ForBatch(8); p.HubsPerBlock != 125 {
		t.Errorf("explicit B: got %d, want 125", p.HubsPerBlock)
	}
	if p := (Params{HubsPerBlock: 4}).ForBatch(16); p.HubsPerBlock != 1 {
		t.Errorf("B floor: got %d, want 1", p.HubsPerBlock)
	}
	if p := (Params{HubsPerBlock: 77}).ForBatch(1); p.HubsPerBlock != 77 {
		t.Errorf("k=1 must be identity, got %d", p.HubsPerBlock)
	}
}
