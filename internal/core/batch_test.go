package core

import (
	"testing"

	"ihtl/internal/gen"
	"ihtl/internal/spmv"
)

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
	src := integerVec(7, ih.NumV*k)
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
	src := integerVec(3, ih.NumV*k)
	dst := make([]float64, ih.NumV*k)
	for i := 0; i < 3; i++ { // warm worker stacks and the batch state
		e.StepBatch(src, dst, k)
	}
	if allocs := testing.AllocsPerRun(20, func() { e.StepBatch(src, dst, k) }); allocs != 0 {
		t.Errorf("fused StepBatch allocates %.1f objects per run, want 0", allocs)
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
	batch := integerVec(5, ih.NumV*k)
	fwd := make([]float64, ih.NumV*k)
	back := make([]float64, ih.NumV*k)
	ih.PermuteToNewBatch(batch, fwd, k)
	laneNew := make([]float64, ih.NumV)
	for j := 0; j < k; j++ {
		ih.PermuteToNew(laneOf(batch, k, j), laneNew)
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
