package core

import (
	"math"
	"testing"

	"ihtl/internal/gen"
)

// staticFlipVariants are the engine configurations StaticFlipped
// promises bit-for-bit reproducibility for: the fused pipeline over
// both block encodings, and the phased ablation pipeline.
var staticFlipVariants = []struct {
	name string
	opt  EngineOptions
}{
	{"fused-flat", EngineOptions{StaticFlipped: true}},
	{"fused-varint", EngineOptions{StaticFlipped: true, BlockEncoding: EncodingVarint}},
	{"phased", EngineOptions{StaticFlipped: true, Phased: true}},
}

// TestStaticFlippedBitReproducible pins the determinism contract the
// serving layer's replay guarantees are built on: with StaticFlipped,
// two fresh engines over the same topology produce bit-identical
// vectors after a chain of steps (chaining compounds any reassociation
// drift, so a single step passing by luck cannot hide it), and the
// result still matches the reference SpMV to rounding.
func TestStaticFlippedBitReproducible(t *testing.T) {
	g, err := gen.RMAT(gen.DefaultRMAT(10, 8, 21))
	if err != nil {
		t.Fatal(err)
	}
	ih, err := Build(g, Params{HubsPerBlock: 64})
	if err != nil {
		t.Fatal(err)
	}
	src := randomVec(7, ih.NumV)
	const steps = 6
	for _, variant := range staticFlipVariants {
		t.Run(variant.name, func(t *testing.T) {
			run := func() []float64 {
				e, err := NewEngineOpts(ih, testPool, variant.opt)
				if err != nil {
					t.Fatal(err)
				}
				x := make([]float64, ih.NumV)
				y := make([]float64, ih.NumV)
				copy(x, src)
				for s := 0; s < steps; s++ {
					e.Step(x, y)
					// Keep magnitudes bounded so late steps still
					// exercise low-order mantissa bits.
					for v := range y {
						y[v] = y[v]/float64(len(g.In(0))+8) + src[v]
					}
					x, y = y, x
				}
				return x
			}
			a, b := run(), run()
			for v := range a {
				if math.Float64bits(a[v]) != math.Float64bits(b[v]) {
					t.Fatalf("run-to-run drift at vertex %d: %v vs %v", v, a[v], b[v])
				}
			}
			want := referenceStep(g, original(ih, src))
			got := original(ih, singleStep(t, ih, variant.opt, src))
			for v := range want {
				if math.Abs(got[v]-want[v]) > 1e-9*(math.Abs(want[v])+1) {
					t.Fatalf("vertex %d: %v, reference %v", v, got[v], want[v])
				}
			}
		})
	}
}

func singleStep(t *testing.T, ih *IHTL, opt EngineOptions, src []float64) []float64 {
	t.Helper()
	e, err := NewEngineOpts(ih, testPool, opt)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]float64, ih.NumV)
	e.Step(src, dst)
	return dst
}

// original maps an engine-ID-space vector back to original vertex IDs.
func original(ih *IHTL, x []float64) []float64 {
	out := make([]float64, len(x))
	for nv, old := range ih.OldID {
		out[old] = x[nv]
	}
	return out
}

// TestStaticFlippedBatchLanesMatchScalar pins the property coalesced
// serving leans on: lane j of a K-wide StepBatch equals a scalar Step
// of the same input bit-for-bit, because the pinned task → worker
// assignment makes every partial sum's operand set — and its order —
// identical across K.
func TestStaticFlippedBatchLanesMatchScalar(t *testing.T) {
	const k = 3
	g, err := gen.RMAT(gen.DefaultRMAT(9, 8, 33))
	if err != nil {
		t.Fatal(err)
	}
	ih, err := Build(g, Params{HubsPerBlock: 64}.ForBatch(k))
	if err != nil {
		t.Fatal(err)
	}
	for _, variant := range staticFlipVariants {
		t.Run(variant.name, func(t *testing.T) {
			e, err := NewEngineOpts(ih, testPool, variant.opt)
			if err != nil {
				t.Fatal(err)
			}
			n := ih.NumV
			lanes := make([][]float64, k)
			bsrc := make([]float64, n*k)
			bdst := make([]float64, n*k)
			for j := 0; j < k; j++ {
				lanes[j] = randomVec(uint64(100+j), n)
				for v := 0; v < n; v++ {
					bsrc[v*k+j] = lanes[j][v]
				}
			}
			e.StepBatch(bsrc, bdst, k)
			dst := make([]float64, n)
			for j := 0; j < k; j++ {
				e.Step(lanes[j], dst)
				for v := 0; v < n; v++ {
					if math.Float64bits(bdst[v*k+j]) != math.Float64bits(dst[v]) {
						t.Fatalf("lane %d vertex %d: batch %v, scalar %v", j, v, bdst[v*k+j], dst[v])
					}
				}
			}
		})
	}
}
