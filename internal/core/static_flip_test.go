package core

import (
	"fmt"
	"math"
	"testing"
	"time"

	"ihtl/internal/faultinject"
	"ihtl/internal/gen"
	"ihtl/internal/sched"
)

// staticFlipVariants are the engine configurations the static split of
// the flipped tasks makes bit-for-bit reproducible: the fused pipeline
// over both block encodings. The "phased" variant sets the deprecated
// Phased, which no code reads: it is the default engine again.
var staticFlipVariants = []struct {
	name string
	opt  EngineOptions
}{
	{"fused-flat", EngineOptions{}},
	{"fused-varint", EngineOptions{BlockEncoding: EncodingVarint}},
	{"phased", EngineOptions{Phased: true}},
}

// TestStaticFlippedBitReproducible pins the determinism contract the
// serving layer's replay guarantees are built on: two fresh engines
// over the same topology produce bit-identical vectors after a chain of
// steps (chaining compounds any reassociation drift, so a single step
// passing by luck cannot hide it), and the result still matches the
// reference SpMV to rounding.
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
// of the same input bit-for-bit, because the static task → worker
// split makes every partial sum's operand set — and its order —
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

// TestFaultDelayedFlippedTaskBitIdentical stalls the first flipped task
// of a step by 20 ms (a Delay rule on SiteFlippedTask) and requires the
// step's result to be bit for bit an undelayed run's, at 2 and 3
// workers, for every variant. A schedule that let the other workers take over the stalled
// worker's tasks would fold their partial sums into other buffers, and
// arbitrary floats would show the regrouping. Each variant runs with
// and without the deprecated StaticFlipped, which must change nothing.
func TestFaultDelayedFlippedTaskBitIdentical(t *testing.T) {
	// Scale 13 holds enough flipped edges for several 4096-edge packed
	// chunks, the varint engine's tasks.
	g, err := gen.RMAT(gen.DefaultRMAT(13, 8, 7))
	if err != nil {
		t.Fatal(err)
	}
	ih, err := Build(g, Params{HubsPerBlock: 256})
	if err != nil {
		t.Fatal(err)
	}
	src := randomVec(11, ih.NumV)
	for _, workers := range []int{2, 3} {
		pool := sched.NewPool(workers)
		defer pool.Close()
		for _, variant := range staticFlipVariants {
			ref, err := NewEngineOpts(ih, pool, variant.opt)
			if err != nil {
				t.Fatal(err)
			}
			if len(ref.blockTasks) < 2*workers {
				t.Fatalf("%s: %d flipped tasks, too few for a stalled worker to leave any behind", variant.name, len(ref.blockTasks))
			}
			want := make([]float64, ih.NumV)
			ref.Step(src, want)
			for _, static := range []bool{false, true} {
				opt := variant.opt
				opt.StaticFlipped = static
				label := fmt.Sprintf("w%d/%s/StaticFlipped=%v", workers, variant.name, static)
				e, err := NewEngineOpts(ih, pool, opt)
				if err != nil {
					t.Fatal(err)
				}
				got := make([]float64, ih.NumV)
				e.Step(src, got)
				requireBitIdentical(t, label+" undelayed", want, got)
				plan := faultinject.NewPlan(faultinject.Rule{
					Site: faultinject.SiteFlippedTask, Kind: faultinject.Delay, Delay: 20 * time.Millisecond,
				})
				faultinject.Activate(plan)
				e.Step(src, got)
				faultinject.Deactivate()
				if plan.Fired(faultinject.SiteFlippedTask) != 1 {
					t.Fatalf("%s: the delay fired %d times, want 1", label, plan.Fired(faultinject.SiteFlippedTask))
				}
				requireBitIdentical(t, label+" delayed", want, got)
			}
		}
	}
}
