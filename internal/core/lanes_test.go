package core

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"ihtl/internal/faultinject"
	"ihtl/internal/gen"
	"ihtl/internal/sched"
)

// laneInputs returns k lane vectors of small integers with the rows
// that sit on the K-lane kernels' edges written over them, and their
// vertex-major interleave:
//
//	v%61 == 0  every lane +0.0 (the row SkipZeroLanes skips)
//	v%61 == 1  +0.0 but for -0.0 in lane v%k (must not be skipped)
//	v%61 == 2  +Inf in lane 0
//	v%61 == 3  -Inf in lane 0 (so hubs see Inf-Inf)
//	v%61 == 4  a NaN with a payload in lane k-1
//
// Every sum stays independent of the order of its terms — integers add
// exactly, the infinities meet only each other and integers, the one
// NaN payload only itself — so lane j of a StepBatch must equal a
// scalar Step on lane j bit for bit under every schedule.
func laneInputs(seed uint64, n, k int) (lanes [][]float64, batch []float64) {
	lanes, batch = packLanes(seed, n, k)
	nan := math.Float64frombits(0x7ff8_0000_0000_beef)
	for v := 0; v < n; v++ {
		row := batch[v*k : v*k+k]
		switch v % 61 {
		case 0:
			clear(row)
		case 1:
			clear(row)
			row[v%k] = math.Copysign(0, -1)
		case 2:
			row[0] = math.Inf(1)
		case 3:
			row[0] = math.Inf(-1)
		case 4:
			row[k-1] = nan
		}
		for j, x := range row {
			lanes[j][v] = x
		}
	}
	return lanes, batch
}

// laneStepper is what the single and the sharded engine share here;
// both step in their own ID space, scalar and batched alike.
type laneStepper interface {
	Step(src, dst []float64)
	StepBatch(src, dst []float64, k int)
}

// requireLanesMatchScalar steps every lane through e's scalar Step and
// requires lane j of batch dst to hold exactly those bits.
func requireLanesMatchScalar(t *testing.T, e laneStepper, lanes [][]float64, dst []float64) {
	t.Helper()
	n, k := len(lanes[0]), len(lanes)
	want, got := make([]float64, n), make([]float64, n)
	for j := range lanes {
		e.Step(lanes[j], want)
		for v := range got {
			got[v] = dst[v*k+j]
		}
		requireBitIdentical(t, fmt.Sprintf("lane %d", j), want, got)
	}
}

// TestLaneKernelsMatchScalarStep is the differential table of the
// K-lane kernels: the fixed-width bodies (flat at 8, packed at 4), the
// run-time-K loop at the same widths on the other encoding and at their
// neighbours (2, 3, 5, 9), both pipelines, stolen and pinned flipped
// tasks, 1-3 workers — StepBatch lane j ==
// scalar Step on lane j. On the web graph the scalar engine walks its
// short-row blocks edge-major, so a different loop shape is the oracle
// for the CSR lane kernels.
func TestLaneKernelsMatchScalarStep(t *testing.T) {
	graphs := diffGraphs(t)
	for _, name := range []string{"rmat", "web"} {
		ih, err := Build(graphs[name], Params{HubsPerBlock: 64})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 3} {
			pool := sched.NewPool(workers)
			defer pool.Close()
			for _, enc := range []BlockEncoding{EncodingFlat, EncodingVarint} {
				for _, phased := range []bool{false, true} {
					for _, static := range []bool{false, true} {
						e, err := NewEngineOpts(ih, pool, EngineOptions{BlockEncoding: enc, Phased: phased, StaticFlipped: static})
						if err != nil {
							t.Fatal(err)
						}
						for _, k := range []int{2, 3, 4, 5, 8, 9} {
							t.Run(fmt.Sprintf("%s/w%d/%v/phased=%v/static=%v/k%d", name, workers, enc, phased, static, k), func(t *testing.T) {
								lanes, src := laneInputs(42, ih.NumV, k)
								dst := make([]float64, ih.NumV*k)
								e.StepBatch(src, dst, k)
								requireLanesMatchScalar(t, e, lanes, dst)
							})
						}
					}
				}
			}
		}
	}
}

// TestStepBatchWidthChangeAllocatesNothing pins ensureBatch's
// grow-and-reslice: the daemon runs k = lanes-in-this-batch, so widths
// alternate step by step, and after one round has seen the widest
// width another round must allocate nothing and still match the scalar
// Step (the resliced buffers were left all-zero). AtomicFlipped has no
// buffers but recomputes its clear bounds per width; the sharded engine
// reslices every shard's state and its exchange values.
func TestStepBatchWidthChangeAllocatesNothing(t *testing.T) {
	g, err := gen.RMAT(gen.DefaultRMAT(9, 8, 5))
	if err != nil {
		t.Fatal(err)
	}
	ih, err := Build(g, Params{HubsPerBlock: 64})
	if err != nil {
		t.Fatal(err)
	}
	engines := map[string]laneStepper{}
	for name, opt := range map[string]EngineOptions{
		"default": {}, "pb": {SparseKernel: SparsePB}, "atomic": {AtomicFlipped: true}, "varint": {BlockEncoding: EncodingVarint},
	} {
		if engines[name], err = NewEngineOpts(ih, testPool, opt); err != nil {
			t.Fatal(err)
		}
	}
	sg, err := BuildSharded(g, Params{HubsPerBlock: 64}, testPool, 2)
	if err != nil {
		t.Fatal(err)
	}
	if engines["sharded"], err = NewShardedEngine(sg, testPool); err != nil {
		t.Fatal(err)
	}
	widths := []int{4, 2, 8, 3, 4}
	for name, e := range engines {
		lanes, src, dst := make([][][]float64, len(widths)), make([][]float64, len(widths)), make([][]float64, len(widths))
		for i, k := range widths {
			lanes[i], src[i] = laneInputs(uint64(7+i), g.NumV, k)
			dst[i] = make([]float64, g.NumV*k)
		}
		round := func() {
			for i, k := range widths {
				e.StepBatch(src[i], dst[i], k)
			}
		}
		round()
		if allocs := testing.AllocsPerRun(5, round); allocs != 0 {
			t.Errorf("%s: a round of widths %v allocates %.1f objects after the first, want 0", name, widths, allocs)
		}
		for i := range widths {
			requireLanesMatchScalar(t, e, lanes[i], dst[i])
		}
	}
}

// TestStepBatchFaultThenWidthChange aborts a wide step with its hub
// buffers dirty, then steps narrower and wide again: recoverState must
// leave nothing in the lanes that the second wide step reslices in.
func TestStepBatchFaultThenWidthChange(t *testing.T) {
	e, _ := faultTestEngine(t, EngineOptions{})
	n := e.NumVertices()
	_, src := laneInputs(11, n, 8)
	plan := faultinject.NewPlan(faultinject.Rule{Site: faultinject.SiteMergeBlock, Kind: faultinject.Panic})
	faultinject.Activate(plan)
	err := e.StepBatchCtx(nil, src, make([]float64, n*8), 8)
	faultinject.Deactivate()
	var ip *faultinject.InjectedPanic
	if !errors.As(err, &ip) {
		t.Fatalf("err = %v, want the injected panic", err)
	}
	for _, k := range []int{4, 8} {
		lanes, src := laneInputs(uint64(12+k), n, k)
		dst := make([]float64, n*k)
		e.StepBatch(src, dst, k)
		requireLanesMatchScalar(t, e, lanes, dst)
	}
}
