package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"ihtl/internal/faultinject"
	"ihtl/internal/gen"
	"ihtl/internal/graph"
	"ihtl/internal/sched"
	"ihtl/internal/spmv"
)

// laneInputs returns k lane vectors of small integers with the rows
// that sit on the K-lane kernels' edges written over them, and their
// vertex-major interleave:
//
//	v%61 == 0  every lane +0.0 (the row SkipZeroLanes skips)
//	v%61 == 1  +0.0 but for -0.0 in lane v%k (must not be skipped)
//	v%61 == 2  +Inf in lane 0
//	v%61 == 3  -Inf in lane 0 (so hubs see Inf-Inf)
//	v%61 == 4  a NaN with a payload in lane k-1 (k > 1)
//
// Every sum stays independent of the order of its terms — integers add
// exactly, the infinities meet only each other and integers, the one
// NaN payload only itself — so lane j of a StepBatch must equal a
// scalar Step on lane j bit for bit under every schedule.
func laneInputs(seed uint64, n, k int) (lanes [][]float64, batch []float64) {
	batch = integerVec(seed, n*k)
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
			if k > 1 { // at one lane it would meet lane 0's Inf-Inf, and which NaN survives depends on the order
				row[k-1] = nan
			}
		}
	}
	for j := 0; j < k; j++ {
		lanes = append(lanes, laneOf(batch, k, j))
	}
	return lanes, batch
}

// asmArms names the arms of the kernels with an assembly body that
// this build and CPU can run: "asm" (the per-process choice) and then
// "go" (the Go twins, forced with ForceGoTwins) where any assembly body
// runs, else "go" alone. The per-process choice is put back when t
// ends.
func asmArms(t *testing.T) []string {
	t.Cleanup(func() { ForceGoTwins(false) })
	if ForceGoTwins(false) {
		return []string{"asm", "go"}
	}
	return []string{"go"}
}

// requireLanesMatchScalar steps every lane through e's scalar Step and
// requires lane j of batch dst to hold exactly those bits.
func requireLanesMatchScalar(t *testing.T, e *Engine, lanes [][]float64, dst []float64) {
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
// neighbours (2, 3, 5, 9), both pipelines, 1-3 workers — StepBatch
// lane j == scalar Step on lane j. The scalar Steps run on the batch's
// own engine ("static=false" rows) and on a second engine built with the
// same options ("static=true" rows): the static split of the flipped
// tasks makes the bits a function of the topology and the worker count,
// not of the engine, which is what lets a daemon slot's coalesced lane
// equal a solo run on another slot. Widths 4 and 8 run once more with
// the Go twins forced where the flat cells run assembly (the
// "/go-twins" rows). On the web graph the scalar engine walks its
// short-row blocks edge-major, so a different loop shape is the oracle
// for the CSR lane kernels.
func TestLaneKernelsMatchScalarStep(t *testing.T) {
	graphs := diffGraphs(t)
	arms := asmArms(t)
	for _, name := range []string{"rmat", "web"} {
		ih, err := Build(graphs[name], Params{HubsPerBlock: 64})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 3} {
			pool := sched.NewPool(workers)
			defer pool.Close()
			// The watchdog has its own lane table (the alternation
			// differential). The phased=true rows build both engines
			// with the deprecated Phased set, which no code reads.
			for _, opt := range optionMatrix(t, func(o EngineOptions) bool {
				return o.Health == spmv.HealthPolicy{}
			}) {
				for _, phased := range []bool{false, true} {
					opt.Phased = phased
					e, err := NewEngineOpts(ih, pool, opt)
					if err != nil {
						t.Fatal(err)
					}
					other, err := NewEngineOpts(ih, pool, opt)
					if err != nil {
						t.Fatal(err)
					}
					for _, k := range []int{2, 3, 4, 5, 8, 9} {
						for _, arm := range arms {
							for _, scalar := range []*Engine{e, other} {
								label := fmt.Sprintf("%s/w%d/%v/phased=%v/static=%v/k%d", name, workers, e.encoding, phased, scalar == other, k)
								if arm != arms[0] {
									if k != 4 && k != 8 {
										continue
									}
									label += "/go-twins"
								}
								t.Run(label, func(t *testing.T) {
									ForceGoTwins(arm == "go")
									defer ForceGoTwins(false)
									lanes, src := laneInputs(42, ih.NumV, k)
									dst := make([]float64, ih.NumV*k)
									e.StepBatch(src, dst, k)
									requireLanesMatchScalar(t, scalar, lanes, dst)
								})
							}
						}
					}
				}
			}
		}
	}
}

// TestStepBatchWidthChangeAllocatesNothing pins setWidth's
// grow-and-reslice: the daemon runs k = lanes-in-this-batch, so widths
// alternate step by step — one lane among them, which steps through the
// same buffers — and after one round has seen the widest width another
// round must allocate nothing and still match the scalar Step (the
// resliced buffers were left all-zero). Every fused kernel and encoding
// of the option matrix.
func TestStepBatchWidthChangeAllocatesNothing(t *testing.T) {
	g, err := gen.RMAT(gen.DefaultRMAT(9, 8, 5))
	if err != nil {
		t.Fatal(err)
	}
	ih, err := Build(g, Params{HubsPerBlock: 64})
	if err != nil {
		t.Fatal(err)
	}
	engines := map[string]*Engine{}
	for _, opt := range optionMatrix(t, func(o EngineOptions) bool {
		return o.Health == spmv.HealthPolicy{}
	}) {
		if engines[optLabel(opt)], err = NewEngineOpts(ih, testPool, opt); err != nil {
			t.Fatal(err)
		}
	}
	widths := []int{4, 2, 8, 1, 3, 4}
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

// TestStepBatch8AllocatesNothing pins zero allocations for a width-8
// StepBatch, the width of the flat push and pull cells, on a graph that
// flips and on a resident one, under each arm of those cells.
func TestStepBatch8AllocatesNothing(t *testing.T) {
	g, err := gen.RMAT(gen.DefaultRMAT(9, 8, 5))
	if err != nil {
		t.Fatal(err)
	}
	arms := asmArms(t)
	for _, build := range []struct {
		name string
		p    Params
	}{{"flipped", Params{HubsPerBlock: 64}}, {"resident", Params{}}} {
		ih, err := Build(g, build.p)
		if err != nil {
			t.Fatal(err)
		}
		if flips := len(ih.Blocks) > 0; flips != (build.name == "flipped") {
			t.Fatalf("%s: built %d flipped blocks", build.name, len(ih.Blocks))
		}
		e, err := NewEngine(ih, testPool)
		if err != nil {
			t.Fatal(err)
		}
		_, src := laneInputs(3, g.NumV, 8)
		dst := make([]float64, g.NumV*8)
		step := func() { e.StepBatch(src, dst, 8) }
		for _, arm := range arms {
			ForceGoTwins(arm == "go")
			step()
			if allocs := testing.AllocsPerRun(5, step); allocs != 0 {
				t.Errorf("%s/%s: a width-8 StepBatch allocates %.1f objects, want 0", build.name, arm, allocs)
			}
		}
	}
}

// TestStepBatchLanePrefetchDecision pins Engine.setWidth's choice of
// the 8-lane cells' prefetch distance: prefetchDist exactly when the
// width's lane rows, NumV·k·8 bytes, outgrow CacheBytes, else 0 — made
// from the footprint alone, so the same for an engine whose graph flips
// and for its resident build. One engine per build steps a width
// sequence that crosses the threshold both ways (the daemon's widths
// change batch by batch), and the choice must follow every change. At 8
// lanes, past the threshold, every lane is also a scalar Step's, bit for
// bit, under each arm: the assembly prefetching, then the Go twins.
//   - R-MAT 14, the small-resident shape (≈ 12 k vertices, 0.8 MB of
//     lanes at K = 8): 0 at every width.
//   - R-MAT 16 (≈ 50 k vertices, 0.4 MB at K = 1, 3 MB at K = 8): 0 at
//     one and two lanes, prefetchDist at four and eight.
func TestStepBatchLanePrefetchDecision(t *testing.T) {
	arms := asmArms(t)
	widths := []int{1, 8, 1, 4, 2, 8, 4, 1, 8}
	for _, c := range []struct {
		scale     int
		prefetchK map[int]bool
	}{
		{14, map[int]bool{}},
		{16, map[int]bool{4: true, 8: true}},
	} {
		g, err := gen.RMAT(gen.DefaultRMAT(c.scale, 16, 1))
		if err != nil {
			t.Fatal(err)
		}
		for _, build := range []struct {
			name string
			p    Params
		}{{"default", Params{}}, {"flipped", Params{HubsPerBlock: flipB}}} {
			label := fmt.Sprintf("scale %d/%s", c.scale, build.name)
			ih, err := Build(g, build.p)
			if err != nil {
				t.Fatal(err)
			}
			if build.name == "flipped" && len(ih.Blocks) == 0 {
				t.Fatalf("%s: built no flipped block", label)
			}
			e, err := NewEngine(ih, testPool)
			if err != nil {
				t.Fatal(err)
			}
			for i, k := range widths {
				_, src := laneInputs(uint64(60+i), ih.NumV, k)
				dst := make([]float64, ih.NumV*k)
				e.StepBatch(src, dst, k)
				want := 0
				if c.prefetchK[k] {
					want = prefetchDist
				}
				if e.batch.prefetch != want {
					t.Fatalf("%s: step %d at %d lanes (%d KB of lanes, %d KB cache): prefetch distance %d, want %d", label, i, k, ih.NumV*k*8>>10, ih.params.CacheBytes>>10, e.batch.prefetch, want)
				}
			}
			if !c.prefetchK[8] {
				continue
			}
			lanes, src := laneInputs(77, ih.NumV, 8)
			for _, arm := range arms {
				ForceGoTwins(arm == "go")
				dst := make([]float64, ih.NumV*8)
				e.StepBatch(src, dst, 8)
				if e.batch.prefetch != prefetchDist {
					t.Fatalf("%s/%s: prefetch distance %d at 8 lanes", label, arm, e.batch.prefetch)
				}
				requireLanesMatchScalar(t, e, lanes, dst)
			}
			ForceGoTwins(false)
		}
	}
}

// TestStepBatchFaultThenWidthChange is the width-alternation
// differential. Scalar and K-wide steps share one set of hub buffers,
// dirty ranges and bin values, so ONE engine runs Step, StepBatch(8),
// Step, StepBatch(4), a cancelled and then a panicking StepCtx at 8 lanes
// — aborted with its buffers dirty — Step, an active-row step at 8
// lanes, Step and StepBatch(8), and every result must hold the bits a
// FRESH engine of the same options gives for that one step: nothing a
// width, an abort or a staged row set left behind reaches the next step
// (a refused active-row step must be refused by both and write nothing).
// Over the whole option matrix, 1-3 workers, on a
// graph cut into several flipped blocks and on a resident one with none.
// Integer lanes keep every sum independent of the schedule.
func TestStepBatchFaultThenWidthChange(t *testing.T) {
	const sentinel = -7.5
	graphs := diffGraphs(t)
	workerCounts := []int{1, 2, 3}
	if testing.Short() {
		workerCounts = []int{2}
	}
	for _, build := range []struct {
		name string
		g    *graph.Graph
		p    Params
	}{
		{"blocks", graphs["rmat"], Params{HubsPerBlock: 64}},
		{"resident", graphs["web"], Params{}},
	} {
		n := build.g.NumV
		ih, err := Build(build.g, build.p)
		if err != nil {
			t.Fatal(err)
		}
		if resident := len(ih.Blocks) == 0; resident != (build.name == "resident") {
			t.Fatalf("%s: built %d flipped blocks", build.name, len(ih.Blocks))
		}
		src := map[int][]float64{}
		var active spmv.RowSet
		for _, k := range []int{1, 4, 8} {
			src[k], active = sparseLaneInput(uint64(31+k), n, k, 3, false) // the k = 8 set is the one used
		}
		for _, workers := range workerCounts {
			pool := sched.NewPool(workers)
			defer pool.Close()
			for _, opt := range optionMatrix(t, nil) {
				fresh := func() (*Engine, error) { return NewEngineOpts(ih, pool, opt) }
				label := fmt.Sprintf("%s/w%d/%s", build.name, workers, optLabel(opt))
				e, err := fresh()
				if err != nil {
					t.Fatal(err)
				}
				// same runs one step on e and on a fresh engine and
				// requires the same bits (and, for an active-row step,
				// the same answer and the same touched rows).
				same := func(step string, k int, activeRows bool) {
					t.Helper()
					ref, err := fresh()
					if err != nil {
						t.Fatal(err)
					}
					var out [2][]float64
					var touched [2]spmv.RowSet
					var honoured [2]bool
					for i, eng := range []*Engine{e, ref} {
						out[i] = make([]float64, n*k)
						touched[i] = spmv.NewRowSet(n)
						switch {
						case activeRows:
							for j := range out[i] {
								out[i][j] = sentinel
							}
							if honoured[i], err = eng.StepBatchActiveCtx(context.Background(), src[k], out[i], k, active, touched[i], nil); err != nil {
								t.Fatalf("%s: %s: %v", label, step, err)
							}
						case k == 1:
							eng.Step(src[k], out[i])
						default:
							eng.StepBatch(src[k], out[i], k)
						}
					}
					if honoured[0] != honoured[1] {
						t.Fatalf("%s: %s: honoured %v, fresh engine %v", label, step, honoured[0], honoured[1])
					}
					requireBitIdentical(t, label+": "+step, out[1], out[0])
					for wi := range touched[1] {
						if touched[0][wi] != touched[1][wi] {
							t.Fatalf("%s: %s: touched word %d = %x, fresh engine %x", label, step, wi, touched[0][wi], touched[1][wi])
						}
					}
				}
				same("Step", 1, false)
				same("StepBatch(8)", 8, false)
				same("Step after 8", 1, false)
				same("StepBatch(4)", 4, false)

				cancelled, cancel := context.WithCancel(context.Background())
				cancel()
				if err := e.StepCtx(cancelled, src[8], make([]float64, n*8), 8, spmv.Epilogue{}); !errors.Is(err, context.Canceled) {
					t.Fatalf("%s: cancelled step: err = %v", label, err)
				}
				// One of these sites is on every configuration's path,
				// most of them after some task has dirtied a buffer.
				faultinject.Activate(faultinject.NewPlan(
					faultinject.Rule{Site: faultinject.SiteMergeBlock, Kind: faultinject.Panic},
					faultinject.Rule{Site: faultinject.SiteSparsePart, Kind: faultinject.Panic},
					faultinject.Rule{Site: faultinject.SiteFlippedTask, Kind: faultinject.Panic, After: 2},
					faultinject.Rule{Site: faultinject.SiteSchedClaim, Kind: faultinject.Panic, After: 2},
				))
				err = e.StepCtx(context.Background(), src[8], make([]float64, n*8), 8, spmv.Epilogue{})
				faultinject.Deactivate()
				var perr *sched.PanicError
				if !errors.As(err, &perr) {
					t.Fatalf("%s: err = %v, want the injected panic", label, err)
				}

				same("Step after the aborts", 1, false)
				same("active-row step", 8, true)
				same("Step after active rows", 1, false)
				same("StepBatch(8) after all", 8, false)
			}
		}
	}
}
