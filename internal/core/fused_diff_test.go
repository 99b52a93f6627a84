package core

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"ihtl/internal/gen"
	"ihtl/internal/graph"
	"ihtl/internal/sched"
	"ihtl/internal/spmv"
	"ihtl/internal/xrand"
)

// The differential tests below pin the fused single-dispatch pipeline
// to the phased three-dispatch pipeline and to the spmv.Pull baseline
// BIT-FOR-BIT. Exact float equality across schedules is only
// meaningful when every partial sum is exact, so sources are small
// integer-valued floats: all sums stay integers far below 2^53 and
// addition is associative, making the result independent of task→
// worker assignment, merge order, and buffer skipping.
func integerVec(seed uint64, n int) []float64 {
	rng := xrand.New(seed)
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(rng.Uint64n(8))
	}
	return v
}

// signedVec draws small signed integer values and replaces zeros with
// -0.0 half the time. The kernels' zero-skip keys on the bit pattern
// (spmv.SkipZero): only +0.0 — the additive identity every accumulator
// starts from — may be skipped, while -0.0 must be traversed. Adding
// -0.0 into a +0.0-initialised sum is itself bit-transparent, so the
// results below stay bit-identical across engines and schedules; the
// test pins that no kernel re-grows a `x == 0` comparison that would
// diverge from the shared predicate.
func signedVec(seed uint64, n int) []float64 {
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

// optionValues lists, for every exported field of EngineOptions, the
// values the differential suites step. optionMatrix fails on a field
// that is missing here, so an option cannot land without its rows.
var optionValues = map[string][]any{
	"Phased":        {false, true},
	"StaticFlipped": {false, true},
	// Every differential input is finite, so an armed watchdog scans
	// and must change nothing; Rollback is the mode the daemon runs.
	"Health": {spmv.HealthPolicy{}, spmv.HealthPolicy{Mode: spmv.HealthRollback}},
	// SparseAuto is SparsePullDegree on a graph with a flipped block,
	// SparsePull on one without (TestStepEpiZeroFlipRows adds the
	// explicit SparsePullDegree there).
	"SparseKernel": {SparseAuto, SparsePull, SparsePB},
	// EncodingAuto is flat on a graph built in memory and on one opened
	// from a raw v2 file (TestV2RawFileDifferential steps both over every
	// row), packed on one opened from a packed file.
	"BlockEncoding": {EncodingAuto, EncodingVarint},
	// Sharding enters through BuildSharded: the suites that cover it
	// build both engine types from each row.
	"Shards": {0},
}

// optionMatrix returns the cross product of optionValues over the
// exported fields of EngineOptions, found by reflection, less the rows
// keep rejects (nil keeps all).
func optionMatrix(t testing.TB, keep func(EngineOptions) bool) []EngineOptions {
	t.Helper()
	rows := []EngineOptions{{}}
	typ := reflect.TypeOf(EngineOptions{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if !f.IsExported() {
			continue
		}
		vals := optionValues[f.Name]
		if len(vals) == 0 {
			t.Fatalf("EngineOptions.%s has no values in optionValues: the differential suites would not cover it", f.Name)
		}
		var next []EngineOptions
		for _, row := range rows {
			for _, v := range vals {
				reflect.ValueOf(&row).Elem().Field(i).Set(reflect.ValueOf(v))
				next = append(next, row)
			}
		}
		rows = next
	}
	if keep == nil {
		return rows
	}
	var kept []EngineOptions
	for _, row := range rows {
		if keep(row) {
			kept = append(kept, row)
		}
	}
	return kept
}

// optLabel names a matrix row by its non-zero exported fields.
func optLabel(opt EngineOptions) string {
	var parts []string
	v := reflect.ValueOf(opt)
	for i := 0; i < v.NumField(); i++ {
		if f := v.Type().Field(i); f.IsExported() && !v.Field(i).IsZero() {
			parts = append(parts, fmt.Sprintf("%s=%v", f.Name, v.Field(i).Interface()))
		}
	}
	if len(parts) == 0 {
		return "default"
	}
	return strings.Join(parts, ",")
}

func diffGraphs(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	gs := map[string]*graph.Graph{"paper": graph.PaperExample()}
	cfg := gen.DefaultRMAT(9, 8, 42)
	cfg.Reciprocity = 0.6
	rm, err := gen.RMAT(cfg)
	if err != nil {
		t.Fatal(err)
	}
	gs["rmat"] = rm
	web, err := gen.Web(gen.DefaultWeb(3000, 11))
	if err != nil {
		t.Fatal(err)
	}
	gs["web"] = web
	return gs
}

// stepOldSpace runs one Step of an iHTL engine with old-ID-space
// vectors, permuting in and out.
func stepOldSpace(ih *IHTL, e *Engine, srcOld []float64) []float64 {
	n := ih.NumV
	srcNew := make([]float64, n)
	dstNew := make([]float64, n)
	ih.PermuteToNew(srcOld, srcNew)
	e.Step(srcNew, dstNew)
	dstOld := make([]float64, n)
	ih.PermuteToOld(dstNew, dstOld)
	return dstOld
}

// TestStepDifferentialFusedPhasedPull checks that every row of the
// option matrix — the fused and the phased pipeline under each sparse
// kernel, encoding and flipped-task assignment — and the spmv.Pull
// baseline produce bit-identical dst vectors across graphs and worker
// counts. A row whose sparse block is walked edge-major steps once more
// with the Go twin of its pair loop forced (asmArms).
func TestStepDifferentialFusedPhasedPull(t *testing.T) {
	workerCounts := []int{1, 3, runtime.GOMAXPROCS(0)}
	edgeMajorRows := 0
	for name, g := range diffGraphs(t) {
		src := integerVec(1234, g.NumV)
		var want []float64 // pull result of the first pool; all must match it
		for _, workers := range workerCounts {
			t.Run(fmt.Sprintf("%s/w%d", name, workers), func(t *testing.T) {
				pool := sched.NewPool(workers)
				defer pool.Close()

				pe, err := spmv.NewEngine(g, pool, spmv.Pull, spmv.Options{})
				if err != nil {
					t.Fatal(err)
				}
				pullDst := make([]float64, g.NumV)
				pe.Step(src, pullDst)
				if want == nil {
					want = pullDst
				} else {
					requireBitIdentical(t, "pull-across-workers", want, pullDst)
				}

				ih, err := Build(g, Params{HubsPerBlock: 64})
				if err != nil {
					t.Fatal(err)
				}
				arms := asmArms(t)
				for _, opt := range optionMatrix(t, nil) {
					e, err := NewEngineOpts(ih, pool, opt)
					if err != nil {
						t.Fatal(err)
					}
					got := stepOldSpace(ih, e, src)
					label := optLabel(opt)
					requireBitIdentical(t, label, want, got)
					// A second Step re-using the engine must be just as
					// exact: it proves buffers, dirty ranges, and gates
					// were left clean by the first fused iteration.
					got2 := stepOldSpace(ih, e, src)
					requireBitIdentical(t, label+" (second step)", want, got2)
					if e.sparseAdv == nil {
						continue
					}
					edgeMajorRows++
					for _, arm := range arms[1:] {
						ForceGoTwins(arm == "go")
						requireBitIdentical(t, label+" ("+arm+" pair loop)", want, stepOldSpace(ih, e, src))
					}
					ForceGoTwins(false)
				}
			})
		}
	}
	if edgeMajorRows == 0 {
		t.Error("no row of the option matrix walks its sparse block edge-major")
	}
}

// TestStepDifferentialSignedZero runs the differential with sources
// containing negative values and -0.0: every engine — the iHTL
// pipelines and all four spmv baselines — must agree bit-for-bit, so
// the zero-skip semantics are uniform (satellite of the SkipZero
// unification; see signedVec).
func TestStepDifferentialSignedZero(t *testing.T) {
	for name, g := range diffGraphs(t) {
		src := signedVec(77, g.NumV)
		pool := sched.NewPool(3)
		defer pool.Close()

		pe, err := spmv.NewEngine(g, pool, spmv.Pull, spmv.Options{})
		if err != nil {
			t.Fatal(err)
		}
		want := make([]float64, g.NumV)
		pe.Step(src, want)

		got := make([]float64, g.NumV)
		for _, dir := range []spmv.Direction{
			spmv.PushAtomic, spmv.PushBuffered, spmv.PushPartitioned,
		} {
			e, err := spmv.NewEngine(g, pool, dir, spmv.Options{})
			if err != nil {
				t.Fatal(err)
			}
			e.Step(src, got)
			requireBitIdentical(t, fmt.Sprintf("%s/%v", name, dir), want, got)
		}

		ih, err := Build(g, Params{HubsPerBlock: 64})
		if err != nil {
			t.Fatal(err)
		}
		for _, opt := range optionMatrix(t, nil) {
			e, err := NewEngineOpts(ih, pool, opt)
			if err != nil {
				t.Fatal(err)
			}
			label := name + "/" + optLabel(opt)
			requireBitIdentical(t, label, want, stepOldSpace(ih, e, src))
		}
	}
}

func requireBitIdentical(t *testing.T, label string, want, got []float64) {
	t.Helper()
	for v := range want {
		if math.Float64bits(want[v]) != math.Float64bits(got[v]) {
			t.Fatalf("%s: vertex %d: got %v want %v (bits %x vs %x)",
				label, v, got[v], want[v],
				math.Float64bits(got[v]), math.Float64bits(want[v]))
		}
	}
}

// FuzzStepDifferential drives the same differential property from
// fuzzed R-MAT seeds and scales, and the batch-lane == scalar property
// (lanes_test.go) at a fuzzed width 2 + width%8: the fixed-width lane
// kernels (flat at 8, packed at 4) and the run-time-K loop around them.
func FuzzStepDifferential(f *testing.F) {
	f.Add(uint64(1), uint8(6), uint8(2))
	f.Add(uint64(99), uint8(8), uint8(6))
	f.Add(uint64(7), uint8(5), uint8(1))
	pool := sched.NewPool(3)
	f.Cleanup(pool.Close)
	f.Fuzz(func(t *testing.T, seed uint64, scale, width uint8) {
		if scale < 4 || scale > 9 {
			t.Skip()
		}
		g, err := gen.RMAT(gen.DefaultRMAT(int(scale), 6, seed|1))
		if err != nil {
			t.Skip()
		}
		src := integerVec(seed, g.NumV)
		pe, err := spmv.NewEngine(g, pool, spmv.Pull, spmv.Options{})
		if err != nil {
			t.Fatal(err)
		}
		want := make([]float64, g.NumV)
		pe.Step(src, want)

		ih, err := Build(g, Params{HubsPerBlock: 32})
		if err != nil {
			t.Fatal(err)
		}
		fused, err := NewEngine(ih, pool)
		if err != nil {
			t.Fatal(err)
		}
		requireBitIdentical(t, "fused", want, stepOldSpace(ih, fused, src))
		phased, err := NewEngineOpts(ih, pool, EngineOptions{Phased: true})
		if err != nil {
			t.Fatal(err)
		}
		requireBitIdentical(t, "phased", want, stepOldSpace(ih, phased, src))
		degree, err := NewEngineOpts(ih, pool, EngineOptions{SparseKernel: SparsePullDegree})
		if err != nil {
			t.Fatal(err)
		}
		requireBitIdentical(t, "pull-degree", want, stepOldSpace(ih, degree, src))
		pb, err := NewEngineOpts(ih, pool, EngineOptions{SparseKernel: SparsePB})
		if err != nil {
			t.Fatal(err)
		}
		requireBitIdentical(t, "pb", want, stepOldSpace(ih, pb, src))
		// Both traversal layouts forced on every block of the same graph
		// (by shape, R-MAT blocks this small are a mix).
		var forced []*Engine
		for _, opt := range []EngineOptions{
			{forceLayout: LayoutCSR},
			{forceLayout: LayoutEdgeMajor},
			{forceLayout: LayoutEdgeMajor, Phased: true},
			{forceLayout: LayoutEdgeMajor, SparseKernel: SparsePull, StaticFlipped: true},
		} {
			e, err := NewEngineOpts(ih, pool, opt)
			if err != nil {
				t.Fatal(err)
			}
			forced = append(forced, e)
			requireBitIdentical(t, fmt.Sprintf("forced %+v", opt), want, stepOldSpace(ih, e, src))
		}

		// K lanes through one traversal against K scalar Steps, flat and
		// packed, fused and phased.
		varint, err := NewEngineOpts(ih, pool, EngineOptions{BlockEncoding: EncodingVarint, StaticFlipped: true})
		if err != nil {
			t.Fatal(err)
		}
		k := 2 + int(width%8)
		lanes, batch := laneInputs(seed, ih.NumV, k)
		batchDst := make([]float64, ih.NumV*k)
		for _, e := range []*Engine{fused, phased, degree, varint} {
			e.StepBatch(batch, batchDst, k)
			requireLanesMatchScalar(t, e, lanes, batchDst)
		}

		// Second pass with signed values and -0.0 entries: the skip
		// predicates must keep every engine bit-identical (see signedVec).
		srcSigned := signedVec(seed^0x5a5a, g.NumV)
		pe.Step(srcSigned, want)
		requireBitIdentical(t, "fused signed", want, stepOldSpace(ih, fused, srcSigned))
		requireBitIdentical(t, "phased signed", want, stepOldSpace(ih, phased, srcSigned))
		requireBitIdentical(t, "pull-degree signed", want, stepOldSpace(ih, degree, srcSigned))
		requireBitIdentical(t, "pb signed", want, stepOldSpace(ih, pb, srcSigned))
		for i, e := range forced {
			requireBitIdentical(t, fmt.Sprintf("forced[%d] signed", i), want, stepOldSpace(ih, e, srcSigned))
		}
	})
}

// epiStepper is what the zero-flip rows below step: both engine types.
type epiStepper interface {
	StepEpi(src, dst []float64, epi func(slot, lo, hi int))
	StepBatchEpi(src, dst []float64, k int, epi func(slot, lo, hi int))
	EpiSlots() (slots int, streamed bool)
}

// TestStepEpiZeroFlipRows is the option matrix over a graph with no
// flipped block, stepped through StepEpi, plus the explicit
// SparsePullDegree and a two-shard engine. The epilogue checks, when it
// is called, that its rows [lo, hi) already hold the oracle's values —
// an epilogue run before its rows are final fails here, as does a slot
// run twice or never, or slots that do not tile the rows in order. The
// engines that stream are exactly the fused unsharded uniform pulls;
// StepBatchEpi at one lane stays behind the barrier on those too, so
// there every slot may read all of dst. Integer sources keep the
// sharded engine's regrouped sums exact.
func TestStepEpiZeroFlipRows(t *testing.T) {
	g := residentGraphs(t)["rmat"]
	n := g.NumV
	src := integerVec(11, n)
	want := referenceStep(g, src)
	ih, err := Build(g, Params{})
	if err != nil {
		t.Fatal(err)
	}
	requireZeroBlocks(t, "rmat", ih)
	rows := optionMatrix(t, nil)
	rows = append(rows, EngineOptions{SparseKernel: SparsePullDegree}, EngineOptions{SparseKernel: SparsePullDegree, Phased: true}, EngineOptions{Shards: 2})
	for _, workers := range []int{1, 2, 3} {
		pool := sched.NewPool(workers)
		defer pool.Close()
		for _, opt := range rows {
			label := fmt.Sprintf("w%d/%s", workers, optLabel(opt))
			var e epiStepper
			wantSlots, wantStream := 4*workers, !opt.Phased && (opt.SparseKernel == SparseAuto || opt.SparseKernel == SparsePull)
			srcNew, wantNew := src, want // the build keeps every ID
			if opt.Shards > 1 {
				sg, err := BuildSharded(g, Params{}, pool, opt.Shards)
				if err != nil {
					t.Fatal(err)
				}
				if e, err = NewShardedEngineOpts(sg, pool, opt); err != nil {
					t.Fatal(err)
				}
				srcNew, wantNew = make([]float64, n), make([]float64, n)
				sg.PermuteToNew(src, srcNew)
				sg.PermuteToNew(want, wantNew)
				wantSlots, wantStream = workers, false
			} else if e, err = NewEngineOpts(ih, pool, opt); err != nil {
				t.Fatal(err)
			}
			slots, streamed := e.EpiSlots()
			if slots != wantSlots || streamed != wantStream {
				t.Fatalf("%s: %d slots, streamed %v; want %d, %v", label, slots, streamed, wantSlots, wantStream)
			}
			for _, batch := range []bool{false, true} {
				bounds := make([][2]int, slots)
				ran := make([]int, slots)
				early := make([]bool, slots)
				dst := make([]float64, n)
				epi := func(slot, lo, hi int) {
					ran[slot]++
					bounds[slot] = [2]int{lo, hi}
					check, stop := lo, hi
					if batch {
						check, stop = 0, n // behind the barrier: all of dst is final
					}
					for v := check; v < stop; v++ {
						if math.Float64bits(dst[v]) != math.Float64bits(wantNew[v]) {
							early[slot] = true
						}
					}
				}
				for step := 0; step < 2; step++ {
					clear(ran)
					clear(dst) // so a row read before it is pulled differs
					if batch {
						e.StepBatchEpi(srcNew, dst, 1, epi)
					} else {
						e.StepEpi(srcNew, dst, epi)
					}
					next := 0
					for p := range slots {
						if ran[p] != 1 || early[p] || bounds[p][0] != next {
							t.Fatalf("%s batch=%v step %d: slot %d ran %d times over [%d, %d) (next row %d), saw rows not yet final: %v",
								label, batch, step, p, ran[p], bounds[p][0], bounds[p][1], next, early[p])
						}
						next = bounds[p][1]
					}
					if next != n {
						t.Fatalf("%s batch=%v: the slots end at row %d of %d", label, batch, next, n)
					}
					requireBitIdentical(t, label, wantNew, dst)
				}
			}
		}
	}
}

// TestSparseAutoByGraph: SparseAuto is decided by the graph — the
// uniform pull, streaming, where nothing is flipped; the degree
// schedule, with the workers' shares behind the barrier, where
// something is.
func TestSparseAutoByGraph(t *testing.T) {
	g := residentGraphs(t)["rmat"]
	for _, c := range []struct {
		p      Params
		kernel SparseKernel
		slots  int
		stream bool
	}{
		{Params{}, SparsePull, 4 * testPool.Workers(), true},
		{Params{HubsPerBlock: flipB}, SparsePullDegree, testPool.Workers(), false},
	} {
		ih, err := Build(g, c.p)
		if err != nil {
			t.Fatal(err)
		}
		e, err := NewEngine(ih, testPool)
		if err != nil {
			t.Fatal(err)
		}
		if slots, streamed := e.EpiSlots(); e.sparseKernel != c.kernel || slots != c.slots || streamed != c.stream {
			t.Errorf("%d flipped blocks: SparseAuto is %v with %d slots, streamed %v; want %v, %d, %v",
				len(ih.Blocks), e.sparseKernel, slots, streamed, c.kernel, c.slots, c.stream)
		}
	}
}

// TestStreamedStepEpiAllocationFree pins the streamed placement's
// steady state, watched and not: a StepEpi run inside the sparse claim
// loop allocates nothing.
func TestStreamedStepEpiAllocationFree(t *testing.T) {
	ih, err := Build(residentGraphs(t)["rmat"], Params{})
	if err != nil {
		t.Fatal(err)
	}
	for _, opt := range []EngineOptions{{}, {StaticFlipped: true, Health: spmv.HealthPolicy{Mode: spmv.HealthRollback}}} {
		e, err := NewEngineOpts(ih, testPool, opt)
		if err != nil {
			t.Fatal(err)
		}
		slots, streamed := e.EpiSlots()
		if !streamed {
			t.Fatalf("%s: the engine does not stream", optLabel(opt))
		}
		src := integerVec(3, ih.NumV)
		dst := make([]float64, ih.NumV)
		sums := make([]float64, slots)
		epi := func(slot, lo, hi int) {
			s := 0.0
			for _, x := range dst[lo:hi] {
				s += x
			}
			sums[slot] = s
		}
		for i := 0; i < 3; i++ { // warm worker stacks
			e.StepEpi(src, dst, epi)
		}
		if allocs := testing.AllocsPerRun(20, func() { e.StepEpi(src, dst, epi) }); allocs != 0 {
			t.Errorf("%s: streamed StepEpi allocates %.1f objects per run, want 0", optLabel(opt), allocs)
		}
	}
}

// TestFusedStepAllocationFree pins the fused pipeline's zero-allocation
// steady state: after construction, Steps allocate nothing — no
// per-dispatch scheduler, no closures, no WaitGroups.
func TestFusedStepAllocationFree(t *testing.T) {
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
	src := integerVec(3, g.NumV)
	dst := make([]float64, g.NumV)
	for i := 0; i < 3; i++ { // warm worker stacks
		e.Step(src, dst)
	}
	if allocs := testing.AllocsPerRun(20, func() { e.Step(src, dst) }); allocs != 0 {
		t.Errorf("fused Step allocates %.1f objects per run, want 0", allocs)
	}
}
