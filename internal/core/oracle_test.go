package core

import (
	"bytes"
	"fmt"
	"math"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"ihtl/internal/gen"
	"ihtl/internal/graph"
	"ihtl/internal/sched"
	"ihtl/internal/spmv"
	"ihtl/internal/xrand"
)

// The oracle (DESIGN.md, "How a Step is checked"). Algorithm 3 — the
// flipped push, the countdown-gated merge and the sparse pull —
// computes exactly the pull SpMV, and that is this package's
// correctness contract. One serial reference holds it: every engine of
// one generated option matrix must give the reference's bits on exact
// inputs, and its own bits on real ones.

// referenceStep is the reference: a serial Step over g's in-lists in
// original IDs, k vertex-major lanes, every row summed from +0.0 in
// in-list order. It shares no code with the engine.
func referenceStep(g *graph.Graph, src []float64, k int) []float64 {
	dst := make([]float64, g.NumV*k)
	for v := 0; v < g.NumV; v++ {
		row := dst[v*k : v*k+k]
		for _, u := range g.In(graph.VID(v)) {
			for j, x := range src[int(u)*k : int(u)*k+k] {
				row[j] += x
			}
		}
	}
	return dst
}

// integerVec draws n integers in [0, 8) as float64.
func integerVec(seed uint64, n int) []float64 {
	rng := xrand.New(seed)
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(rng.Uint64n(8))
	}
	return v
}

// exactInput is k vertex-major lanes of small integers: [0, 8), or,
// signed, [-4, 4) with every other zero -0.0. Every 13th row is +0.0 in
// every lane — a row the skip predicates (spmv.SkipZero) skip — and in
// the signed set every other one of those rows holds -0.0 in lane v%k,
// which they must not skip. Every sum of such values is an integer far
// below 2⁵³, so every summation order gives the same float64 and an
// engine equals the reference bit for bit, whatever order either adds
// in.
func exactInput(seed uint64, n, k int, signed bool) []float64 {
	v := integerVec(seed, n*k)
	negZero := math.Copysign(0, -1)
	if signed {
		for i := range v {
			v[i] -= 4
			if v[i] == 0 && i%2 == 0 {
				v[i] = negZero
			}
		}
	}
	for r := 0; r < n; r += 13 {
		row := v[r*k : r*k+k]
		clear(row)
		if signed && r%26 == 13 {
			row[r%k] = negZero
		}
	}
	return v
}

// realInput is k vertex-major lanes of PageRank-like values — positive,
// about 1/n, every mantissa bit in use — lane j drawn from seed+j at
// every k. Their sums round, so their bits follow the order of the
// terms: they hold an engine to itself, not to the reference.
func realInput(seed uint64, n, k int) []float64 {
	v := make([]float64, n*k)
	for j := 0; j < k; j++ {
		rng := xrand.New(seed + uint64(j))
		for r := 0; r < n; r++ {
			v[r*k+j] = (0.15 + 0.85*rng.Float64()) / float64(n)
		}
	}
	return v
}

// permute returns x, k lanes a row, with row v moved to row to[v]: an
// iHTL's NewID takes original IDs to its own, OldID back.
func permute(x []float64, k int, to []graph.VID) []float64 {
	out := make([]float64, len(x))
	for v, nv := range to {
		copy(out[int(nv)*k:int(nv)*k+k], x[v*k:v*k+k])
	}
	return out
}

// laneOf returns lane j of a vertex-major k-lane vector.
func laneOf(x []float64, k, j int) []float64 {
	lane := make([]float64, len(x)/k)
	for v := range lane {
		lane[v] = x[v*k+j]
	}
	return lane
}

func requireBitIdentical(t *testing.T, label string, want, got []float64) {
	t.Helper()
	for v := range want {
		if math.Float64bits(want[v]) != math.Float64bits(got[v]) {
			t.Fatalf("%s: element %d: got %v want %v (bits %x vs %x)",
				label, v, got[v], want[v],
				math.Float64bits(got[v]), math.Float64bits(want[v]))
		}
	}
}

// optionValues lists, for every exported field of EngineOptions, the
// values the oracle steps. optionMatrix fails on a field that is
// missing here, so an option cannot land without its rows.
var optionValues = map[string][]any{
	// Deprecated and read by no code: every engine runs the fused
	// pipeline (TestNewEngineOptsIgnoresDeprecated).
	"Phased": {false},
	// Deprecated and read by no code: every engine splits its flipped
	// tasks statically (TestFaultDelayedFlippedTaskBitIdentical shows
	// that setting it changes nothing).
	"StaticFlipped": {false},
	// Every exact input is finite, so an armed watchdog scans and must
	// change nothing; Rollback is the mode the daemon runs.
	"Health": {spmv.HealthPolicy{}, spmv.HealthPolicy{Mode: spmv.HealthRollback}},
	// Deprecated and read by no code: every engine runs the uniform pull
	// (TestNewEngineOptsIgnoresDeprecated).
	"SparseKernel": {SparsePull},
	// EncodingAuto is flat on a graph built in memory, read from a v1
	// file or opened from a raw v2 file, and packed on one opened from a
	// packed v2 file: TestOracle steps all four.
	"BlockEncoding": {EncodingAuto, EncodingVarint},
	// Deprecated and read by no code: every value builds the one
	// single-graph engine (TestNewEngineOptsIgnoresDeprecated).
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
			t.Fatalf("EngineOptions.%s has no values in optionValues: the oracle would not cover it", f.Name)
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

// oracleCase is one build of the matrix: an iHTL and the graph it was
// built from, which holesIHTL, built by hand, does not have.
type oracleCase struct {
	name string
	ih   *IHTL
	g    *graph.Graph
}

// want is the reference's Step of src, both in the iHTL's ID space.
func (c oracleCase) want(src []float64, k int) []float64 {
	if c.g == nil {
		return refStep(c.ih, src, k) // holesIHTL relabels nothing
	}
	return permute(referenceStep(c.g, permute(src, k, c.ih.OldID), k), k, c.ih.NewID)
}

// touched is the set an active-row step from active must report: the
// rows with an in-neighbour in active, read off the graph's in-lists.
func (c oracleCase) touched(active spmv.RowSet) spmv.RowSet {
	if c.g == nil {
		return wantTouched(c.ih, active)
	}
	want := spmv.NewRowSet(c.ih.NumV)
	for v, old := range c.ih.OldID {
		for _, u := range c.g.In(old) {
			if active.Has(int(c.ih.NewID[u])) {
				want.Add(v)
				break
			}
		}
	}
	return want
}

// oracleCases are the matrix's builds: over every diffGraphs graph B =
// 64, the same for eight lanes (B = 8), the resident default (no
// flipped block) and a small B with at least three blocks; and the
// hand-built holesIHTL.
func oracleCases(t *testing.T) []oracleCase {
	t.Helper()
	cases := []oracleCase{{name: "holes", ih: holesIHTL()}}
	graphs := diffGraphs(t)
	for _, gname := range []string{"paper", "rmat", "web"} {
		for _, b := range []struct {
			name string
			p    Params
		}{
			{"b64", Params{HubsPerBlock: 64}},
			{"batch8", Params{HubsPerBlock: 64}.ForBatch(8)},
			{"resident", Params{}},
			{"odd", oddBlockParams},
		} {
			label := b.name + "/" + gname
			ih, err := Build(graphs[gname], b.p)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			switch {
			case b.name == "resident":
				requireZeroBlocks(t, label, ih)
			case b.name == "odd" && gname != "paper" && len(ih.Blocks) < 3:
				t.Fatalf("%s: %d flipped blocks, want ≥ 3", label, len(ih.Blocks))
			case len(ih.Blocks) == 0:
				t.Fatalf("%s: no flipped block", label)
			}
			cases = append(cases, oracleCase{label, ih, graphs[gname]})
		}
	}
	return cases
}

// oracleSource is an iHTL an engine is built over.
type oracleSource struct {
	name string
	ih   *IHTL
}

// oracleSources returns ih in memory, read back from its v1 file
// (WriteTo, ReadIHTL) and opened from its v2 file (SaveFileV2,
// OpenEngineFile): a packed file, which steps packed, unless ih is
// resident and its file raw.
func oracleSources(t *testing.T, ih *IHTL) []oracleSource {
	t.Helper()
	var v1 bytes.Buffer
	if _, err := ih.WriteTo(&v1); err != nil {
		t.Fatal(err)
	}
	read, err := ReadIHTL(&v1)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "g.ihtl2")
	if err := ih.SaveFileV2(path); err != nil {
		t.Fatal(err)
	}
	ef, err := OpenEngineFile(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ef.Close() })
	return []oracleSource{{"memory", ih}, {"v1", read}, {"v2-" + ef.IHTL().V2Stream(), ef.IHTL()}}
}

// requirePackedRowsCovered checks that the matrix's flipped blocks hold
// the packed rows a push must skip past exactly: one with a two-byte
// header (degree ≥ 32) and one whose gaps take two bytes (a hub ID ≥
// 256). A skipped row's cursor advance is degree × width bytes at every
// width, so these stand for the widths no small graph reaches.
func requirePackedRowsCovered(t *testing.T, cases []oracleCase) {
	t.Helper()
	longRow, wideGap := false, false
	for _, c := range cases {
		for _, fb := range c.ih.Blocks {
			for s := 0; s+1 < len(fb.Index); s++ {
				row := fb.Dsts[fb.Index[s]:fb.Index[s+1]]
				longRow = longRow || len(row) >= 32
				wideGap = wideGap || len(row) > 0 && row[0] >= 256
			}
		}
	}
	if !longRow || !wideGap {
		t.Fatalf("no flipped row of degree ≥ 32 (%v) or with a two-byte gap (%v)", longRow, wideGap)
	}
}

// TestOracle is the generated matrix: every build of oracleCases × its
// source (memory, v1 file, v2 file) × workers {1, 2, 3} × optionMatrix
// × forced layout {by shape, CSR, edge-major} × arm {assembly, Go
// twins} × width {1, 4, 8, 16}, less the rows oracleMerged folds into
// an equivalent one. In each cell:
//
//   - each exact input (exactInput, unsigned and signed) steps twice,
//     and both results must be the reference's bits: the second proves
//     the hub buffers, dirty ranges and gates were left clean; at one
//     lane so does a vector of ±0.0, ±Inf and NaN (specialVec), whose
//     sums are exact too but for a NaN's payload;
//   - on a flat engine one active-row step from a sparse set must touch
//     exactly the rows the graph's in-lists say, each holding the
//     reference's bits, and write no other;
//   - a real input (realInput) must give one set of bits per lane across
//     widths, arms, Health and sources, for each worker count, encoding
//     and layout — and, on a build with no flipped block, which sums each
//     row in in-list order, the reference's.
//
// Each engine also reports the epilogue placement its graph gets: its
// pull's parts streamed where nothing is flipped, the workers' static
// grid behind the barrier where something is. Under -short (the race
// job's mode) the matrix steps 3 workers over the builds in memory, and
// holesIHTL, by far the largest build (about 430 000 edges), at one
// lane; the feature slices (oracle_slices_test.go) step 1-3 workers
// there.
func TestOracle(t *testing.T) {
	arms := asmArms(t)
	workerCounts := []int{1, 2, 3}
	if testing.Short() {
		workerCounts = []int{3}
	}
	pools := map[int]*sched.Pool{}
	for _, w := range workerCounts {
		pools[w] = sched.NewPool(w)
		defer pools[w].Close()
	}
	cases := oracleCases(t)
	requirePackedRowsCovered(t, cases)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			n := c.ih.NumV
			widths := []int{1, 4, 8, 16}
			sources := oracleSources(t, c.ih)
			if testing.Short() {
				sources = sources[:1]
				if c.g == nil {
					widths = widths[:1]
				}
			}
			type input struct {
				name      string
				src, want []float64
				nanAny    bool        // any NaN matches any NaN (requireSameBits)
				active    spmv.RowSet // an active-row input's set
				touched   spmv.RowSet // and the rows it reaches
			}
			exact, active, real := map[int][]input{}, map[int]input{}, map[int]input{}
			for _, k := range widths {
				for i, name := range []string{"unsigned", "signed"} {
					src := exactInput(uint64(10*k+i), n, k, i == 1)
					exact[k] = append(exact[k], input{name: name, src: src, want: c.want(src, k)})
				}
				if k == 1 {
					src := specialVec(11, n)
					exact[k] = append(exact[k], input{name: "special", src: src, want: c.want(src, k), nanAny: true})
				}
				src, set := sparseLaneInput(uint64(10*k+2), n, k, 4, k == 8)
				active[k] = input{name: "active", src: src, want: c.want(src, k), active: set, touched: c.touched(set)}
				real[k] = input{name: "real", src: realInput(3, n, k)}
				if len(c.ih.Blocks) == 0 {
					real[k] = input{name: "real", src: real[k].src, want: c.want(real[k].src, k)}
				}
			}
			realBits := map[string][][]float64{}
			for si, s := range sources {
				for _, workers := range workerCounts {
					for _, opt := range optionMatrix(t, nil) {
						varint := opt.BlockEncoding == EncodingVarint || s.ih.EncodedOnly()
						for _, layout := range []BlockLayout{layoutByShape, LayoutCSR, LayoutEdgeMajor} {
							opt.forceLayout = layout
							if oracleMerged(si, varint, opt, 0, 1) {
								continue
							}
							cell := fmt.Sprintf("%s/%s/w%d/%s/%v", c.name, s.name, workers, optLabel(opt), layout)
							e, err := NewEngineOpts(s.ih, pools[workers], opt)
							if err != nil {
								t.Fatalf("%s: %v", cell, err)
							}
							requireOracleEngine(t, cell, e, s.ih, workers, varint, layout)
							group := fmt.Sprintf("w%d/varint=%v/%v", workers, varint, layout)
							if realBits[group] == nil {
								realBits[group] = make([][]float64, widths[len(widths)-1])
							}
							for ai, arm := range arms {
								ForceGoTwins(arm == "go")
								for _, k := range widths {
									if oracleMerged(si, varint, opt, ai, k) {
										continue
									}
									label := fmt.Sprintf("%s/%s/k%d", cell, arm, k)
									dst := make([]float64, n*k)
									for _, in := range exact[k] {
										if in.nanAny && opt.Health != (spmv.HealthPolicy{}) {
											continue // the watchdog fails a step with a non-finite result
										}
										for step := 1; step <= 2; step++ {
											for i := range dst {
												dst[i] = math.NaN() // a row the step does not write shows
											}
											e.StepBatch(in.src, dst, k)
											if in.nanAny {
												requireSameBits(t, fmt.Sprintf("%s/%s step %d", label, in.name, step), in.want, dst)
											} else {
												requireBitIdentical(t, fmt.Sprintf("%s/%s step %d", label, in.name, step), in.want, dst)
											}
										}
									}
									if a := active[k]; !varint {
										got, touched := stepActive(t, label+"/active", e, a.src, a.active, k, nil)
										requireActiveRows(t, label+"/active", a.touched, touched, got, a.want, k)
									}
									r := real[k]
									e.StepBatch(r.src, dst, k)
									if r.want != nil {
										requireBitIdentical(t, label+"/real", r.want, dst)
									}
									lanes := realBits[group]
									for j := 0; j < k; j++ {
										if lane := laneOf(dst, k, j); lanes[j] == nil {
											lanes[j] = lane
										} else {
											requireBitIdentical(t, fmt.Sprintf("%s/real lane %d", label, j), lanes[j], lane)
										}
									}
								}
							}
							ForceGoTwins(false)
						}
					}
				}
			}
		})
	}
}

// oracleMerged reports whether TestOracle folds a row into another that
// runs the same code on the same data, so it need not step it: source
// si (0 memory, 1 v1, 2 v2) with option row opt, which resolved to
// packed rows or not, under arm ai (0 the per-process choice, 1 the Go
// twins) at width k. DESIGN.md §8's kernel table documents the first
// three:
//
//   - a packed engine walks CSR whatever the layout, and runs no
//     assembly;
//   - the K-lane kernels walk CSR whatever the layout;
//   - no assembly body runs 16 lanes.
//
// And two more:
//
//   - the watchdog scans the result whatever kernel wrote it, so an armed
//     one steps only by shape on the per-process arm;
//   - a file holds the arrays the build held (its round-trip tests check
//     that), so a file's engine steps only the default option row, by
//     shape, on the per-process arm.
func oracleMerged(si int, varint bool, opt EngineOptions, ai, k int) bool {
	byShape := opt.forceLayout == layoutByShape
	switch {
	case varint && (!byShape || ai > 0):
		return true
	case !byShape && k > 1, ai > 0 && k == 16:
		return true
	case (opt.Health != spmv.HealthPolicy{}) && (!byShape || ai > 0):
		return true
	case si > 0 && (opt != EngineOptions{} || ai > 0):
		return true
	}
	return false
}

// requireOracleEngine checks what an engine of the matrix resolved to:
// packed rows exactly when asked for or when its source holds only
// them, the forced layout on every block with an edge, and the
// epilogue placement its graph gets.
func requireOracleEngine(t *testing.T, cell string, e *Engine, ih *IHTL, workers int, varint bool, layout BlockLayout) {
	t.Helper()
	if e.varint != varint {
		t.Fatalf("%s: engine walks packed rows: %v, want %v", cell, e.varint, varint)
	}
	if layout != layoutByShape {
		for i, s := range ih.BlockShapes() {
			adv := e.sparseAdv
			if i < len(e.flipAdv) {
				adv = e.flipAdv[i]
			}
			if s.Edges > 0 && (adv != nil) != (layout == LayoutEdgeMajor) {
				t.Fatalf("%s: %s does not walk %v", cell, s.Name, layout)
			}
		}
	}
	wantSlots, wantStream := 4*workers, true
	if len(ih.Blocks) > 0 {
		wantSlots, wantStream = workers, false
	}
	if slots, streamed := e.EpiSlots(); slots != wantSlots || streamed != wantStream {
		t.Fatalf("%s: %d epilogue slots, streamed %v; want %d, %v", cell, slots, streamed, wantSlots, wantStream)
	}
}

// stepFresh returns one StepBatch of e over src.
func stepFresh(e *Engine, src []float64, k int) []float64 {
	dst := make([]float64, len(src))
	e.StepBatch(src, dst, k)
	return dst
}

// TestOracleRelabelInvariance: permuting the input graph permutes the
// result. Each graph is relabeled by a seeded permutation P, built and
// stepped at B = 64 and at the resident default; Step(P·G)(P·x) must be
// P·Step(G)(x) bit for bit, at one lane and at eight.
func TestOracleRelabelInvariance(t *testing.T) {
	for gname, g := range diffGraphs(t) {
		perm := make([]graph.VID, g.NumV)
		for v, p := range xrand.New(uint64(g.NumV)).Perm(g.NumV) {
			perm[v] = graph.VID(p)
		}
		pg, err := graph.Relabel(g, perm)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []Params{{HubsPerBlock: 64}, {}} {
			step := func(g *graph.Graph, x []float64, k int) []float64 {
				ih, err := Build(g, p)
				if err != nil {
					t.Fatal(err)
				}
				e, err := NewEngine(ih, testPool)
				if err != nil {
					t.Fatal(err)
				}
				return permute(stepFresh(e, permute(x, k, ih.NewID), k), k, ih.OldID)
			}
			for _, k := range []int{1, 8} {
				x := exactInput(uint64(k), g.NumV, k, true)
				want := permute(step(g, x, k), k, perm)
				requireBitIdentical(t, fmt.Sprintf("%s/B=%d/k%d", gname, p.HubsPerBlock, k), want, step(pg, permute(x, k, perm), k))
			}
		}
	}
}

// TestOracleLinearity: Step(2·x + y) == 2·Step(x) + Step(y) exactly on
// integer inputs, at one lane and at eight, flat and packed, over every
// graph at B = 64.
func TestOracleLinearity(t *testing.T) {
	for gname, g := range diffGraphs(t) {
		ih, err := Build(g, Params{HubsPerBlock: 64})
		if err != nil {
			t.Fatal(err)
		}
		for _, opt := range []EngineOptions{{}, {BlockEncoding: EncodingVarint}} {
			e, err := NewEngineOpts(ih, testPool, opt)
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range []int{1, 8} {
				x, y := exactInput(uint64(k), ih.NumV, k, true), exactInput(uint64(k+1), ih.NumV, k, false)
				z := make([]float64, len(x))
				for i := range z {
					z[i] = 2*x[i] + y[i]
				}
				sx, sy := stepFresh(e, x, k), stepFresh(e, y, k)
				for i := range sx {
					sx[i] = 2*sx[i] + sy[i]
				}
				requireBitIdentical(t, fmt.Sprintf("%s/%s/k%d", gname, optLabel(opt), k), sx, stepFresh(e, z, k))
			}
		}
	}
}

// FuzzStepDifferential drives the oracle from fuzzed R-MAT seeds and
// scales — the default engine and both forced layouts against the
// reference, on unsigned and signed exact inputs — and the batch-lane
// == scalar property (lanes_test.go) at a fuzzed width 2 + width%8: the
// fixed-width lane kernels (flat at 8, packed at 4) and the run-time-K
// loop around them.
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
		ih, err := Build(g, Params{HubsPerBlock: 32})
		if err != nil {
			t.Fatal(err)
		}
		fused, err := NewEngine(ih, pool)
		if err != nil {
			t.Fatal(err)
		}
		// Both traversal layouts forced on every block of the same graph
		// (by shape, R-MAT blocks this small are a mix).
		engines := []*Engine{fused}
		for _, layout := range []BlockLayout{LayoutCSR, LayoutEdgeMajor} {
			e, err := NewEngineOpts(ih, pool, EngineOptions{forceLayout: layout})
			if err != nil {
				t.Fatal(err)
			}
			engines = append(engines, e)
		}
		for _, signed := range []bool{false, true} {
			src := exactInput(seed, g.NumV, 1, signed)
			want := referenceStep(g, src, 1)
			for i, e := range engines {
				requireBitIdentical(t, fmt.Sprintf("engine %d, signed %v", i, signed), want, stepOldSpace(ih, e, src))
			}
		}

		// K lanes through one traversal against K scalar Steps, flat and
		// packed.
		varint, err := NewEngineOpts(ih, pool, EngineOptions{BlockEncoding: EncodingVarint})
		if err != nil {
			t.Fatal(err)
		}
		k := 2 + int(width%8)
		lanes, batch := laneInputs(seed, ih.NumV, k)
		batchDst := make([]float64, ih.NumV*k)
		for _, e := range []*Engine{fused, varint} {
			e.StepBatch(batch, batchDst, k)
			requireLanesMatchScalar(t, e, lanes, batchDst)
		}
	})
}
