package core

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"ihtl/internal/compress"
	"ihtl/internal/gen"
	"ihtl/internal/sched"
)

// TestEncodingDifferential pins BlockEncoding varint bit-for-bit equal
// to the flat reference across worker counts {1, 3, GOMAXPROCS} and
// repeated steps, with both non-negative and signed/-0.0 sources.
func TestEncodingDifferential(t *testing.T) {
	workerCounts := []int{1, 3, runtime.GOMAXPROCS(0)}
	for name, g := range diffGraphs(t) {
		srcs := map[string][]float64{
			"int":    integerVec(4321, g.NumV),
			"signed": signedVec(99, g.NumV),
		}
		ih, err := Build(g, Params{HubsPerBlock: 64})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range workerCounts {
			t.Run(fmt.Sprintf("%s/w%d", name, workers), func(t *testing.T) {
				pool := sched.NewPool(workers)
				defer pool.Close()
				flat, err := NewEngineOpts(ih, pool, EngineOptions{BlockEncoding: EncodingFlat})
				if err != nil {
					t.Fatal(err)
				}
				e, err := NewEngineOpts(ih, pool, EngineOptions{BlockEncoding: EncodingVarint})
				if err != nil {
					t.Fatal(err)
				}
				if e.encoding != EncodingVarint {
					t.Fatalf("engine resolved to %v, want varint", e.encoding)
				}
				for vecName, src := range srcs {
					want := stepOldSpace(ih, flat, src)
					requireBitIdentical(t, vecName, want, stepOldSpace(ih, e, src))
					// A second step proves the shared buffers were left
					// clean.
					requireBitIdentical(t, vecName+" (second step)", want, stepOldSpace(ih, e, src))
				}
			})
		}
	}
}

// TestEncodingBatchDifferential is the K-lane mirror: StepBatch under
// varint equals StepBatch under flat.
func TestEncodingBatchDifferential(t *testing.T) {
	for name, g := range diffGraphs(t) {
		ih, err := Build(g, Params{HubsPerBlock: 64})
		if err != nil {
			t.Fatal(err)
		}
		pool := sched.NewPool(3)
		defer pool.Close()
		flat, err := NewEngineOpts(ih, pool, EngineOptions{BlockEncoding: EncodingFlat})
		if err != nil {
			t.Fatal(err)
		}
		e, err := NewEngineOpts(ih, pool, EngineOptions{BlockEncoding: EncodingVarint})
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{2, 5} {
			src := make([]float64, ih.NumV*k)
			for j := 0; j < k; j++ {
				lane := signedVec(uint64(1000+j), ih.NumV)
				for v := 0; v < ih.NumV; v++ {
					src[v*k+j] = lane[v]
				}
			}
			want := make([]float64, ih.NumV*k)
			flat.StepBatch(src, want, k)
			got := make([]float64, ih.NumV*k)
			e.StepBatch(src, got, k)
			requireBitIdentical(t, fmt.Sprintf("%s/k%d", name, k), want, got)
			e.StepBatch(src, got, k)
			requireBitIdentical(t, fmt.Sprintf("%s/k%d (second)", name, k), want, got)
		}
	}
}

// TestEncodedOnlyAutoResolution drops the flat topology and checks the
// auto encoding resolves to varint over the encoded-only graph — and
// that an explicitly flat engine re-materialises the flat arrays and
// still matches.
func TestEncodedOnlyAutoResolution(t *testing.T) {
	g, err := gen.RMAT(gen.DefaultRMAT(8, 8, 21))
	if err != nil {
		t.Fatal(err)
	}
	ih, err := Build(g, Params{HubsPerBlock: 64})
	if err != nil {
		t.Fatal(err)
	}
	pool := sched.NewPool(3)
	defer pool.Close()
	flat, err := NewEngine(ih, pool)
	if err != nil {
		t.Fatal(err)
	}
	if flat.encoding != EncodingFlat {
		t.Fatalf("auto over flat graph resolved to %v", flat.encoding)
	}
	src := integerVec(5, g.NumV)
	want := stepOldSpace(ih, flat, src)

	ih.EnsureEncoded()
	ih.DropFlatTopology()
	if !ih.EncodedOnly() {
		t.Fatal("EncodedOnly false after DropFlatTopology")
	}
	auto, err := NewEngine(ih, pool)
	if err != nil {
		t.Fatal(err)
	}
	if auto.encoding != EncodingVarint {
		t.Fatalf("auto over encoded-only graph resolved to %v", auto.encoding)
	}
	requireBitIdentical(t, "auto varint", want, stepOldSpace(ih, auto, src))

	// Forcing flat over the encoded-only graph must re-materialise.
	reflat, err := NewEngineOpts(ih, pool, EngineOptions{BlockEncoding: EncodingFlat})
	if err != nil {
		t.Fatal(err)
	}
	if ih.EncodedOnly() {
		t.Fatal("flat engine left the graph encoded-only")
	}
	requireBitIdentical(t, "re-materialised flat", want, stepOldSpace(ih, reflat, src))
}

// TestFlatTopologyRoundTrip pins EnsureEncoded -> DropFlatTopology ->
// EnsureFlatTopology as the identity on the adjacency arrays.
func TestFlatTopologyRoundTrip(t *testing.T) {
	g, err := gen.Web(gen.DefaultWeb(2000, 9))
	if err != nil {
		t.Fatal(err)
	}
	ih, err := Build(g, Params{HubsPerBlock: 64})
	if err != nil {
		t.Fatal(err)
	}
	var wantDsts [][]uint32
	for b := range ih.Blocks {
		wantDsts = append(wantDsts, append([]uint32(nil), ih.Blocks[b].Dsts...))
	}
	wantSrcs := append([]uint32(nil), ih.Sparse.Srcs...)

	ih.EnsureEncoded()
	ih.DropFlatTopology()
	ih.EnsureFlatTopology()
	for b := range ih.Blocks {
		if len(ih.Blocks[b].Dsts) != len(wantDsts[b]) {
			t.Fatalf("block %d: %d dsts, want %d", b, len(ih.Blocks[b].Dsts), len(wantDsts[b]))
		}
		for i := range wantDsts[b] {
			if ih.Blocks[b].Dsts[i] != wantDsts[b][i] {
				t.Fatalf("block %d dst %d: got %d want %d", b, i, ih.Blocks[b].Dsts[i], wantDsts[b][i])
			}
		}
	}
	if len(ih.Sparse.Srcs) != len(wantSrcs) {
		t.Fatalf("sparse: %d srcs, want %d", len(ih.Sparse.Srcs), len(wantSrcs))
	}
	for i := range wantSrcs {
		if ih.Sparse.Srcs[i] != wantSrcs[i] {
			t.Fatalf("sparse src %d: got %d want %d", i, ih.Sparse.Srcs[i], wantSrcs[i])
		}
	}
}

// TestVarintStepAllocationFree pins the varint decode loop's
// zero-allocation steady state for scalar and batched steps.
func TestVarintStepAllocationFree(t *testing.T) {
	g, err := gen.RMAT(gen.DefaultRMAT(9, 8, 5))
	if err != nil {
		t.Fatal(err)
	}
	ih, err := Build(g, Params{HubsPerBlock: 64})
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngineOpts(ih, testPool, EngineOptions{BlockEncoding: EncodingVarint})
	if err != nil {
		t.Fatal(err)
	}
	src := integerVec(3, g.NumV)
	dst := make([]float64, g.NumV)
	for i := 0; i < 3; i++ { // warm worker stacks
		e.Step(src, dst)
	}
	if allocs := testing.AllocsPerRun(20, func() { e.Step(src, dst) }); allocs != 0 {
		t.Errorf("varint Step allocates %.1f objects per run, want 0", allocs)
	}

	const k = 4
	srcB := integerVec(17, g.NumV*k)
	dstB := make([]float64, g.NumV*k)
	e.StepBatch(srcB, dstB, k) // allocates the width's batch state
	for i := 0; i < 3; i++ {
		e.StepBatch(srcB, dstB, k)
	}
	if allocs := testing.AllocsPerRun(20, func() { e.StepBatch(srcB, dstB, k) }); allocs != 0 {
		t.Errorf("varint StepBatch allocates %.1f objects per run, want 0", allocs)
	}
}

// TestEncodingParseAndString pins the flag surface.
func TestEncodingParseAndString(t *testing.T) {
	for _, tc := range []struct {
		s    string
		want BlockEncoding
	}{{"auto", EncodingAuto}, {"", EncodingAuto}, {"flat", EncodingFlat}, {"varint", EncodingVarint}} {
		got, err := ParseBlockEncoding(tc.s)
		if err != nil || got != tc.want {
			t.Fatalf("ParseBlockEncoding(%q) = %v, %v", tc.s, got, err)
		}
	}
	if _, err := ParseBlockEncoding("gzip"); err == nil {
		t.Fatal("unknown encoding accepted")
	}
	if EncodingVarint.String() != "varint" || EncodingFlat.String() != "flat" || EncodingAuto.String() != "auto" {
		t.Fatal("BlockEncoding String mismatch")
	}
}

// TestEncodedPushSkipsZeroSourceRows drives the fused push kernels over
// one hand-built chunk whose rows have every gap width, an empty row
// and a multi-byte header, under every combination of skipped (+0.0),
// unskippable-zero (-0.0) and non-zero sources. A skipped row must
// advance the cursor by exactly its deg×width gap bytes: one byte off
// and every later row scatters garbage, so the hub buffer must match
// the flat kernel's bit for bit. The width-4 row's neighbour lies
// beyond the buffer and its source is always +0.0 — it can only be
// skipped, never walked.
func TestEncodedPushSkipsZeroSourceRows(t *testing.T) {
	long := make([]uint32, 40) // degree 40: a two-byte row header
	for i := range long {
		long[i] = uint32(3 * i)
	}
	rows := [][]uint32{
		{1, 5},         // width 1
		{300, 301},     // width 2
		{70000, 70001}, // width 3
		{1<<24 + 5},    // width 4, never walked
		{2},            // width 1
		{},             // empty
		long,           // width 1, long header
		{1000, 66000},  // width 3
	}
	vary := []int{0, 1, 2, 4, 6, 7} // the rest keep a +0.0 source
	fb := &FlippedBlock{Index: []int64{0}}
	for _, r := range rows {
		fb.Dsts = append(fb.Dsts, r...)
		fb.Index = append(fb.Index, int64(len(fb.Dsts)))
	}
	fb.Enc = compress.EncodeChunked(fb.Index, fb.Dsts, 0)
	if fb.Enc.Chunks() != 1 {
		t.Fatalf("fixture spans %d chunks, want 1", fb.Enc.Chunks())
	}
	bt := &blockTask{lo: 0, hi: len(rows), chunk: 0}
	negZero := math.Copysign(0, -1)
	vals := []float64{0, negZero, 3}
	const nbuf = 70002

	combos := 1
	for range vary {
		combos *= len(vals)
	}
	src := make([]float64, len(rows))
	want, got := make([]float64, nbuf), make([]float64, nbuf)
	for c := 0; c < combos; c++ {
		for i, x := 0, c; i < len(vary); i, x = i+1, x/len(vals) {
			src[vary[i]] = vals[x%len(vals)]
		}
		clear(want)
		clear(got)
		pushTaskFlat(bt, fb, src, want)
		pushTaskEnc(bt, fb, src, got)
		requireBitIdentical(t, fmt.Sprintf("scalar src=%v", src), want, got)
	}

	// K = 2: a row is skipped only when both lanes are +0.0.
	const k = 2
	lanes := [][k]float64{{0, 0}, {0, negZero}, {2, 0}}
	srcB := make([]float64, len(rows)*k)
	wantB, gotB := make([]float64, nbuf*k), make([]float64, nbuf*k)
	for c := 0; c < combos; c++ {
		for i, x := 0, c; i < len(vary); i, x = i+1, x/len(lanes) {
			copy(srcB[vary[i]*k:], lanes[x%len(lanes)][:])
		}
		clear(wantB)
		clear(gotB)
		pushTaskFlatBatch(k, bt, fb, srcB, wantB)
		pushTaskEncBatch(k, bt, fb, srcB, gotB)
		requireBitIdentical(t, fmt.Sprintf("batch src=%v", srcB), wantB, gotB)
	}
}
