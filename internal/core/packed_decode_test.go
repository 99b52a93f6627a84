package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"

	"ihtl/internal/compress"
	"ihtl/internal/gen"
	"ihtl/internal/spmv"
)

// TestFlatTopologyRoundTrip pins the packed file's decode at open as
// the identity on the adjacency arrays, on a web graph whose blocks
// hold many empty and one-edge rows.
func TestFlatTopologyRoundTrip(t *testing.T) {
	g, err := gen.Web(gen.DefaultWeb(2000, 9))
	if err != nil {
		t.Fatal(err)
	}
	ih, err := Build(g, Params{HubsPerBlock: 64})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := ih.WriteToV2(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := parseV2(alignedCopy(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.V2Stream() != "packed" || len(got.Blocks) != len(ih.Blocks) {
		t.Fatalf("opened a %s file of %d blocks, want packed and %d", got.V2Stream(), len(got.Blocks), len(ih.Blocks))
	}
	for b := range ih.Blocks {
		if !slices.Equal(got.Blocks[b].Dsts, ih.Blocks[b].Dsts) {
			t.Fatalf("block %d: the decode differs from the built adjacency", b)
		}
	}
	if !slices.Equal(got.Sparse.Srcs, ih.Sparse.Srcs) {
		t.Fatal("sparse: the decode differs from the built adjacency")
	}
}

// TestEncodedPushSkipsZeroSourceRows decodes one hand-built packed
// chunk whose rows have every gap width, an empty row and a multi-byte
// header — the rows a packed file holds — and drives the push kernels
// over the decode under every combination of skipped (+0.0),
// unskippable-zero (-0.0) and non-zero sources. The decode must give
// the rows back, and the scalar Go kernel, its prefetching body (where
// the build has it) and the K-lane loop must each match a plain loop
// bit for bit. The width-4 row's neighbour lies beyond the buffer and
// its source is always +0.0 — it can only be skipped, never walked.
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
	index := []int64{0}
	var flat []uint32
	for _, r := range rows {
		flat = append(flat, r...)
		index = append(index, int64(len(flat)))
	}
	ck := compress.EncodeChunked(index, flat, 0)
	if ck.Chunks() != 1 {
		t.Fatalf("fixture spans %d chunks, want 1", ck.Chunks())
	}
	if err := ck.Validate(1<<25, index); err != nil {
		t.Fatal(err)
	}
	fb := &FlippedBlock{Index: index, Dsts: decodeFlat(ck)}
	if !slices.Equal(fb.Dsts, flat) {
		t.Fatalf("decoded rows %v, want %v", fb.Dsts, flat)
	}
	bt := &blockTask{lo: 0, hi: len(rows)}
	negZero := math.Copysign(0, -1)
	vals := []float64{0, negZero, 3}
	const nbuf = 70002
	// plain is the push by definition: a row whose lanes are all +0.0
	// adds nothing and is skipped, every other row adds into each of
	// its neighbours.
	plain := func(k int, src, buf []float64) {
		for s, row := range rows {
			xs := src[s*k : s*k+k]
			if spmv.SkipZeroLanes(xs) {
				continue
			}
			for _, d := range row {
				for j, x := range xs {
					buf[int(d)*k+j] += x
				}
			}
		}
	}

	combos := 1
	for range vary {
		combos *= len(vals)
	}
	bodies := []string{"go"}
	if scalarAsmDist > 0 { // a build with the prefetching assembly
		bodies = append(bodies, "prefetch")
	}
	src := make([]float64, len(rows))
	want, got := make([]float64, nbuf), make([]float64, nbuf)
	for c := 0; c < combos; c++ {
		for i, x := 0, c; i < len(vary); i, x = i+1, x/len(vals) {
			src[vary[i]] = vals[x%len(vals)]
		}
		clear(want)
		plain(1, src, want)
		for _, body := range bodies {
			clear(got)
			if body == "go" {
				pushTaskFlat(bt, fb, src, got)
			} else {
				pushTaskFlatAsm(fb.Index, fb.Dsts, bt.lo, bt.hi, src, got, prefetchDist)
			}
			requireBitIdentical(t, fmt.Sprintf("scalar %s src=%v", body, src), want, got)
		}
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
		plain(k, srcB, wantB)
		pushTaskFlatBatch(k, bt, fb, srcB, gotB)
		requireBitIdentical(t, fmt.Sprintf("batch src=%v", srcB), wantB, gotB)
	}
}

// parseV2Alloc parses an aligned copy of b and returns what the parse
// allocated (runtime.MemStats.TotalAlloc), beside its error.
func parseV2Alloc(b []byte) (uint64, error) {
	data := alignedCopy(b)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := parseV2(data)
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, err
}

// v2SparseSegment walks a well-formed packed v2 file to its sparse
// block and returns the byte offsets of its Index array and of its
// chunked segment's meta (numSrc, numEdges, … as u64s).
func v2SparseSegment(t *testing.T, data []byte) (index, meta int64) {
	t.Helper()
	c := &v2cursor{data: data}
	must := func(v uint64, err error) int64 {
		if err != nil {
			t.Fatal(err)
		}
		return int64(v)
	}
	skip := func(n int64) {
		if _, err := c.bytes(n); err != nil {
			t.Fatal(err)
		}
		c.align64()
	}
	numV := int64(binary.LittleEndian.Uint32(data[12:]))
	numBlocks := int64(binary.LittleEndian.Uint32(data[44:]))
	c.off = 64
	skip(4 * numV) // newid
	skip(4 * numV) // oldid
	for b := int64(0); b < numBlocks; b++ {
		c.off += 16 // hubLo, hubHi, sources, pad
		lenIdx := must(c.u64())
		c.align64()
		skip(8 * lenIdx)
		var m [6]int64
		for i := range m {
			m[i] = must(c.u64())
		}
		c.align64()
		skip(4 * m[4]) // srcoff
		skip(8 * m[4]) // byteoff
		skip(m[5])     // data
	}
	lenIdx := must(c.u64())
	c.align64()
	index = c.off
	skip(8 * lenIdx)
	return index, c.off
}

// TestV2RejectsHostileEdgeCount opens a packed file whose sparse index
// and segment declare 16 M edges — every count that parseV2 checks
// before Validate agrees, the header's edge total too — while its data
// section holds a few thousand. The open must err, and before the
// decode allocates the declared 64 MiB: it may allocate no more than a
// successful open's bound, 4× the file's size. Every successful open of
// the corruption table (TestV2RejectsCorruption) is held to that bound.
func TestV2RejectsHostileEdgeCount(t *testing.T) {
	ih := buildV2TestGraph(t)
	var buf bytes.Buffer
	if _, err := ih.WriteToV2(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if got, err := parseV2Alloc(data); err != nil || got > 4*uint64(len(data)) {
		t.Fatalf("the well-formed file: allocated %d bytes (bound %d), err %v", got, 4*len(data), err)
	}
	const declared = 1 << 24
	idx, meta := v2SparseSegment(t, data)
	last := idx + 8*int64(len(ih.Sparse.Index)-1) // the sparse index's end
	bad := append([]byte(nil), data...)
	le := binary.LittleEndian
	if int64(le.Uint64(bad[last:])) != ih.Sparse.NumEdges() || int64(le.Uint64(bad[meta+8:])) != ih.Sparse.NumEdges() {
		t.Fatal("v2SparseSegment did not find the sparse block")
	}
	le.PutUint64(bad[last:], declared)
	le.PutUint64(bad[meta+8:], declared)
	le.PutUint64(bad[16:], uint64(ih.NumE-ih.Sparse.NumEdges()+declared))
	got, err := parseV2Alloc(bad)
	if err == nil {
		t.Fatal("a file declaring more edges than its data holds was accepted")
	}
	if got > 4*uint64(len(bad)) {
		t.Fatalf("the open allocated %d bytes before it erred (%v): more than 4× the %d-byte file", got, err, len(bad))
	}
}

// requireDecodeBounded fails t unless a successful open of file
// allocated at most 4× its size: what decodeFlat may take once
// Validate has tied every edge to at least one data byte.
func requireDecodeBounded(t *testing.T, name string, file []byte) {
	t.Helper()
	if got, err := parseV2Alloc(file); err == nil && got > 4*uint64(len(file)) {
		t.Fatalf("%s: the open allocated %d bytes, more than 4× the %d-byte file", name, got, len(file))
	}
}
