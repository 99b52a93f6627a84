package compress

import (
	"bytes"
	"runtime"
	"testing"
	"testing/quick"
)

// randomAdj builds a random sorted adjacency for property tests.
func randomAdj(degsRaw []uint8, seed uint32, gapMod uint32) ([]int64, []uint32) {
	index := []int64{0}
	var nbrs []uint32
	x := seed
	for _, dr := range degsRaw {
		deg := int(dr % 17)
		cur := uint32(0)
		for i := 0; i < deg; i++ {
			x = x*1664525 + 1013904223
			cur += x % gapMod
			nbrs = append(nbrs, cur)
		}
		index = append(index, index[len(index)-1]+int64(deg))
	}
	return index, nbrs
}

func chunkedRoundTrip(t *testing.T, index []int64, nbrs []uint32, target int) {
	t.Helper()
	ck := EncodeChunked(index, nbrs, target)
	bound := uint64(1)
	for _, d := range nbrs {
		if uint64(d) >= bound {
			bound = uint64(d) + 1
		}
	}
	// A neighbour of MaxUint32 is below no uint32 bound: it must
	// round-trip through the decoder and fail Validate.
	if err := ck.Validate(uint32(bound), index); (err != nil) != (bound > 1<<32-1) {
		t.Fatalf("Validate(%d): %v", bound, err)
	}
	if ck.NumSrc != len(index)-1 || ck.NumEdges != int64(len(nbrs)) {
		t.Fatalf("shape %d/%d, want %d/%d", ck.NumSrc, ck.NumEdges, len(index)-1, len(nbrs))
	}
	sIdx := make([]int32, ck.MaxSrcs+1)
	dsts := make([]uint32, ck.MaxEdges)
	var gotE int64
	for c := 0; c < ck.Chunks(); c++ {
		nsrc, ne := ck.DecodeChunkCSR(c, sIdx, dsts)
		if nsrc != int(ck.SrcOff[c+1]-ck.SrcOff[c]) {
			t.Fatalf("chunk %d rows %d, want %d", c, nsrc, ck.SrcOff[c+1]-ck.SrcOff[c])
		}
		base := int(ck.SrcOff[c])
		for s := 0; s < nsrc; s++ {
			gLo, gHi := index[base+s], index[base+s+1]
			lLo, lHi := sIdx[s], sIdx[s+1]
			if int64(lHi-lLo) != gHi-gLo {
				t.Fatalf("chunk %d row %d degree %d, want %d", c, s, lHi-lLo, gHi-gLo)
			}
			for i := int64(0); i < gHi-gLo; i++ {
				if dsts[int64(lLo)+i] != nbrs[gLo+i] {
					t.Fatalf("chunk %d row %d nbr %d = %d, want %d",
						c, s, i, dsts[int64(lLo)+i], nbrs[gLo+i])
				}
			}
		}
		gotE += int64(ne)
	}
	if gotE != int64(len(nbrs)) {
		t.Fatalf("decoded %d edges, want %d", gotE, len(nbrs))
	}
}

func TestChunkedRoundTrip(t *testing.T) {
	chunkedRoundTrip(t, []int64{0}, nil, 0)
	chunkedRoundTrip(t, []int64{0, 0, 0, 0}, nil, 2)
	chunkedRoundTrip(t, []int64{0, 3}, []uint32{1, 5, 9}, 1)
	chunkedRoundTrip(t, []int64{0, 2, 2, 5}, []uint32{0, 7, 1, 2, 4_000_000_000}, 2)

	// A row whose degree exceeds the target must become its own chunk.
	idx := []int64{0, 1, 9, 10}
	nbrs := []uint32{3, 0, 1, 2, 3, 4, 5, 6, 7, 9}
	ck := EncodeChunked(idx, nbrs, 4)
	if ck.MaxEdges < 8 {
		t.Fatalf("oversized row not reflected in MaxEdges: %d", ck.MaxEdges)
	}
	chunkedRoundTrip(t, idx, nbrs, 4)
}

// TestChunkedWidthEdges round-trips rows whose largest gap sits on
// either side of every width boundary, and pins the width the encoder
// picks (the low two bits of the row's one-byte header) and the exact
// encoded size: header + deg×width + pad.
func TestChunkedWidthEdges(t *testing.T) {
	cases := []struct {
		name  string
		row   []uint32
		width int
	}{
		{"empty", nil, 1},
		{"zero first neighbour", []uint32{0}, 1},
		{"zero gaps", []uint32{7, 7, 7}, 1},
		{"gap 255", []uint32{3, 258}, 1},
		{"gap 256", []uint32{3, 259}, 2},
		{"first 255", []uint32{255, 256}, 1},
		{"first 256", []uint32{256, 257}, 2},
		{"gap 65535", []uint32{1, 65536}, 2},
		{"gap 65536", []uint32{1, 65537}, 3},
		{"gap 2^24-1", []uint32{5, 5 + 1<<24 - 1}, 3},
		{"gap 2^24", []uint32{5, 5 + 1<<24}, 4},
		{"first MaxUint32", []uint32{1<<32 - 1}, 4},
		{"MaxUint32 after small", []uint32{1, 2, 1<<32 - 1}, 4},
		{"wide gap first, narrow after", []uint32{1 << 20, 1<<20 + 1, 1<<20 + 2}, 3},
	}
	for _, tc := range cases {
		index := []int64{0, int64(len(tc.row))}
		ck := EncodeChunked(index, tc.row, 0)
		if got := int(ck.Data[0]&3) + 1; got != tc.width {
			t.Errorf("%s: encoder chose width %d, want %d", tc.name, got, tc.width)
		}
		if want := 1 + len(tc.row)*tc.width + rowPad; len(ck.Data) != want || cap(ck.Data) != want {
			t.Errorf("%s: %d data bytes (cap %d), want exactly %d", tc.name, len(ck.Data), cap(ck.Data), want)
		}
		chunkedRoundTrip(t, index, tc.row, 0)
	}
	// All of them as consecutive rows of one adjacency, at a chunk target
	// that splits between rows of different widths, plus a degree past
	// the one-byte header.
	index := []int64{0}
	var nbrs []uint32
	for _, tc := range cases {
		nbrs = append(nbrs, tc.row...)
		index = append(index, int64(len(nbrs)))
	}
	for i := uint32(0); i < 40; i++ {
		nbrs = append(nbrs, 300*i)
	}
	index = append(index, int64(len(nbrs)))
	for _, target := range []int{1, 3, 5, 0} {
		chunkedRoundTrip(t, index, nbrs, target)
	}
}

// TestChunkedEmptyBlock pins the encoding of an adjacency with no rows:
// empty chunk tables and a Data that is only the pad.
func TestChunkedEmptyBlock(t *testing.T) {
	for _, index := range [][]int64{nil, {0}} {
		ck := EncodeChunked(index, nil, 0)
		if ck.Chunks() != 0 || ck.NumSrc != 0 || len(ck.Data) != rowPad {
			t.Fatalf("empty block encoded as %d chunks, %d rows, %d bytes", ck.Chunks(), ck.NumSrc, len(ck.Data))
		}
		if err := ck.Validate(1, nil); err != nil {
			t.Fatalf("empty block rejected: %v", err)
		}
	}
}

func TestChunkedBoundsRespectTarget(t *testing.T) {
	index := make([]int64, 1001)
	var nbrs []uint32
	for v := 0; v < 1000; v++ {
		for k := 0; k < 7; k++ {
			nbrs = append(nbrs, uint32(v+k))
		}
		index[v+1] = int64(len(nbrs))
	}
	const target = 64
	ck := EncodeChunked(index, nbrs, target)
	if ck.MaxEdges > target {
		t.Fatalf("MaxEdges %d exceeds target %d with no oversized row", ck.MaxEdges, target)
	}
	if ck.MaxSrcs > target {
		t.Fatalf("MaxSrcs %d exceeds target %d", ck.MaxSrcs, target)
	}
	if ck.Chunks() < len(nbrs)/target {
		t.Fatalf("too few chunks: %d", ck.Chunks())
	}
	chunkedRoundTrip(t, index, nbrs, target)
}

func TestChunkedProperty(t *testing.T) {
	f := func(degsRaw []uint8, seed uint32, targetRaw uint8) bool {
		index, nbrs := randomAdj(degsRaw, seed, 1000)
		target := int(targetRaw%40) + 1
		ck := EncodeChunked(index, nbrs, target)
		maxDst := uint32(1)
		for _, d := range nbrs {
			if d >= maxDst {
				maxDst = d + 1
			}
		}
		if err := ck.Validate(maxDst, index); err != nil {
			return false
		}
		sIdx := make([]int32, ck.MaxSrcs+1)
		dsts := make([]uint32, ck.MaxEdges)
		pos := 0
		for c := 0; c < ck.Chunks(); c++ {
			_, ne := ck.DecodeChunkCSR(c, sIdx, dsts)
			for i := 0; i < ne; i++ {
				if dsts[i] != nbrs[pos] {
					return false
				}
				pos++
			}
		}
		return pos == len(nbrs)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestChunkedValidateRejects is the rejection table of the trust
// boundary: every way a Chunked of external origin can lie must come
// back as an error — never a panic — and without Validate allocating
// anything sized by what the structure declares.
func TestChunkedValidateRejects(t *testing.T) {
	idx := []int64{0, 2, 4, 4}
	nbrs := []uint32{1, 5, 0, 9}
	good := func() *Chunked { return EncodeChunked(idx, nbrs, 2) }
	// Layout of good(): chunk 0 = row 0 (05 01 04), chunk 1 = rows 1-2
	// (05 00 09 | 00), then the pad.
	if ck := good(); ck.Chunks() != 2 || !bytes.Equal(ck.Data, []byte{0x08, 1, 4, 0x08, 0, 9, 0x00, 0, 0, 0}) {
		t.Fatalf("fixture drifted: %d chunks, data % x", ck.Chunks(), ck.Data)
	}
	if err := good().Validate(10, idx); err != nil {
		t.Fatalf("good chunked rejected: %v", err)
	}
	cases := []struct {
		name   string
		maxDst uint32
		index  []int64
		mutate func(ck *Chunked)
	}{
		{"neighbour >= maxDst", 9, idx, func(ck *Chunked) {}},
		{"truncated header", 10, nil, func(ck *Chunked) {
			// Row 0's header becomes a bare continuation byte that runs
			// into the chunk's end.
			ck.Data = []byte{0x88, 0x81, 0x84, 0x08, 0, 9, 0, 0, 0, 0}
		}},
		{"deg×width past the chunk", 10, nil, func(ck *Chunked) { ck.Data[0] = 0x09 }},  // width 2: 4 bytes, 2 left
		{"deg above MaxEdges - seen", 10, nil, func(ck *Chunked) { ck.Data[0] = 0x0c }}, // 3 gaps, MaxEdges 2
		{"gap sum overflows 32 bits", 1<<32 - 1, nil, func(ck *Chunked) {
			// One row: 2^32-2, then a gap of 3.
			*ck = *EncodeChunked([]int64{0, 2}, []uint32{1<<32 - 2, 1}, 0)
		}},
		{"trailing byte in a chunk", 10, nil, func(ck *Chunked) { ck.ByteOff[1] = 4 }}, // chunk 0's row ends at 3
		{"missing pad", 10, nil, func(ck *Chunked) { ck.Data = ck.Data[:len(ck.Data)-1] }},
		{"pad not counted by the byte table", 10, nil, func(ck *Chunked) { ck.ByteOff[2] += rowPad }},
		{"non-zero pad", 10, nil, func(ck *Chunked) { ck.Data[len(ck.Data)-2] = 1 }},
		{"MaxEdges too small", 10, nil, func(ck *Chunked) { ck.MaxEdges = 1 }},
		{"MaxEdges negative", 10, nil, func(ck *Chunked) { ck.MaxEdges = -1 }},
		{"MaxEdges above NumEdges", 10, nil, func(ck *Chunked) { ck.MaxEdges = 5 }},
		{"MaxSrcs too small", 10, nil, func(ck *Chunked) { ck.MaxSrcs = 1 }},
		{"MaxSrcs above NumSrc", 10, nil, func(ck *Chunked) { ck.MaxSrcs = 4 }},
		{"NumEdges mismatch", 10, nil, func(ck *Chunked) { ck.NumEdges++ }},
		{"NumSrc mismatch", 10, nil, func(ck *Chunked) { ck.NumSrc++ }},
		{"non-monotone ByteOff", 10, nil, func(ck *Chunked) { ck.ByteOff[1] = ck.ByteOff[2] + 1 }},
		{"negative ByteOff", 10, nil, func(ck *Chunked) { ck.ByteOff[1] = -1 }},
		{"non-monotone SrcOff", 10, nil, func(ck *Chunked) { ck.SrcOff[1] = 4 }},
		{"tables of different length", 10, nil, func(ck *Chunked) { ck.SrcOff = ck.SrcOff[:2] }},
		{"no tables", 10, nil, func(ck *Chunked) { ck.SrcOff, ck.ByteOff = nil, nil }},
		{"hostile sizes", 10, nil, func(ck *Chunked) { ck.NumSrc, ck.NumEdges, ck.MaxSrcs, ck.MaxEdges = 1<<40, 1<<40, 1<<40, 1<<40 }},
		{"index degree disagrees", 10, []int64{0, 1, 4, 4}, func(ck *Chunked) {}},
		{"index not from 0", 10, []int64{1, 3, 5, 5}, func(ck *Chunked) {}},
		{"index too short", 10, []int64{0, 2, 4}, func(ck *Chunked) {}},
	}
	for _, tc := range cases {
		ck := good()
		tc.mutate(ck)
		var err error
		heap := heapBytes(func() { err = ck.Validate(tc.maxDst, tc.index) })
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
		// The error value is all a rejection may allocate.
		if heap > 1<<10 {
			t.Errorf("%s: Validate allocated %d bytes rejecting it", tc.name, heap)
		}
	}
	ck := good()
	if heap := heapBytes(func() { _ = ck.Validate(10, idx) }); heap != 0 {
		t.Errorf("Validate allocated %d bytes accepting a good stream", heap)
	}
}

// heapBytes returns the bytes fn allocated on the heap: the least
// TotalAlloc growth over several calls. TotalAlloc is process-wide, so
// one reading also counts whatever another goroutine (a parallel test,
// the race runtime) allocated meanwhile; fn's own allocation is in
// every reading, the noise is not.
func heapBytes(fn func()) uint64 {
	best := ^uint64(0)
	for range 5 {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		fn()
		runtime.ReadMemStats(&m1)
		best = min(best, m1.TotalAlloc-m0.TotalAlloc)
	}
	return best
}

// TestEncodeCapacityNoGrow pins the satellite fix: the sampled
// capacity estimate must cover sorted locality-friendly inputs in one
// allocation (no append grow), while staying within 2x of the actual
// encoded size (no return to the flat 2·E+V over-reserve).
func TestEncodeCapacityNoGrow(t *testing.T) {
	n := 4000
	index := make([]int64, n+1)
	var nbrs []uint32
	x := uint32(12345)
	for v := 0; v < n; v++ {
		deg := 5 + int(x%32)
		x = x*1664525 + 1013904223
		cur := uint32(v)
		for k := 0; k < deg; k++ {
			x = x*1664525 + 1013904223
			cur += x % 64
			nbrs = append(nbrs, cur)
		}
		index[v+1] = int64(len(nbrs))
	}
	est := estimateAdjCap(index, nbrs)
	enc := EncodeAdjacency(index, nbrs)
	if len(enc) > est {
		t.Fatalf("estimate %d below encoded size %d: encode grew", est, len(enc))
	}
	if cap(enc) != est {
		t.Fatalf("encode grew: cap %d, initial estimate %d", cap(enc), est)
	}
	if est > 2*len(enc)+64 {
		t.Fatalf("estimate %d wastes >2x over %d encoded bytes", est, len(enc))
	}
}

func TestEstimateDegenerate(t *testing.T) {
	if got := estimateAdjCap([]int64{0}, nil); got != 0 {
		t.Fatalf("empty estimate = %d", got)
	}
	// All edges on one row the sample stride (200/64 = 3) misses:
	// row 151 is not a multiple of 3, so sampleEdges stays 0 and the
	// fallback width must still cover the stream.
	index := make([]int64, 201)
	for v := 152; v <= 200; v++ {
		index[v] = 3
	}
	nbrs := []uint32{1, 2, 3}
	est := estimateAdjCap(index, nbrs)
	enc := EncodeAdjacency(index, nbrs)
	if est < len(enc)/2 {
		t.Fatalf("degenerate estimate %d far below %d", est, len(enc))
	}
}
