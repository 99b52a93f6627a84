package compress

import (
	"bytes"
	"testing"
)

// FuzzDecodeAdjacency feeds hostile byte streams and shapes to the
// checked adjacency decoder: it must either round-trip-consistently
// succeed or return an error — never panic, and never allocate more
// neighbour slots than the stream could encode.
func FuzzDecodeAdjacency(f *testing.F) {
	f.Add(EncodeAdjacency([]int64{0, 2, 2, 5}, []uint32{0, 7, 1, 2, 4_000_000_000}), 3, int64(5))
	f.Add([]byte{}, 0, int64(0))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x02}, 1, int64(1))
	f.Add([]byte{1, 0x80}, 1, int64(1))
	f.Add([]byte{2, 5, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F}, 1, int64(2))
	f.Fuzz(func(t *testing.T, data []byte, numV int, numE int64) {
		if numV > 1<<20 || numE > 1<<22 {
			return // keep memory bounded; hostile shapes are covered below the cap
		}
		index, nbrs, err := DecodeAdjacency(data, numV, numE)
		if err != nil {
			return
		}
		if len(index) != numV+1 || int64(len(nbrs)) != numE {
			t.Fatalf("accepted stream decoded to wrong shape %d/%d", len(index), len(nbrs))
		}
		// Accepted input must re-encode to the identical stream:
		// varint encodings are canonical except for padded
		// continuation bytes, which a decoded-accepted stream must
		// not contain.
		if enc := EncodeAdjacency(index, nbrs); !bytes.Equal(enc, data) {
			// Non-canonical (padded) varints decode fine but
			// re-encode shorter; both are valid, so only flag
			// growth.
			if len(enc) > len(data) {
				t.Fatalf("re-encode grew %d -> %d bytes", len(data), len(enc))
			}
		}
	})
}

// FuzzChunkedValidate is the trust boundary under fire: hostile row
// bytes under hostile chunk tables (up to two chunks, cut anywhere)
// must be rejected by Validate with an error, never a panic — and
// whatever it accepts must then be safe for the unchecked decoder:
// exactly the declared rows and edges, every neighbour below maxDst,
// no access outside the scratch (the -tags=ihtlchecked build turns
// such an access into a panic instead of silent corruption).
func FuzzChunkedValidate(f *testing.F) {
	seed := EncodeChunked([]int64{0, 2, 2, 5}, []uint32{0, 7, 1, 2, 9}, 2)
	f.Add(seed.Data, 3, int64(5), uint32(10), 1, int(seed.ByteOff[1]))
	f.Add(seed.Data, 3, int64(5), uint32(9), 1, int(seed.ByteOff[1]))
	f.Add([]byte{0x0b, 1, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0, 0, 0}, 1, int64(2), uint32(1<<32-1), 0, 0)
	f.Add([]byte{0x80, 0x80, 0, 0, 0}, 1, int64(0), uint32(1), 1, 1)
	f.Add([]byte{0, 0, 0}, 0, int64(0), uint32(0), 0, 0)
	f.Fuzz(func(t *testing.T, data []byte, numSrc int, numEdges int64, maxDst uint32, cutRow, cutByte int) {
		if numSrc > 1<<16 || numEdges > 1<<18 {
			return // keep the accepted-path scratch bounded
		}
		ck := &Chunked{
			NumSrc: numSrc, NumEdges: numEdges, MaxSrcs: numSrc, MaxEdges: int(numEdges),
			SrcOff:  []int32{0, int32(cutRow), int32(numSrc)},
			ByteOff: []int64{0, int64(cutByte), int64(len(data)) - rowPad},
			Data:    data,
		}
		if err := ck.Validate(maxDst, nil); err != nil {
			return
		}
		sIdx := make([]int32, ck.MaxSrcs+1)
		dsts := make([]uint32, ck.MaxEdges)
		index := []int64{0}
		var nbrs []uint32
		for c := 0; c < ck.Chunks(); c++ {
			nsrc, ne := ck.DecodeChunkCSR(c, sIdx, dsts)
			for s := 0; s < nsrc; s++ {
				index = append(index, index[len(index)-1]+int64(sIdx[s+1]-sIdx[s]))
			}
			for _, d := range dsts[:ne] {
				if d >= maxDst {
					t.Fatalf("accepted stream decodes neighbour %d >= maxDst %d", d, maxDst)
				}
			}
			nbrs = append(nbrs, dsts[:ne]...)
		}
		if len(index)-1 != numSrc || int64(len(nbrs)) != numEdges {
			t.Fatalf("accepted stream decodes to %d rows / %d edges, declared %d / %d", len(index)-1, len(nbrs), numSrc, numEdges)
		}
		// The decoded rows are what Validate checked an index against.
		if err := ck.Validate(maxDst, index); err != nil {
			t.Fatalf("decoded degrees disagree with the validated headers: %v", err)
		}
		// Accepted input re-encodes no larger: the encoder picks the
		// narrowest width, a hostile stream may pad gaps wider.
		if re := EncodeChunked(index, nbrs, 0); len(re.Data) > len(data) {
			t.Fatalf("re-encode grew %d -> %d bytes", len(data), len(re.Data))
		}
	})
}

// FuzzChunkedFromAdjacency checks that any adjacency the checked
// decoder accepts also survives the chunked encode -> Validate ->
// unchecked-decode path bit-for-bit, at several chunk targets.
func FuzzChunkedFromAdjacency(f *testing.F) {
	f.Add(EncodeAdjacency([]int64{0, 2, 2, 5}, []uint32{0, 7, 1, 2, 9}), 3, int64(5), 2)
	f.Fuzz(func(t *testing.T, data []byte, numV int, numE int64, target int) {
		if numV > 1<<16 || numE > 1<<18 || target > 1<<16 {
			return
		}
		index, nbrs, err := DecodeAdjacency(data, numV, numE)
		if err != nil {
			return
		}
		ck := EncodeChunked(index, nbrs, target)
		maxDst := uint32(1)
		for _, d := range nbrs {
			if d >= maxDst {
				maxDst = d + 1
			}
		}
		if err := ck.Validate(maxDst, index); err != nil {
			t.Fatalf("self-encoded chunked failed Validate: %v", err)
		}
		sIdx := make([]int32, ck.MaxSrcs+1)
		dsts := make([]uint32, ck.MaxEdges)
		pos := 0
		for c := 0; c < ck.Chunks(); c++ {
			_, ne := ck.DecodeChunkCSR(c, sIdx, dsts)
			for i := 0; i < ne; i++ {
				if dsts[i] != nbrs[pos] {
					t.Fatalf("chunk %d edge %d = %d, want %d", c, i, dsts[i], nbrs[pos])
				}
				pos++
			}
		}
		if pos != len(nbrs) {
			t.Fatalf("chunked decode covered %d edges, want %d", pos, len(nbrs))
		}
	})
}
