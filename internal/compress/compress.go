// Package compress implements the light-weight graph-topology
// compression the paper lists as future work for shrinking iHTL's
// topology data (§6, citing the WebGraph framework's techniques):
// per-vertex delta encoding of sorted neighbour lists. Sorted adjacency
// has small gaps on locality-friendly orderings, so gaps compress far
// below the flat 4 bytes per neighbour.
//
// Two layouts are provided. EncodeAdjacency/DecodeAdjacency produce a
// single stream of LEB128 varint gaps for a whole CSR/CSC — the
// archival format of cmd/ihtlconvert's "compressed" output, where size
// is all that counts. Chunked stores the same gaps as fixed-width
// packed rows split at edge-count boundaries: a few more bytes per
// edge for a decode with no data-dependent branch. The v2 engine file
// stores it, and opening the file decodes it to the flat adjacency the
// core engine walks.
package compress

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"ihtl/internal/unchecked"
)

// uvarintLen returns the encoded size of v in bytes without encoding.
func uvarintLen(v uint64) int {
	if v == 0 {
		return 1
	}
	return (bits.Len64(v) + 6) / 7
}

// estimateAdjCap returns an initial output-buffer capacity for
// encoding the given adjacency, computed from the input instead of the
// old flat 2·E+V guess (which over-reserved ~2× on tightly clustered
// orderings and under-reserved on scattered ones, forcing grows mid
// build). Degree-varint bytes are summed exactly (one cheap O(V)
// pass); gap bytes are extrapolated from the exact encoded width of a
// sample of rows, with a 1/8 + 16 byte safety margin so
// locality-friendly sorted inputs encode without a single grow.
func estimateAdjCap(index []int64, nbrs []uint32) int {
	numV := len(index) - 1
	if numV < 0 {
		return 0
	}
	totalE := index[numV] - index[0]
	degBytes := 0
	for v := 0; v < numV; v++ {
		degBytes += uvarintLen(uint64(index[v+1] - index[v]))
	}
	if totalE == 0 {
		return degBytes
	}

	// Sample up to 64 evenly spaced rows (or until 4096 edges seen)
	// and measure their exact gap-stream width.
	const maxRows, maxEdges = 64, 4096
	stride := numV / maxRows
	if stride < 1 {
		stride = 1
	}
	var sampleBytes, sampleEdges int64
	for v := 0; v < numV && sampleEdges < maxEdges; v += stride {
		lo, hi := index[v], index[v+1]
		prev := uint64(0)
		for i := lo; i < hi; i++ {
			cur := uint64(nbrs[i])
			sampleBytes += int64(uvarintLen(cur - prev))
			prev = cur
		}
		sampleEdges += hi - lo
	}
	if sampleEdges == 0 {
		// The stride only hit empty rows; fall back to a safe width.
		return degBytes + int(totalE)*3 + 16
	}
	est := sampleBytes * totalE / sampleEdges
	est += est/8 + 16
	return degBytes + int(est)
}

// appendAdjacency appends the per-vertex varint streams for rows
// [vLo, vHi) to dst: for each vertex a varint degree, the first
// neighbour as a varint, then varint gaps (successor minus
// predecessor; 0 gaps are legal so duplicate-free input is not
// required).
func appendAdjacency(dst []byte, index []int64, nbrs []uint32, vLo, vHi int) []byte {
	for v := vLo; v < vHi; v++ {
		lo, hi := index[v], index[v+1]
		dst = binary.AppendUvarint(dst, uint64(hi-lo))
		prev := uint64(0)
		for i := lo; i < hi; i++ {
			cur := uint64(nbrs[i])
			dst = binary.AppendUvarint(dst, cur-prev)
			prev = cur
		}
	}
	return dst
}

// EncodeAdjacency compresses a CSR/CSC adjacency (offset array plus
// neighbour array, lists sorted ascending per vertex) into one byte
// stream.
func EncodeAdjacency(index []int64, nbrs []uint32) []byte {
	numV := len(index) - 1
	out := make([]byte, 0, estimateAdjCap(index, nbrs))
	return appendAdjacency(out, index, nbrs, 0, numV)
}

// DecodeAdjacency reverses EncodeAdjacency. numV and numE give the
// expected shape; a mismatch or malformed stream returns an error.
func DecodeAdjacency(data []byte, numV int, numE int64) ([]int64, []uint32, error) {
	if numV < 0 || numE < 0 {
		return nil, nil, fmt.Errorf("compress: negative shape %d/%d", numV, numE)
	}
	// Every vertex costs at least its one-byte degree and every edge at
	// least one gap byte, so the stream bounds both shapes: reject a
	// hostile numV before allocating its offsets, and cap the initial
	// neighbour allocation by the input size.
	if numV > len(data) {
		return nil, nil, fmt.Errorf("compress: %d vertices exceed the %d-byte stream", numV, len(data))
	}
	index := make([]int64, numV+1)
	capHint := numE
	if int64(len(data)) < capHint {
		capHint = int64(len(data))
	}
	nbrs := make([]uint32, 0, capHint)
	pos := 0
	next := func() (uint64, error) {
		v, n := binary.Uvarint(data[pos:])
		if n <= 0 {
			return 0, fmt.Errorf("compress: truncated varint at offset %d", pos)
		}
		pos += n
		return v, nil
	}
	for v := 0; v < numV; v++ {
		deg, err := next()
		if err != nil {
			return nil, nil, err
		}
		if int64(deg) > numE-int64(len(nbrs)) {
			return nil, nil, fmt.Errorf("compress: vertex %d degree %d exceeds remaining edges", v, deg)
		}
		index[v+1] = index[v] + int64(deg)
		prev := uint64(0)
		for i := uint64(0); i < deg; i++ {
			gap, err := next()
			if err != nil {
				return nil, nil, err
			}
			cur := prev + gap
			if cur >= 1<<32 {
				return nil, nil, fmt.Errorf("compress: neighbour %d out of VID range", cur)
			}
			nbrs = append(nbrs, uint32(cur))
			prev = cur
		}
	}
	if pos != len(data) {
		return nil, nil, fmt.Errorf("compress: %d trailing bytes", len(data)-pos)
	}
	if int64(len(nbrs)) != numE {
		return nil, nil, fmt.Errorf("compress: decoded %d edges, want %d", len(nbrs), numE)
	}
	return index, nbrs, nil
}

// DefaultChunkEdges is the edge budget per encoded chunk: 4096 edges
// of packed rows (≤ 16 KiB) decode with cache-resident scratch. It is
// part of the v2 file's bytes.
const DefaultChunkEdges = 4096

// rowPad is the number of zero bytes that follow the last chunk in
// Chunked.Data: a gap is read with one 4-byte load and a mask, so the
// load of a final 1-3-byte gap must still end inside Data.
const rowPad = 3

// Chunked is an adjacency encoded as fixed-width packed gap rows, split
// into chunks of bounded edge count. A row is one varint header
// deg<<2 | (width-1) followed by deg gaps of width ∈ {1,2,3,4}
// little-endian bytes each — the first neighbour absolute, then
// successor minus predecessor, width = the bytes of the row's largest
// gap. Inside a row the cursor advances by a loop constant and a gap
// decodes as load32 & mask: no data-dependent branch or address (the
// LEB128 streams this replaces spent 3× the flat traversal's time on
// exactly that). Chunk c covers source rows [SrcOff[c], SrcOff[c+1])
// and bytes [ByteOff[c], ByteOff[c+1]) of Data; rows are
// self-contained, so chunks decode independently, and Data ends in
// rowPad zero bytes past the last chunk.
type Chunked struct {
	NumSrc   int   // rows covered (len of the original index minus 1)
	NumEdges int64 // total neighbours
	MaxSrcs  int   // max rows in any chunk: DecodeChunkCSR offsets need MaxSrcs+1
	MaxEdges int   // max neighbours in any chunk: DecodeChunkCSR needs MaxEdges
	SrcOff   []int32
	ByteOff  []int64
	Data     []byte
}

// Chunks returns the number of chunks.
func (ck *Chunked) Chunks() int { return len(ck.ByteOff) - 1 }

// EncodedBytes returns the total encoded size, including the chunk
// tables.
func (ck *Chunked) EncodedBytes() int64 {
	return int64(len(ck.Data)) + int64(len(ck.SrcOff))*4 + int64(len(ck.ByteOff))*8
}

// gapWidth returns the byte width of a sorted row's largest gap.
func gapWidth(row []uint32) int {
	or, prev := uint32(1), uint32(0)
	for _, cur := range row {
		or |= cur - prev
		prev = cur
	}
	return (bits.Len32(or) + 7) / 8
}

// packedSize returns the exact byte size of the packed rows of an
// adjacency, pad included, so EncodeChunked allocates Data once (the
// pad also absorbs appendRows' 4-byte store of the last gap).
func packedSize(index []int64, nbrs []uint32) int {
	size := rowPad
	for v := 0; v+1 < len(index); v++ {
		row := nbrs[index[v]:index[v+1]]
		size += uvarintLen(uint64(len(row))<<2) + len(row)*gapWidth(row)
	}
	return size
}

// appendRows appends the packed rows [vLo, vHi) to dst. Gaps are taken
// modulo 2^32, so 0 gaps are legal and duplicate-free input is not
// required.
func appendRows(dst []byte, index []int64, nbrs []uint32, vLo, vHi int) []byte {
	for v := vLo; v < vHi; v++ {
		row := nbrs[index[v]:index[v+1]]
		width := gapWidth(row)
		dst = binary.AppendUvarint(dst, uint64(len(row))<<2|uint64(width-1))
		prev := uint32(0)
		for _, cur := range row {
			gap, n := cur-prev, len(dst)
			dst = append(dst, byte(gap), byte(gap>>8), byte(gap>>16), byte(gap>>24))[:n+width]
			prev = cur
		}
	}
	return dst
}

// EncodeChunked compresses a CSR/CSC adjacency into chunks of at most
// targetEdges neighbours (and at most targetEdges rows); targetEdges
// <= 0 selects DefaultChunkEdges. A single row whose degree exceeds
// targetEdges becomes its own oversized chunk and MaxEdges reports it,
// so callers size decode scratch from MaxSrcs/MaxEdges, never from the
// target.
func EncodeChunked(index []int64, nbrs []uint32, targetEdges int) *Chunked {
	if targetEdges <= 0 {
		targetEdges = DefaultChunkEdges
	}
	numV := len(index) - 1
	if numV < 0 {
		numV = 0
	}
	ck := &Chunked{
		NumSrc:   numV,
		NumEdges: int64(len(nbrs)),
		SrcOff:   []int32{0},
		ByteOff:  []int64{0},
		Data:     make([]byte, 0, packedSize(index, nbrs)),
	}
	v := 0
	for v < numV {
		lo := v
		edges := int64(0)
		for v < numV {
			deg := index[v+1] - index[v]
			if v > lo && (edges+deg > int64(targetEdges) || v-lo >= targetEdges) {
				break
			}
			edges += deg
			v++
		}
		ck.Data = appendRows(ck.Data, index, nbrs, lo, v)
		ck.SrcOff = append(ck.SrcOff, int32(v))
		ck.ByteOff = append(ck.ByteOff, int64(len(ck.Data)))
		if v-lo > ck.MaxSrcs {
			ck.MaxSrcs = v - lo
		}
		if int(edges) > ck.MaxEdges {
			ck.MaxEdges = int(edges)
		}
	}
	ck.Data = append(ck.Data, make([]byte, rowPad)...)
	return ck
}

// RowHeader parses the row header at data[pos:] and returns the row's
// degree, gap width, the mask that cuts a 4-byte load down to one gap,
// and the position of the first gap. Unchecked: see DecodeChunkCSR.
//
//ihtl:noalloc
//ihtl:nobce
//ihtl:noescape
func RowHeader(data []byte, pos int) (deg, width int, mask uint32, next int) {
	var h uint64
	for shift := uint(0); ; shift += 7 {
		b := *unchecked.PtrAt(data, pos)
		pos++
		h |= uint64(b&0x7f) << shift
		if b < 0x80 {
			break
		}
	}
	return int(h >> 2), int(h&3) + 1, ^uint32(0) >> (24 - 8*(h&3)), pos
}

// DecodeChunkCSR decodes chunk c into caller scratch: sIdx (length at
// least MaxSrcs+1) receives local CSR offsets, dsts (length at least
// MaxEdges) the neighbours. Returns the row and edge counts. It serves
// the v2 file's decode at open. The stream is trusted
// and the decode is unchecked (//ihtl:nobce): data of external origin
// MUST pass Validate at load time — parseV2 does — after which every
// cursor and count below stays inside its slice by the validated
// chunk-table invariants. The -tags=ihtlchecked build restores checked
// indexing here for debugging.
//
//ihtl:noalloc
//ihtl:nobce
//ihtl:noescape
func (ck *Chunked) DecodeChunkCSR(c int, sIdx []int32, dsts []uint32) (nsrc, ne int) {
	data := ck.Data
	pos := int(unchecked.At(ck.ByteOff, c))
	nsrc = int(unchecked.At(ck.SrcOff, c+1) - unchecked.At(ck.SrcOff, c))
	e := 0
	for s := 0; s < nsrc; s++ {
		unchecked.SetAt(sIdx, s, int32(e))
		deg, width, mask, p := RowHeader(data, pos)
		pos = p + deg*width
		prev := uint32(0)
		for ; p < pos; p += width {
			prev += unchecked.Load32(data, p) & mask
			unchecked.SetAt(dsts, e, prev)
			e++
		}
	}
	unchecked.SetAt(sIdx, nsrc, int32(e))
	return nsrc, e
}

// Validate fully decodes every row with checked reads and verifies the
// structure: monotone chunk tables ending rowPad zero bytes before the
// end of Data, per-chunk rows that consume exactly their byte range,
// every neighbour below maxDst, totals matching NumSrc/NumEdges, and
// MaxSrcs/MaxEdges covering the actual maxima. A non-nil index must be
// the rows' CSR offset array (index[0] = 0, index[r+1]-index[r] = row
// r's degree): the engine's kernels walk the decode by it. Validate
// allocates nothing, whatever sizes the tables declare, and a Chunked
// that passes it holds no more edges than Data has bytes. A Chunked of
// external origin (a v2 engine file) must pass it before the unchecked
// DecodeChunkCSR may trust it, or any caller size a decode by it.
//
//ihtl:nopanic
func (ck *Chunked) Validate(maxDst uint32, index []int64) error {
	nc := len(ck.ByteOff) - 1
	if nc < 0 || len(ck.SrcOff) != nc+1 {
		return fmt.Errorf("compress: chunk tables %d/%d rows mismatched", len(ck.SrcOff), len(ck.ByteOff))
	}
	if ck.SrcOff[0] != 0 || ck.ByteOff[0] != 0 {
		return fmt.Errorf("compress: chunk tables must start at 0")
	}
	if int(ck.SrcOff[nc]) != ck.NumSrc {
		return fmt.Errorf("compress: chunk rows end at %d, want %d", ck.SrcOff[nc], ck.NumSrc)
	}
	end := ck.ByteOff[nc]
	if end < 0 || end != int64(len(ck.Data))-rowPad {
		return fmt.Errorf("compress: chunk bytes end at %d, want %d before a %d-byte pad", end, len(ck.Data)-rowPad, rowPad)
	}
	for _, b := range ck.Data[end:] {
		if b != 0 {
			return fmt.Errorf("compress: non-zero pad after the last chunk")
		}
	}
	// Decode scratch is sized from these, so bound them before any
	// caller allocates.
	if ck.NumSrc < 0 || ck.NumEdges < 0 {
		return fmt.Errorf("compress: negative shape %d/%d", ck.NumSrc, ck.NumEdges)
	}
	if ck.MaxSrcs < 0 || ck.MaxSrcs > ck.NumSrc {
		return fmt.Errorf("compress: MaxSrcs %d outside [0, %d]", ck.MaxSrcs, ck.NumSrc)
	}
	if ck.MaxEdges < 0 || int64(ck.MaxEdges) > ck.NumEdges {
		return fmt.Errorf("compress: MaxEdges %d outside [0, %d]", ck.MaxEdges, ck.NumEdges)
	}
	if index != nil && (len(index) != ck.NumSrc+1 || index[0] != 0) {
		return fmt.Errorf("compress: index of %d offsets does not start at 0 and cover %d rows", len(index), ck.NumSrc)
	}
	var totalE int64
	for c := 0; c < nc; c++ {
		nsrc := int(ck.SrcOff[c+1]) - int(ck.SrcOff[c])
		pos, bHi := ck.ByteOff[c], ck.ByteOff[c+1]
		if nsrc < 0 || int(ck.SrcOff[c+1]) > ck.NumSrc || pos < 0 || pos > bHi || bHi > end {
			return fmt.Errorf("compress: chunk %d has negative extent", c)
		}
		if nsrc > ck.MaxSrcs {
			return fmt.Errorf("compress: chunk %d rows %d exceed MaxSrcs %d", c, nsrc, ck.MaxSrcs)
		}
		ce := int64(0)
		for s := 0; s < nsrc; s++ {
			h, k := binary.Uvarint(ck.Data[pos:bHi])
			if k <= 0 {
				return fmt.Errorf("compress: chunk %d row %d header truncated", c, s)
			}
			pos += int64(k)
			deg, width := h>>2, int64(h&3)+1
			if deg > uint64(int64(ck.MaxEdges)-ce) {
				return fmt.Errorf("compress: chunk %d edges exceed MaxEdges %d", c, ck.MaxEdges)
			}
			if r := int(ck.SrcOff[c]) + s; index != nil && index[r+1]-index[r] != int64(deg) {
				return fmt.Errorf("compress: row %d has degree %d, index says %d", r, deg, index[r+1]-index[r])
			}
			// deg ≤ MaxEdges, so the product cannot overflow.
			if int64(deg)*width > bHi-pos {
				return fmt.Errorf("compress: chunk %d row %d runs past the chunk", c, s)
			}
			mask := ^uint32(0) >> (32 - 8*uint(width))
			prev := uint64(0)
			for rowEnd := pos + int64(deg)*width; pos < rowEnd; pos += width {
				// In range by the pad check: pos < end = len(Data)-rowPad.
				prev += uint64(binary.LittleEndian.Uint32(ck.Data[pos:pos+4]) & mask)
				if prev >= uint64(maxDst) {
					return fmt.Errorf("compress: chunk %d neighbour %d out of range %d", c, prev, maxDst)
				}
			}
			ce += int64(deg)
		}
		if pos != bHi {
			return fmt.Errorf("compress: chunk %d has %d trailing bytes", c, bHi-pos)
		}
		totalE += ce
	}
	if totalE != ck.NumEdges {
		return fmt.Errorf("compress: chunks hold %d edges, want %d", totalE, ck.NumEdges)
	}
	return nil
}
