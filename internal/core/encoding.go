package core

// Compressed (packed gap rows) block topology on the hot path.
//
// The paper frames iHTL's win as bytes moved per edge and names
// WebGraph-style topology compression as the next lever (§6). This
// file puts compress.Chunked adjacency on the engine's execution path:
// with EngineOptions.BlockEncoding == EncodingVarint, the flipped push
// walks a chunk's rows straight into the hub buffer and the sparse pull
// walks each row straight into its sum — the decode IS the traversal,
// one masked 4-byte load per edge, no scratch — in ascending order
// within a row, exactly the flat kernels' order, so every pipeline
// stays bit-for-bit identical to the flat reference for all inputs.
//
// The flat Index arrays stay resident under either encoding: the
// schedulers (edge-balanced parts, chunk bounds) read per-row edge
// counts, and at 8 bytes per row they are a small fraction of the
// 4-bytes-per-edge adjacency the encoding removes.

import (
	"fmt"

	"ihtl/internal/compress"
	"ihtl/internal/graph"
	"ihtl/internal/spmv"
	"ihtl/internal/unchecked"
)

// BlockEncoding selects how an Engine stores and traverses the
// flipped/sparse block adjacency.
type BlockEncoding int

const (
	// EncodingAuto picks varint when only the encoded topology is
	// resident (a graph opened from a packed v2 engine file), flat
	// otherwise: a graph built in memory, and one opened from a raw v2
	// file, whose flat Srcs are the mapped section itself.
	EncodingAuto BlockEncoding = iota
	// EncodingFlat traverses the flat Dsts/Srcs arrays, materialising
	// them first if only the encoded form is resident.
	EncodingFlat
	// EncodingVarint traverses the chunked gap encoding (fixed-width
	// packed rows; the name predates them), building it first if only
	// the flat form is resident.
	EncodingVarint
)

func (b BlockEncoding) String() string {
	switch b {
	case EncodingAuto:
		return "auto"
	case EncodingFlat:
		return "flat"
	case EncodingVarint:
		return "varint"
	default:
		return fmt.Sprintf("BlockEncoding(%d)", int(b))
	}
}

// ParseBlockEncoding parses the -encoding flag values.
func ParseBlockEncoding(s string) (BlockEncoding, error) {
	switch s {
	case "auto", "":
		return EncodingAuto, nil
	case "flat":
		return EncodingFlat, nil
	case "varint":
		return EncodingVarint, nil
	default:
		return 0, fmt.Errorf("core: unknown block encoding %q (want auto, flat or varint)", s)
	}
}

// EncodedOnly reports whether any block of ih carries edges only in
// encoded form (flat adjacency not resident) — the state of a graph
// opened lazily from a packed v2 engine file, never of one opened from
// a raw file.
func (ih *IHTL) EncodedOnly() bool {
	for b := range ih.Blocks {
		fb := &ih.Blocks[b]
		if fb.Dsts == nil && fb.Enc != nil && fb.NumEdges() > 0 {
			return true
		}
	}
	sp := &ih.Sparse
	return sp.Srcs == nil && sp.Enc != nil && sp.NumEdges() > 0
}

// EnsureEncoded builds the chunked gap encoding of every block that
// does not carry one yet. Deterministic in the flat topology, and safe
// for concurrent callers on one IHTL: the graph's lazy-derivation lock
// serialises the builds, and a caller's own locked pass orders its
// later lock-free reads of the encoded forms.
func (ih *IHTL) EnsureEncoded() {
	ih.lazyMu.Lock()
	defer ih.lazyMu.Unlock()
	for b := range ih.Blocks {
		fb := &ih.Blocks[b]
		if fb.Enc == nil {
			fb.Enc = compress.EncodeChunked(fb.Index, fb.Dsts, 0)
		}
	}
	if ih.Sparse.Enc == nil && len(ih.Sparse.Index) > 0 {
		ih.Sparse.Enc = compress.EncodeChunked(ih.Sparse.Index, ih.Sparse.Srcs, 0)
	}
}

// EnsureFlatTopology materialises the flat Dsts/Srcs arrays of every
// block that carries only the encoded form, so flat engines (and the
// v1 serialiser) can run over a graph opened from a v2 varint file.
// Safe for concurrent callers, like EnsureEncoded.
func (ih *IHTL) EnsureFlatTopology() {
	ih.lazyMu.Lock()
	defer ih.lazyMu.Unlock()
	for b := range ih.Blocks {
		fb := &ih.Blocks[b]
		if fb.Dsts == nil && fb.Enc != nil {
			fb.Dsts = decodeFlat(fb.Enc)
		}
	}
	sp := &ih.Sparse
	if sp.Srcs == nil && sp.Enc != nil {
		sp.Srcs = decodeFlat(sp.Enc)
	}
}

// DropFlatTopology releases the flat adjacency arrays of blocks whose
// encoded form is resident, shrinking a varint engine's footprint to
// the compressed topology (plus the Index arrays the schedulers use).
// Flat engines built later over the same IHTL re-materialise via
// EnsureFlatTopology. It takes the same lazy-derivation lock as the
// Ensure methods, but unlike them it is destructive: do not drop while
// other goroutines may still be constructing engines over the graph.
func (ih *IHTL) DropFlatTopology() {
	ih.lazyMu.Lock()
	defer ih.lazyMu.Unlock()
	for b := range ih.Blocks {
		fb := &ih.Blocks[b]
		if fb.Enc != nil {
			fb.Dsts = nil
		}
	}
	if ih.Sparse.Enc != nil {
		ih.Sparse.Srcs = nil
	}
}

// decodeFlat decodes a whole Chunked into a flat neighbour array
// (graph.VID is a uint32 alias, so the decode writes in place).
func decodeFlat(ck *compress.Chunked) []graph.VID {
	out := make([]graph.VID, ck.NumEdges)
	sIdx := make([]int32, ck.MaxSrcs+1)
	pos := 0
	for c := 0; c < ck.Chunks(); c++ {
		_, ne := ck.DecodeChunkCSR(c, sIdx, out[pos:])
		pos += ne
	}
	return out
}

// resolveEncoding applies EncodingAuto against the graph's resident
// forms.
func resolveEncoding(enc BlockEncoding, ih *IHTL) BlockEncoding {
	if enc != EncodingAuto {
		return enc
	}
	if ih.EncodedOnly() {
		return EncodingVarint
	}
	return EncodingFlat
}

// initEncoding resolves the configured encoding and, for varint,
// builds the encoded execution state: the sparse block's per-row byte
// offsets (rowOff[i] is where row i's header starts inside
// Sparse.Enc.Data), which give the pull kernels random row access into
// the chunked stream. Called once from NewEngineOpts, before the block
// tasks are built.
func (e *Engine) initEncoding(enc BlockEncoding) {
	ih := e.ih
	e.encoding = resolveEncoding(enc, ih)
	if e.encoding != EncodingVarint {
		ih.EnsureFlatTopology()
		return
	}
	ih.EnsureEncoded()
	e.varint = true
	if sp := &ih.Sparse; sp.Enc != nil && sp.Enc.NumSrc > 0 {
		e.sparseRowOff = sp.Enc.RowOffsets()
	}
}

// buildBlockTasksEnc is buildBlockTasks for the varint encoding: one
// task per encoded chunk (the chunk IS the task granule — a bounded,
// cache-resident run of rows), skipping chunks with no edges. Each
// task's hub destination bounds come from one construction-time decode
// of its chunk.
func buildBlockTasksEnc(ih *IHTL) (tasks []blockTask, perBlock, empty []int) {
	perBlock = make([]int, len(ih.Blocks))
	maxSrcs, maxEdges := 0, 0
	for b := range ih.Blocks {
		ck := ih.Blocks[b].Enc
		if ck.MaxSrcs > maxSrcs {
			maxSrcs = ck.MaxSrcs
		}
		if ck.MaxEdges > maxEdges {
			maxEdges = ck.MaxEdges
		}
	}
	sIdx := make([]int32, maxSrcs+1)
	dsts := make([]uint32, maxEdges)
	for b := range ih.Blocks {
		fb := &ih.Blocks[b]
		if fb.NumEdges() == 0 {
			empty = append(empty, b)
			continue
		}
		ck := fb.Enc
		for c := 0; c < ck.Chunks(); c++ {
			lo, hi := int(ck.SrcOff[c]), int(ck.SrcOff[c+1])
			if fb.Index[hi]-fb.Index[lo] == 0 {
				continue
			}
			t := blockTask{block: b, chunk: c, lo: lo, hi: hi}
			_, ne := ck.DecodeChunkCSR(c, sIdx, dsts)
			for i := 0; i < ne; i++ {
				d := int(dsts[i])
				if t.dHi == t.dLo {
					t.dLo, t.dHi = d, d+1
					continue
				}
				if d < t.dLo {
					t.dLo = d
				}
				if d+1 > t.dHi {
					t.dHi = d + 1
				}
			}
			tasks = append(tasks, t)
			perBlock[b]++
		}
		if perBlock[b] == 0 {
			empty = append(empty, b)
		}
	}
	return tasks, perBlock, empty
}

// The kernels below walk packed rows straight into their accumulation:
// per edge one masked 4-byte load, an add and the gather or scatter.
// They are unchecked like the flat kernels: an encoding built in-process
// is consistent by construction, and one of external origin passed
// compress.Chunked.Validate in parseV2 before any of them ran.

// pushTaskEnc pushes one encoded flipped task into a worker-owned hub
// buffer. A zero-skipped source skips its deg×width gap bytes.
//
//ihtl:noalloc
//ihtl:nobce
//ihtl:noescape
func pushTaskEnc(bt *blockTask, fb *FlippedBlock, src, buf []float64) {
	data := fb.Enc.Data
	pos := int(unchecked.At(fb.Enc.ByteOff, bt.chunk))
	for s := bt.lo; s < bt.hi; s++ {
		deg, width, mask, p := compress.RowHeader(data, pos)
		pos = p + deg*width
		x := unchecked.At(src, s)
		if spmv.SkipZero(x) {
			continue
		}
		prev := uint32(0)
		for ; p < pos; p += width {
			prev += unchecked.Load32(data, p) & mask
			unchecked.AddAt(buf, int(prev), x)
		}
	}
}

// pushTaskEncBatch is pushTaskEnc with K-wide lanes.
//
//ihtl:noalloc
//ihtl:nobce
//ihtl:noescape
func pushTaskEncBatch(k int, bt *blockTask, fb *FlippedBlock, src, buf []float64) {
	data := fb.Enc.Data
	pos := int(unchecked.At(fb.Enc.ByteOff, bt.chunk))
	for s := bt.lo; s < bt.hi; s++ {
		deg, width, mask, p := compress.RowHeader(data, pos)
		pos = p + deg*width
		xs := unchecked.SliceAt(src, s*k, k)
		if spmv.SkipZeroLanes(xs) {
			continue
		}
		prev := uint32(0)
		for ; p < pos; p += width {
			prev += unchecked.Load32(data, p) & mask
			db := int(prev) * k
			for j, x := range xs {
				unchecked.AddAt(buf, db+j, x)
			}
		}
	}
}

// sparseRowSumEnc pulls sparse row i from its recorded byte offset,
// accumulating src reads in ascending source order — the flat pull's
// exact accumulation order, so the sum is bit-identical for all inputs.
// The row's degree comes from the resident Index and only its gap
// width from the stream: sparse rows are short and reached at random,
// and a loop bound that waits on the row's header byte doubles the
// sparse phase (Validate pinned the two to each other, row by row).
//
//ihtl:noalloc
//ihtl:nobce
//ihtl:noescape
func (e *Engine) sparseRowSumEnc(i int, src []float64) float64 {
	sp := &e.ih.Sparse
	deg := unchecked.At(sp.Index, i+1) - unchecked.At(sp.Index, i)
	sum := 0.0
	if deg == 0 {
		return sum
	}
	data := sp.Enc.Data
	_, width, mask, p := compress.RowHeader(data, int(unchecked.At(e.sparseRowOff, i)))
	prev := uint32(0)
	for ; deg > 0; deg-- {
		prev += unchecked.Load32(data, p) & mask
		p += width
		sum += unchecked.At(src, int(prev))
	}
	return sum
}

// sparseRowAccEnc is sparseRowSumEnc with K-wide lanes, accumulating
// into out (the row's dst lanes, already zeroed by the caller).
//
//ihtl:noalloc
//ihtl:nobce
//ihtl:noescape
func (e *Engine) sparseRowAccEnc(i, k int, src, out []float64) {
	sp := &e.ih.Sparse
	deg := unchecked.At(sp.Index, i+1) - unchecked.At(sp.Index, i)
	if deg == 0 {
		return
	}
	data := sp.Enc.Data
	_, width, mask, p := compress.RowHeader(data, int(unchecked.At(e.sparseRowOff, i)))
	prev := uint32(0)
	for ; deg > 0; deg-- {
		prev += unchecked.Load32(data, p) & mask
		p += width
		xs := unchecked.SliceAt(src, int(prev)*k, k)
		for j, x := range xs {
			unchecked.AddAt(out, j, x)
		}
	}
}
