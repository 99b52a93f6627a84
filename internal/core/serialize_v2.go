package core

// Version-2 engine-file format: the blocks of an IHTL stored in
// section-aligned segments so a serialised engine can be mapped
// straight into the address space and paged in lazily.
//
// Layout (all integers little-endian, every section start padded to a
// 64-byte boundary):
//
//	header   magic u64, version u32 = 2, numV u32, numE u64,
//	         numHubs u32, numVWEH u32, numFV u32, hubsPerBlock u32,
//	         minHubDeg u32, numBlocks u32, destLo u32,
//	         streamFormat u32 = 1 | 2, pad → 64 B
//	newid    [numV]u32 raw
//	oldid    [numV]u32 raw
//	per flipped block:
//	  meta     hubLo u32, hubHi u32, sources u32, pad u32, lenIdx u64
//	  index    [lenIdx]i64 raw
//	  chunked  adjacency (below)
//	sparse:
//	  meta     lenIdx u64
//	  index    [lenIdx]i64 raw
//	  chunked  adjacency (below)        — streamFormat 1
//	  raw      adjacency (further below) — streamFormat 2
//
// A chunked adjacency segment is the on-disk form of compress.Chunked:
//
//	meta     numSrc u64, numEdges u64, maxSrcs u64, maxEdges u64,
//	         nOff u64, lenData u64
//	srcoff   [nOff]i32 raw
//	byteoff  [nOff]i64 raw
//	data     [lenData]u8 — the packed gap rows and their 3-byte pad
//
// A raw adjacency segment is the sparse block's Srcs as they sit in
// memory:
//
//	meta     lenSrcs u64 (= index[lenIdx-1])
//	srcs     [lenSrcs]u32 raw
//
// streamFormat names the encoding of the adjacency, and the writer
// picks it from the graph and from nothing else: a graph built in the
// resident regime (Params.resident: B derived, all vertex data in the
// cache B is sized from, so no flipped block) is written raw, format 2
// — its topology sits in cache beside its vertex data either way, so
// the gap decode would buy no bytes that matter and costs instructions
// on every edge (DESIGN.md §18) — and every other graph packed, format
// 1, every block of it. The word sits in what was zero padding while
// the streams were LEB128 gap codes (format 0, retired: no decoder is
// kept), so a file of that era is refused by name instead of being
// misparsed.
//
// A file is packed on disk and flat at run time. A packed file stores
// the Index arrays and the chunked segments, and parseV2 decodes each
// segment into the flat Dsts/Srcs the engines walk, right after
// Validate has proved it: 4 bytes per edge of heap, never more than 4×
// the segment's data bytes (every edge takes at least one). In a raw
// file Srcs is the stored form. On little-endian hosts every raw array
// section — the relabeling, the Index arrays, a raw file's Srcs — is
// aliased in place; on big-endian or misaligned mappings the sections
// are copied element-wise, which keeps the format portable at the cost
// of residency.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"unsafe"

	"ihtl/internal/atomicio"
	"ihtl/internal/compress"
	"ihtl/internal/graph"
)

const (
	ihtlVersion2 = uint32(2)
	// v2StreamPacked is the header's streamFormat for
	// compress.Chunked's fixed-width packed rows.
	v2StreamPacked = uint32(1)
	// v2StreamRaw is the streamFormat of a resident graph's file: no
	// flipped block, the sparse block's Srcs one raw u32 section.
	v2StreamRaw = uint32(2)
)

// V2Stream names the adjacency stream format of ih's v2 engine file —
// the one WriteToV2 writes and, for a graph opened from a v2 file, the
// one that file holds: "raw" for a graph built in the resident regime,
// "packed" for every other.
func (ih *IHTL) V2Stream() string {
	if ih.resident {
		return "raw"
	}
	return "packed"
}

// hostLittle reports whether this host is little-endian; when true the
// raw sections of a v2 file alias directly into the mapping.
var hostLittle = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// WriteToV2 serialises ih in the version-2 format, raw when ih was
// built in the resident regime and packed otherwise. A packed block is
// encoded from the flat adjacency for the write only.
func (ih *IHTL) WriteToV2(w io.Writer) (int64, error) {
	vw := &v2writer{w: bufio.NewWriterSize(w, 1<<20)}
	vw.u64(ihtlMagic)
	vw.u32(ihtlVersion2)
	vw.u32(uint32(ih.NumV))
	vw.u64(uint64(ih.NumE))
	vw.u32(uint32(ih.NumHubs))
	vw.u32(uint32(ih.NumVWEH))
	vw.u32(uint32(ih.NumFV))
	vw.u32(uint32(ih.HubsPerBlock))
	vw.u32(uint32(ih.MinHubDegree))
	vw.u32(uint32(len(ih.Blocks)))
	vw.u32(uint32(ih.Sparse.DestLo))
	if ih.resident {
		vw.u32(v2StreamRaw)
	} else {
		vw.u32(v2StreamPacked)
	}
	vw.pad64()
	vw.rawU32(ih.NewID)
	vw.pad64()
	vw.rawU32(ih.OldID)
	vw.pad64()
	for i := range ih.Blocks {
		fb := &ih.Blocks[i]
		vw.u32(uint32(fb.HubLo))
		vw.u32(uint32(fb.HubHi))
		vw.u32(uint32(fb.Sources))
		vw.u32(0)
		vw.u64(uint64(len(fb.Index)))
		vw.pad64()
		vw.rawI64(fb.Index)
		vw.pad64()
		vw.chunked(compress.EncodeChunked(fb.Index, fb.Dsts, 0))
	}
	vw.u64(uint64(len(ih.Sparse.Index)))
	vw.pad64()
	vw.rawI64(ih.Sparse.Index)
	vw.pad64()
	sp := &ih.Sparse
	switch {
	case ih.resident:
		vw.u64(uint64(len(sp.Srcs)))
		vw.pad64()
		vw.rawU32(sp.Srcs)
		vw.pad64()
	case len(sp.Index) > 0:
		vw.chunked(compress.EncodeChunked(sp.Index, sp.Srcs, 0))
	default:
		vw.chunked(nil)
	}
	if vw.err == nil {
		vw.err = vw.w.Flush()
	}
	return vw.n, vw.err
}

// SaveFileV2 writes ih to path in the version-2 format, atomically
// replacing any existing file.
func (ih *IHTL) SaveFileV2(path string) error {
	return atomicio.WriteFile(path, func(w io.Writer) error {
		_, err := ih.WriteToV2(w)
		return err
	})
}

// v2writer counts bytes so sections can be padded to 64-byte starts.
type v2writer struct {
	w   *bufio.Writer
	n   int64
	err error
	buf [8]byte
}

func (vw *v2writer) write(p []byte) {
	if vw.err != nil {
		return
	}
	m, err := vw.w.Write(p)
	vw.n += int64(m)
	vw.err = err
}

func (vw *v2writer) u32(v uint32) {
	binary.LittleEndian.PutUint32(vw.buf[:4], v)
	vw.write(vw.buf[:4])
}

func (vw *v2writer) u64(v uint64) {
	binary.LittleEndian.PutUint64(vw.buf[:8], v)
	vw.write(vw.buf[:8])
}

func (vw *v2writer) pad64() {
	var zero [64]byte
	if rem := vw.n % 64; rem != 0 {
		vw.write(zero[:64-rem])
	}
}

// The raw-array writers stream through a fixed chunk buffer rather
// than binary.Write, whose slice path buffers the whole array.
func (vw *v2writer) rawU32(a []uint32) {
	var chunk [1 << 14]byte
	for len(a) > 0 && vw.err == nil {
		n := len(chunk) / 4
		if n > len(a) {
			n = len(a)
		}
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint32(chunk[i*4:], a[i])
		}
		vw.write(chunk[: n*4 : n*4])
		a = a[n:]
	}
}

func (vw *v2writer) rawI32(a []int32) {
	var chunk [1 << 14]byte
	for len(a) > 0 && vw.err == nil {
		n := len(chunk) / 4
		if n > len(a) {
			n = len(a)
		}
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint32(chunk[i*4:], uint32(a[i]))
		}
		vw.write(chunk[: n*4 : n*4])
		a = a[n:]
	}
}

func (vw *v2writer) rawI64(a []int64) {
	var chunk [1 << 14]byte
	for len(a) > 0 && vw.err == nil {
		n := len(chunk) / 8
		if n > len(a) {
			n = len(a)
		}
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint64(chunk[i*8:], uint64(a[i]))
		}
		vw.write(chunk[: n*8 : n*8])
		a = a[n:]
	}
}

// chunked writes one chunked adjacency segment; a nil Chunked (empty
// sparse block) becomes an all-zero meta with no array bytes.
func (vw *v2writer) chunked(ck *compress.Chunked) {
	if ck == nil {
		for i := 0; i < 6; i++ {
			vw.u64(0)
		}
		vw.pad64()
		return
	}
	vw.u64(uint64(ck.NumSrc))
	vw.u64(uint64(ck.NumEdges))
	vw.u64(uint64(ck.MaxSrcs))
	vw.u64(uint64(ck.MaxEdges))
	vw.u64(uint64(len(ck.SrcOff)))
	vw.u64(uint64(len(ck.Data)))
	vw.pad64()
	vw.rawI32(ck.SrcOff)
	vw.pad64()
	vw.rawI64(ck.ByteOff)
	vw.pad64()
	vw.write(ck.Data)
	vw.pad64()
}

// EngineFile is an engine graph opened from disk. Version-2 files stay
// backed by their (typically memory-mapped) byte range: the IHTL's
// relabeling, its Index arrays and a raw file's adjacency alias the
// mapping and page in on first touch, while a packed file's adjacency
// is decoded into the heap when it is opened. Version-1 files are
// decoded into resident memory, so old files keep working everywhere.
type EngineFile struct {
	ih     *IHTL
	data   []byte
	mapped bool
}

// IHTL returns the opened graph. For a mapped file it stays valid only
// until Close.
func (ef *EngineFile) IHTL() *IHTL { return ef.ih }

// Mapped reports whether the topology is memory-mapped (true only for
// v2 files on platforms where the mmap succeeded).
func (ef *EngineFile) Mapped() bool { return ef.mapped }

// Close releases the mapping. The IHTL and any engines built over it
// must not be used afterwards.
func (ef *EngineFile) Close() error {
	data, mapped := ef.data, ef.mapped
	ef.ih, ef.data, ef.mapped = nil, nil, false
	if mapped {
		return unmapFile(data)
	}
	return nil
}

// OpenEngineFile opens a serialised engine graph of either version.
// Version-2 files are memory-mapped read-only where the platform
// allows (with a read-into-memory fallback), validated, and exposed
// flat: a packed file's chunked segments are decoded into the heap (4
// bytes per edge), and a raw file's Srcs is the mapped section itself,
// with nothing decoded. Version-1
// files fall back to the resident ReadIHTL decoder. A version-3 file,
// the removed sharded container, is refused by name.
func OpenEngineFile(path string) (*EngineFile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var hdr [12]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		return nil, fmt.Errorf("core: reading %s header: %w", path, err)
	}
	if magic := binary.LittleEndian.Uint64(hdr[:8]); magic != ihtlMagic {
		return nil, fmt.Errorf("core: %s: bad magic %#x", path, magic)
	}
	switch version := binary.LittleEndian.Uint32(hdr[8:12]); version {
	case ihtlVersion:
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			return nil, err
		}
		ih, err := ReadIHTL(f)
		if err != nil {
			return nil, err
		}
		return &EngineFile{ih: ih}, nil
	case ihtlVersion2:
		st, err := f.Stat()
		if err != nil {
			return nil, err
		}
		data, mapped, err := mapFile(f, st.Size())
		if err != nil {
			return nil, err
		}
		ih, err := parseV2(data)
		if err != nil {
			if mapped {
				unmapFile(data)
			}
			return nil, fmt.Errorf("core: %s: %w", path, err)
		}
		return &EngineFile{ih: ih, data: data, mapped: mapped}, nil
	case ihtlVersion3:
		return nil, fmt.Errorf("%w (%s)", errV3Removed, path)
	default:
		return nil, fmt.Errorf("core: %s: unsupported version %d", path, version)
	}
}

// readV2Resident lets the stream-based ReadIHTL (and so LoadFile)
// accept version-2 files: the remainder of the stream — the 12-byte
// magic/version prefix was already consumed — is read into an aligned
// buffer, re-prefixed, and parsed resident.
func readV2Resident(r io.Reader) (*IHTL, error) {
	rest, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	size := int64(12 + len(rest))
	words := make([]int64, (size+7)/8)
	buf := unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), size)
	binary.LittleEndian.PutUint64(buf[:8], ihtlMagic)
	binary.LittleEndian.PutUint32(buf[8:12], ihtlVersion2)
	copy(buf[12:], rest)
	return parseV2(buf)
}

// readFileAligned reads the whole file into an 8-byte-aligned buffer —
// the portable fallback when mapping is unavailable. Backing the bytes
// with an []int64 guarantees the alignment the aliasing fast path
// needs.
func readFileAligned(f *os.File, size int64) ([]byte, bool, error) {
	if size == 0 {
		return nil, false, nil
	}
	if int64(int(size)) != size {
		return nil, false, fmt.Errorf("core: file too large (%d bytes)", size)
	}
	words := make([]int64, (size+7)/8)
	buf := unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), size)
	if _, err := io.ReadFull(io.NewSectionReader(f, 0, size), buf); err != nil {
		return nil, false, err
	}
	return buf, false, nil
}

// v2cursor walks a v2 byte range with checked reads and 64-byte
// section alignment.
type v2cursor struct {
	data []byte
	off  int64
}

func (c *v2cursor) need(n int64) error {
	if n < 0 || n > int64(len(c.data))-c.off {
		return fmt.Errorf("core: v2 file truncated at offset %d (need %d of %d bytes)", c.off, n, len(c.data))
	}
	return nil
}

func (c *v2cursor) align64() { c.off = (c.off + 63) &^ 63 }

func (c *v2cursor) u32() (uint32, error) {
	if err := c.need(4); err != nil {
		return 0, err
	}
	v := binary.LittleEndian.Uint32(c.data[c.off:])
	c.off += 4
	return v, nil
}

func (c *v2cursor) u64() (uint64, error) {
	if err := c.need(8); err != nil {
		return 0, err
	}
	v := binary.LittleEndian.Uint64(c.data[c.off:])
	c.off += 8
	return v, nil
}

func (c *v2cursor) bytes(n int64) ([]byte, error) {
	if err := c.need(n); err != nil {
		return nil, err
	}
	b := c.data[c.off : c.off+n : c.off+n]
	c.off += n
	return b, nil
}

// aliasU32 returns n little-endian uint32s starting at the cursor —
// zero-copy on aligned little-endian hosts, copied otherwise.
func (c *v2cursor) aliasU32(n int) ([]uint32, error) {
	b, err := c.bytes(int64(n) * 4)
	if err != nil || n == 0 {
		return nil, err
	}
	if hostLittle && uintptr(unsafe.Pointer(&b[0]))%4 == 0 {
		return unsafe.Slice((*uint32)(unsafe.Pointer(&b[0])), n), nil
	}
	out := make([]uint32, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(b[i*4:])
	}
	return out, nil
}

func (c *v2cursor) aliasI32(n int) ([]int32, error) {
	b, err := c.bytes(int64(n) * 4)
	if err != nil || n == 0 {
		return nil, err
	}
	if hostLittle && uintptr(unsafe.Pointer(&b[0]))%4 == 0 {
		return unsafe.Slice((*int32)(unsafe.Pointer(&b[0])), n), nil
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(b[i*4:]))
	}
	return out, nil
}

func (c *v2cursor) aliasI64(n int) ([]int64, error) {
	b, err := c.bytes(int64(n) * 8)
	if err != nil || n == 0 {
		return nil, err
	}
	if hostLittle && uintptr(unsafe.Pointer(&b[0]))%8 == 0 {
		return unsafe.Slice((*int64)(unsafe.Pointer(&b[0])), n), nil
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return out, nil
}

// chunked parses the chunked adjacency segment of the block whose
// row offsets are index, gates it behind compress.Chunked.Validate —
// the stream itself, every neighbour below maxDst, and its row-by-row
// agreement with index — and only then decodes it into the flat
// adjacency the unchecked kernels walk.
func (c *v2cursor) chunked(label string, maxDst uint32, index []int64) ([]graph.VID, error) {
	var wantSrc int
	var wantEdges int64
	if n := len(index); n > 1 {
		wantSrc, wantEdges = n-1, index[n-1]
	}
	var m [6]uint64
	for i := range m {
		v, err := c.u64()
		if err != nil {
			return nil, err
		}
		m[i] = v
	}
	numSrc, numEdges, maxSrcs, maxEdges, nOff, lenData := m[0], m[1], m[2], m[3], m[4], m[5]
	c.align64()
	if numSrc == 0 && nOff == 0 && lenData == 0 {
		if wantSrc != 0 || wantEdges != 0 {
			return nil, fmt.Errorf("core: %s: empty segment for %d rows / %d edges", label, wantSrc, wantEdges)
		}
		return nil, nil
	}
	const maxN = uint64(1) << 40
	if numSrc > maxN || numEdges > maxN || nOff > numSrc+1 || lenData > uint64(len(c.data)) ||
		maxSrcs > numSrc || maxEdges > numEdges {
		return nil, fmt.Errorf("core: %s: implausible chunked meta", label)
	}
	if int64(numSrc) != int64(wantSrc) || int64(numEdges) != wantEdges {
		return nil, fmt.Errorf("core: %s: segment covers %d rows / %d edges, index says %d / %d",
			label, numSrc, numEdges, wantSrc, wantEdges)
	}
	srcOff, err := c.aliasI32(int(nOff))
	if err != nil {
		return nil, err
	}
	c.align64()
	byteOff, err := c.aliasI64(int(nOff))
	if err != nil {
		return nil, err
	}
	c.align64()
	data, err := c.bytes(int64(lenData))
	if err != nil {
		return nil, err
	}
	c.align64()
	ck := &compress.Chunked{
		NumSrc:   int(numSrc),
		NumEdges: int64(numEdges),
		MaxSrcs:  int(maxSrcs),
		MaxEdges: int(maxEdges),
		SrcOff:   srcOff,
		ByteOff:  byteOff,
		Data:     data,
	}
	if err := ck.Validate(maxDst, index); err != nil {
		return nil, fmt.Errorf("core: %s: %w", label, err)
	}
	return decodeFlat(ck), nil
}

// decodeFlat decodes a whole Chunked into a flat neighbour array
// (graph.VID is a uint32 alias, so the decode writes in place). Its
// caller has validated ck, which bounds NumEdges by len(ck.Data).
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

// rawRows parses the raw adjacency segment of the sparse block, whose
// row offsets are index, and gates it the way chunked gates a packed one. The
// declared length is held against the bytes that are left and against
// the index before the section is aliased; then one pass that allocates
// nothing proves what the unchecked flat kernels and a later
// WriteToV2 take on trust: index is the CSR offset array of exactly
// these ids, every id is below maxID, and no row descends (equal
// neighbours are parallel edges, as a 0 gap is in a packed row).
func (c *v2cursor) rawRows(maxID uint32, index []int64) ([]graph.VID, error) {
	n, err := c.u64()
	if err != nil {
		return nil, err
	}
	c.align64()
	if left := int64(len(c.data)) - c.off; left < 0 || n > uint64(left)/4 {
		return nil, fmt.Errorf("core: raw adjacency of %d ids truncated at offset %d of %d bytes", n, c.off, len(c.data))
	}
	rows := len(index) - 1
	if rows < 0 || index[0] != 0 || uint64(index[rows]) != n {
		return nil, fmt.Errorf("core: raw adjacency holds %d ids, the index of %d offsets does not start at 0 and end there", n, len(index))
	}
	srcs, err := c.aliasU32(int(n))
	if err != nil {
		return nil, err
	}
	c.align64()
	for r := 0; r < rows; r++ {
		lo, hi := index[r], index[r+1]
		if lo > hi || hi > int64(n) {
			return nil, fmt.Errorf("core: row %d spans [%d, %d) of %d raw ids", r, lo, hi, n)
		}
		prev := uint32(0)
		for _, id := range srcs[lo:hi] {
			if id >= maxID {
				return nil, fmt.Errorf("core: row %d raw id %d out of range %d", r, id, maxID)
			}
			if id < prev {
				return nil, fmt.Errorf("core: row %d raw ids descend (%d after %d)", r, id, prev)
			}
			prev = id
		}
	}
	return srcs, nil
}

// parseV2 decodes a version-2 byte range into a flat IHTL — a packed
// file's segments into the heap, a raw file's Srcs and every Index
// array aliased — re-running the structural checks of the v1 reader
// plus the stream validation. Each segment is validated before its
// decode allocates, so a hostile size errs first.
//
//ihtl:nopanic
func parseV2(data []byte) (*IHTL, error) {
	c := &v2cursor{data: data}
	magic, err := c.u64()
	if err != nil {
		return nil, err
	}
	if magic != ihtlMagic {
		return nil, fmt.Errorf("core: bad magic %#x", magic)
	}
	version, err := c.u32()
	if err != nil {
		return nil, err
	}
	if version != ihtlVersion2 {
		return nil, fmt.Errorf("core: unsupported version %d", version)
	}
	var numV, numHubs, numVWEH, numFV, hubsPerBlock, minHubDeg, numBlocks, destLo, streamFormat uint32
	var numE uint64
	for _, read := range []func() error{
		func() error { numV, err = c.u32(); return err },
		func() error { numE, err = c.u64(); return err },
		func() error { numHubs, err = c.u32(); return err },
		func() error { numVWEH, err = c.u32(); return err },
		func() error { numFV, err = c.u32(); return err },
		func() error { hubsPerBlock, err = c.u32(); return err },
		func() error { minHubDeg, err = c.u32(); return err },
		func() error { numBlocks, err = c.u32(); return err },
		func() error { destLo, err = c.u32(); return err },
		func() error { streamFormat, err = c.u32(); return err },
	} {
		if err := read(); err != nil {
			return nil, err
		}
	}
	raw := streamFormat == v2StreamRaw
	if !raw && streamFormat != v2StreamPacked {
		return nil, fmt.Errorf("core: adjacency stream format %d is neither the packed-row format %d nor the raw format %d (format 0 is the retired LEB128 encoding, which is no longer decoded): re-create the file with ihtlconvert from the graph or a v1 engine file",
			streamFormat, v2StreamPacked, v2StreamRaw)
	}
	if raw && (numBlocks != 0 || numHubs != 0 || numVWEH != 0 || destLo != 0) {
		return nil, fmt.Errorf("core: raw adjacency stream (format %d) is the file of a graph that flips nothing, this header declares %d flipped blocks, %d hubs, %d VWEH and a sparse block from %d",
			v2StreamRaw, numBlocks, numHubs, numVWEH, destLo)
	}
	if numE > 1<<40 || numBlocks > 1<<20 {
		return nil, fmt.Errorf("core: implausible header (E=%d, blocks=%d)", numE, numBlocks)
	}
	if uint64(numHubs)+uint64(numVWEH)+uint64(numFV) != uint64(numV) {
		return nil, fmt.Errorf("core: class sizes %d+%d+%d != %d", numHubs, numVWEH, numFV, numV)
	}
	ih := &IHTL{
		NumV: int(numV), NumE: int64(numE),
		NumHubs: int(numHubs), NumVWEH: int(numVWEH), NumFV: int(numFV),
		HubsPerBlock: int(hubsPerBlock), MinHubDegree: int(minHubDeg),
	}
	c.align64()
	var newID, oldID []uint32
	if newID, err = c.aliasU32(int(numV)); err != nil {
		return nil, err
	}
	c.align64()
	if oldID, err = c.aliasU32(int(numV)); err != nil {
		return nil, err
	}
	c.align64()
	ih.NewID, ih.OldID = newID, oldID
	for v, nv := range ih.NewID {
		if int(nv) >= ih.NumV || int(ih.OldID[nv]) != v {
			return nil, fmt.Errorf("core: corrupt relabeling arrays at %d", v)
		}
	}
	ih.Blocks = make([]FlippedBlock, numBlocks)
	var total int64
	for i := range ih.Blocks {
		fb := &ih.Blocks[i]
		var hubLo, hubHi, sources uint32
		for _, p := range []*uint32{&hubLo, &hubHi, &sources} {
			if *p, err = c.u32(); err != nil {
				return nil, err
			}
		}
		if _, err = c.u32(); err != nil { // pad
			return nil, err
		}
		lenIdx, err := c.u64()
		if err != nil {
			return nil, err
		}
		if lenIdx > uint64(numV)+1 {
			return nil, fmt.Errorf("core: implausible block %d index size", i)
		}
		fb.HubLo, fb.HubHi, fb.Sources = int(hubLo), int(hubHi), int(sources)
		if fb.HubLo > fb.HubHi || fb.HubHi > ih.NumHubs {
			return nil, fmt.Errorf("core: block %d hub range [%d,%d) invalid", i, fb.HubLo, fb.HubHi)
		}
		c.align64()
		if fb.Index, err = c.aliasI64(int(lenIdx)); err != nil {
			return nil, err
		}
		c.align64()
		edges := fb.NumEdges()
		if edges < 0 || edges > int64(numE) {
			return nil, fmt.Errorf("core: block %d edge count %d invalid", i, edges)
		}
		if fb.Dsts, err = c.chunked(fmt.Sprintf("block %d", i), hubHi, fb.Index); err != nil {
			return nil, err
		}
		total += edges
	}
	lenIdx, err := c.u64()
	if err != nil {
		return nil, err
	}
	if lenIdx > uint64(numV)+1 || raw && lenIdx != uint64(numV)+1 {
		return nil, fmt.Errorf("core: implausible sparse index size")
	}
	ih.Sparse.DestLo = int(destLo)
	c.align64()
	if ih.Sparse.Index, err = c.aliasI64(int(lenIdx)); err != nil {
		return nil, err
	}
	c.align64()
	sEdges := ih.Sparse.NumEdges()
	if sEdges < 0 || sEdges > int64(numE) {
		return nil, fmt.Errorf("core: sparse edge count %d invalid", sEdges)
	}
	if raw {
		ih.Sparse.Srcs, err = c.rawRows(numV, ih.Sparse.Index)
	} else {
		ih.Sparse.Srcs, err = c.chunked("sparse block", numV, ih.Sparse.Index)
	}
	if err != nil {
		return nil, err
	}
	total += sEdges
	if total != ih.NumE {
		return nil, fmt.Errorf("core: blocks cover %d edges, header says %d", total, ih.NumE)
	}
	// The writer pads every section — including the last — to a
	// 64-byte boundary, so exactly one final alignment must land on the
	// end of the range. Anything else is truncation or trailing junk.
	c.align64()
	if c.off != int64(len(data)) {
		return nil, fmt.Errorf("core: v2 size mismatch (%d bytes parsed, %d in file)", c.off, len(data))
	}
	ih.params = Params{HubsPerBlock: ih.HubsPerBlock}.withDefaults()
	if raw {
		// Params are not stored, but the rule that chose this format
		// is: NumV × VertexBytes ≤ CacheBytes with B = CacheBytes /
		// VertexBytes is NumV ≤ B. Held here, at the default vertex
		// size, the graph is resident again and Stats can say why.
		if uint64(numV) > uint64(hubsPerBlock) {
			return nil, fmt.Errorf("core: raw adjacency stream (format %d) for %d vertices, more than the B = %d their data was to fit", v2StreamRaw, numV, hubsPerBlock)
		}
		ih.params.CacheBytes = ih.HubsPerBlock * ih.params.VertexBytes
		ih.resident = true
	}
	return ih, nil
}
