package core

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"

	"ihtl/internal/atomicio"
	"ihtl/internal/graph"
)

// Binary iHTL-graph format (little-endian). Storing the preprocessed
// structure lets the one-time construction cost be amortised across
// runs — "the preprocessing overhead can be completely amortized
// between different executions if the iHTL graph is stored in its
// binary format ... on disk after preprocessing" (§4.2).
const (
	ihtlMagic   = uint64(0x4948544c42494e31) // "IHTLBIN1"
	ihtlVersion = uint32(1)
	// ihtlVersion3 was the sharded container. Its engine is gone and no
	// decoder is kept: a file of it is refused by name, from its
	// version word alone, before any size it declares is read.
	ihtlVersion3 = uint32(3)
)

// errV3Removed is what every reader returns for a version-3 file.
var errV3Removed = errors.New("core: version 3 is the removed sharded container: rebuild the graph and write it with SaveFileV2")

// WriteTo serialises ih. Layout: header, relabeling arrays, per-block
// (hub range, index, dsts), sparse block.
func (ih *IHTL) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriterSize(w, 1<<20)
	var n int64
	put := func(v any) error {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
		n += int64(binary.Size(v))
		return nil
	}
	hdr := []any{
		ihtlMagic, ihtlVersion,
		uint32(ih.NumV), uint64(ih.NumE),
		uint32(ih.NumHubs), uint32(ih.NumVWEH), uint32(ih.NumFV),
		uint32(ih.HubsPerBlock), uint32(ih.MinHubDegree),
		uint32(len(ih.Blocks)),
	}
	for _, h := range hdr {
		if err := put(h); err != nil {
			return n, err
		}
	}
	if err := put(ih.NewID); err != nil {
		return n, err
	}
	if err := put(ih.OldID); err != nil {
		return n, err
	}
	for i := range ih.Blocks {
		fb := &ih.Blocks[i]
		for _, v := range []any{uint32(fb.HubLo), uint32(fb.HubHi), uint32(fb.Sources), uint64(len(fb.Index)), uint64(len(fb.Dsts))} {
			if err := put(v); err != nil {
				return n, err
			}
		}
		if err := put(fb.Index); err != nil {
			return n, err
		}
		if err := put(fb.Dsts); err != nil {
			return n, err
		}
	}
	for _, v := range []any{uint32(ih.Sparse.DestLo), uint64(len(ih.Sparse.Index)), uint64(len(ih.Sparse.Srcs))} {
		if err := put(v); err != nil {
			return n, err
		}
	}
	if err := put(ih.Sparse.Index); err != nil {
		return n, err
	}
	if err := put(ih.Sparse.Srcs); err != nil {
		return n, err
	}
	return n, bw.Flush()
}

// ReadIHTL deserialises an iHTL graph written by WriteTo and checks
// its structural invariants.
func ReadIHTL(r io.Reader) (*IHTL, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	get := func(v any) error { return binary.Read(br, binary.LittleEndian, v) }
	var magic uint64
	if err := get(&magic); err != nil {
		return nil, fmt.Errorf("core: reading magic: %w", err)
	}
	if magic != ihtlMagic {
		return nil, fmt.Errorf("core: bad magic %#x", magic)
	}
	var version uint32
	if err := get(&version); err != nil {
		return nil, err
	}
	switch version {
	case ihtlVersion2:
		return readV2Resident(br)
	case ihtlVersion3:
		return nil, errV3Removed
	}
	if version != ihtlVersion {
		return nil, fmt.Errorf("core: unsupported version %d", version)
	}
	var numV, numHubs, numVWEH, numFV, hubsPerBlock, minHubDeg, numBlocks uint32
	var numE uint64
	for _, p := range []any{&numV, &numE, &numHubs, &numVWEH, &numFV, &hubsPerBlock, &minHubDeg, &numBlocks} {
		if err := get(p); err != nil {
			return nil, err
		}
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
	var err error
	if ih.NewID, err = graph.ReadChunked[graph.VID](br, uint64(numV)); err != nil {
		return nil, err
	}
	if ih.OldID, err = graph.ReadChunked[graph.VID](br, uint64(numV)); err != nil {
		return nil, err
	}
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
		var lenIdx, lenDsts uint64
		for _, p := range []any{&hubLo, &hubHi, &sources, &lenIdx, &lenDsts} {
			if err := get(p); err != nil {
				return nil, err
			}
		}
		if lenIdx > uint64(numV)+1 || lenDsts > numE {
			return nil, fmt.Errorf("core: implausible block %d sizes", i)
		}
		fb.HubLo, fb.HubHi, fb.Sources = int(hubLo), int(hubHi), int(sources)
		if fb.Index, err = graph.ReadChunked[int64](br, lenIdx); err != nil {
			return nil, err
		}
		if fb.Dsts, err = graph.ReadChunked[graph.VID](br, lenDsts); err != nil {
			return nil, err
		}
		if fb.HubLo > fb.HubHi || fb.HubHi > ih.NumHubs {
			return nil, fmt.Errorf("core: block %d hub range [%d,%d) invalid", i, fb.HubLo, fb.HubHi)
		}
		if err := checkFlippedRows(i, fb); err != nil {
			return nil, err
		}
		total += fb.NumEdges()
	}
	var destLo uint32
	var lenIdx, lenSrcs uint64
	for _, p := range []any{&destLo, &lenIdx, &lenSrcs} {
		if err := get(p); err != nil {
			return nil, err
		}
	}
	if lenIdx > uint64(numV)+1 || lenSrcs > numE {
		return nil, fmt.Errorf("core: implausible sparse block sizes")
	}
	ih.Sparse.DestLo = int(destLo)
	if ih.Sparse.Index, err = graph.ReadChunked[int64](br, lenIdx); err != nil {
		return nil, err
	}
	if ih.Sparse.Srcs, err = graph.ReadChunked[graph.VID](br, lenSrcs); err != nil {
		return nil, err
	}
	if err := checkSparseRows(ih.NumV, &ih.Sparse); err != nil {
		return nil, err
	}
	total += ih.Sparse.NumEdges()
	if total != ih.NumE {
		return nil, fmt.Errorf("core: blocks cover %d edges, header says %d", total, ih.NumE)
	}
	ih.params = Params{HubsPerBlock: ih.HubsPerBlock}.withDefaults()
	return ih, nil
}

// checkFlippedRows holds the rows of a loaded flipped block to what the
// build produces and the engines take on trust: Index is the offset
// array of exactly Dsts, every destination lies in the block's hub
// range, and no row descends (equal neighbours are parallel edges), so
// a task's destination bounds are its rows' first and last entries.
func checkFlippedRows(i int, fb *FlippedBlock) error {
	rows := len(fb.Index) - 1
	if rows < 0 || fb.Index[0] != 0 || fb.Index[rows] != int64(len(fb.Dsts)) {
		return fmt.Errorf("core: block %d index of %d offsets does not span its %d destinations", i, len(fb.Index), len(fb.Dsts))
	}
	for s := 0; s < rows; s++ {
		lo, hi := fb.Index[s], fb.Index[s+1]
		if lo > hi || hi > int64(len(fb.Dsts)) {
			return fmt.Errorf("core: block %d row %d spans [%d, %d)", i, s, lo, hi)
		}
		prev := fb.HubLo
		for _, d := range fb.Dsts[lo:hi] {
			if int(d) < fb.HubLo || int(d) >= fb.HubHi {
				return fmt.Errorf("core: block %d destination %d out of range", i, d)
			}
			if int(d) < prev {
				return fmt.Errorf("core: block %d row %d destinations descend (%d after %d)", i, s, d, prev)
			}
			prev = int(d)
		}
	}
	return nil
}

// checkSparseRows is checkFlippedRows for the sparse block: its rows
// are the destinations [DestLo, numV), one each, Index is the offset
// array of exactly Srcs, every source is a vertex, and no row descends,
// so the pull kernels may walk every row unchecked.
func checkSparseRows(numV int, sp *SparseBlock) error {
	if sp.DestLo > numV {
		return fmt.Errorf("core: sparse block starts at row %d of %d", sp.DestLo, numV)
	}
	rows := numV - sp.DestLo
	if len(sp.Index) != rows+1 || sp.Index[0] != 0 || sp.Index[rows] != int64(len(sp.Srcs)) {
		return fmt.Errorf("core: sparse index of %d offsets does not span its %d rows and %d sources", len(sp.Index), rows, len(sp.Srcs))
	}
	for r := 0; r < rows; r++ {
		if sp.Index[r] > sp.Index[r+1] {
			return fmt.Errorf("core: sparse row %d spans [%d, %d)", r, sp.Index[r], sp.Index[r+1])
		}
	}
	for r := 0; r < rows; r++ {
		prev := 0
		for _, u := range sp.Srcs[sp.Index[r]:sp.Index[r+1]] {
			if int(u) >= numV {
				return fmt.Errorf("core: sparse source %d out of range", u)
			}
			if int(u) < prev {
				return fmt.Errorf("core: sparse row %d sources descend (%d after %d)", r, u, prev)
			}
			prev = int(u)
		}
	}
	return nil
}

// SaveFile writes ih to path, atomically replacing any existing file.
func (ih *IHTL) SaveFile(path string) error {
	return atomicio.WriteFile(path, func(w io.Writer) error {
		_, err := ih.WriteTo(w)
		return err
	})
}

// LoadFile reads an iHTL graph from path.
func LoadFile(path string) (*IHTL, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadIHTL(f)
}
