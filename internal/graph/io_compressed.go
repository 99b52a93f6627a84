package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"

	"ihtl/internal/atomicio"
	"ihtl/internal/compress"
)

// Compressed binary format (little-endian), the §6 "light-weight
// graph compression" extension: header as in the flat format, then
// varint-delta-encoded adjacency streams (see DecodeCompressed for
// the exact layout). Neighbour lists must be sorted, which Build
// guarantees.
const compressedMagic = uint64(0x4948544c47525043) // "IHTLGRPC"

// WriteToCompressed serialises g with delta-varint compressed
// adjacency. For locality-friendly vertex orders this typically
// shrinks the neighbour arrays 2-4x versus the flat 4-byte encoding.
func (g *Graph) WriteToCompressed(w io.Writer) (int64, error) {
	bw := bufio.NewWriterSize(w, 1<<20)
	var n int64
	put := func(v any) error {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
		n += int64(binary.Size(v))
		return nil
	}
	for _, h := range []any{compressedMagic, fileVersion, uint32(g.NumV), uint64(g.NumE)} {
		if err := put(h); err != nil {
			return n, err
		}
	}
	for _, adj := range []struct {
		index []int64
		nbrs  []VID
	}{{g.OutIndex, g.OutNbrs}, {g.InIndex, g.InNbrs}} {
		enc := compress.EncodeAdjacency(adj.index, adj.nbrs)
		if err := put(uint64(len(enc))); err != nil {
			return n, err
		}
		if err := put(enc); err != nil {
			return n, err
		}
	}
	return n, bw.Flush()
}

// ReadFromCompressed deserialises a graph written by
// WriteToCompressed and validates it.
func ReadFromCompressed(r io.Reader) (*Graph, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	var magic uint64
	if err := binary.Read(br, binary.LittleEndian, &magic); err != nil {
		return nil, fmt.Errorf("graph: reading magic: %w", err)
	}
	if magic != compressedMagic {
		return nil, fmt.Errorf("graph: bad compressed magic %#x", magic)
	}
	var version uint32
	if err := binary.Read(br, binary.LittleEndian, &version); err != nil {
		return nil, err
	}
	if version != fileVersion {
		return nil, fmt.Errorf("graph: unsupported version %d", version)
	}
	var numV uint32
	var numE uint64
	if err := binary.Read(br, binary.LittleEndian, &numV); err != nil {
		return nil, err
	}
	if err := binary.Read(br, binary.LittleEndian, &numE); err != nil {
		return nil, err
	}
	if numE > 1<<40 {
		return nil, fmt.Errorf("graph: implausible edge count %d", numE)
	}
	g := &Graph{NumV: int(numV), NumE: int64(numE)}
	for i := 0; i < 2; i++ {
		var size uint64
		if err := binary.Read(br, binary.LittleEndian, &size); err != nil {
			return nil, err
		}
		if size > 16*(numE+uint64(numV)+16) {
			return nil, fmt.Errorf("graph: implausible stream size %d", size)
		}
		// Read in chunks, as ReadFrom does: the declared size buys no
		// memory until the bytes it promises arrive.
		buf, err := ReadChunked[uint8](br, size)
		if err != nil {
			return nil, fmt.Errorf("graph: reading compressed stream: %w", err)
		}
		index, nbrs, err := compress.DecodeAdjacency(buf, int(numV), int64(numE))
		if err != nil {
			return nil, err
		}
		if i == 0 {
			g.OutIndex, g.OutNbrs = index, nbrs
		} else {
			g.InIndex, g.InNbrs = index, nbrs
		}
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("graph: corrupt compressed file: %w", err)
	}
	return g, nil
}

// SaveFileCompressed writes g to path in the compressed format,
// atomically replacing any existing file.
func (g *Graph) SaveFileCompressed(path string) error {
	return atomicio.WriteFile(path, func(w io.Writer) error {
		_, err := g.WriteToCompressed(w)
		return err
	})
}

// LoadFileAuto reads a graph from path in either format, sniffing the
// magic number.
func LoadFileAuto(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var magic [8]byte
	if _, err := io.ReadFull(f, magic[:]); err != nil {
		return nil, err
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, err
	}
	m := binary.LittleEndian.Uint64(magic[:])
	switch m {
	case compressedMagic:
		return ReadFromCompressed(f)
	case fileMagic:
		return ReadFrom(f)
	default:
		return nil, fmt.Errorf("graph: unknown magic %#x", m)
	}
}
