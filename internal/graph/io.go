package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"

	"ihtl/internal/atomicio"
)

// Binary graph file format (little-endian):
//
//	magic   uint64  'IHTLGRPH'
//	version uint32  (1)
//	numV    uint32
//	numE    uint64
//	outIndex [numV+1]uint64
//	outNbrs  [numE]uint32
//	inIndex  [numV+1]uint64
//	inNbrs   [numE]uint32
//
// Mirroring the paper's setup, the on-disk format lets iHTL
// preprocessing be amortised across runs.
const (
	fileMagic   = uint64(0x4948544c47525048) // "IHTLGRPH"
	fileVersion = uint32(1)
)

// WriteTo serialises g to w in the binary format. It returns the
// number of bytes written.
func (g *Graph) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriterSize(w, 1<<20)
	var n int64
	put := func(v any) error {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
		n += int64(binary.Size(v))
		return nil
	}
	if err := put(fileMagic); err != nil {
		return n, err
	}
	if err := put(fileVersion); err != nil {
		return n, err
	}
	if err := put(uint32(g.NumV)); err != nil {
		return n, err
	}
	if err := put(uint64(g.NumE)); err != nil {
		return n, err
	}
	for _, arr := range []any{g.OutIndex, g.OutNbrs, g.InIndex, g.InNbrs} {
		if err := put(arr); err != nil {
			return n, err
		}
	}
	return n, bw.Flush()
}

// ReadFrom deserialises a graph written by WriteTo and validates it.
func ReadFrom(r io.Reader) (*Graph, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	var magic uint64
	if err := binary.Read(br, binary.LittleEndian, &magic); err != nil {
		return nil, fmt.Errorf("graph: reading magic: %w", err)
	}
	if magic != fileMagic {
		return nil, fmt.Errorf("graph: bad magic %#x", magic)
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
	// Arrays are read in chunks so a hostile header cannot force a
	// huge up-front allocation: memory grows only as real bytes
	// arrive, and truncated input fails at the read.
	g := &Graph{NumV: int(numV), NumE: int64(numE)}
	var err error
	if g.OutIndex, err = ReadChunked[int64](br, uint64(numV)+1); err != nil {
		return nil, fmt.Errorf("graph: reading out index: %w", err)
	}
	if g.OutNbrs, err = ReadChunked[VID](br, numE); err != nil {
		return nil, fmt.Errorf("graph: reading out nbrs: %w", err)
	}
	if g.InIndex, err = ReadChunked[int64](br, uint64(numV)+1); err != nil {
		return nil, fmt.Errorf("graph: reading in index: %w", err)
	}
	if g.InNbrs, err = ReadChunked[VID](br, numE); err != nil {
		return nil, fmt.Errorf("graph: reading in nbrs: %w", err)
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("graph: corrupt file: %w", err)
	}
	return g, nil
}

// ReadChunked reads exactly n little-endian values of type T,
// growing the result incrementally (≤ 256 Ki elements at a time) so
// corrupt headers cannot trigger absurd allocations.
func ReadChunked[T int64 | uint32 | uint8](r io.Reader, n uint64) ([]T, error) {
	const chunk = 1 << 18
	capHint := n
	if capHint > chunk {
		capHint = chunk
	}
	out := make([]T, 0, capHint)
	for read := uint64(0); read < n; {
		c := n - read
		if c > chunk {
			c = chunk
		}
		tmp := make([]T, c)
		if err := binary.Read(r, binary.LittleEndian, tmp); err != nil {
			return nil, err
		}
		out = append(out, tmp...)
		read += c
	}
	return out, nil
}

// SaveFile writes g to path, atomically replacing any existing file.
func (g *Graph) SaveFile(path string) error {
	return atomicio.WriteFile(path, func(w io.Writer) error {
		_, err := g.WriteTo(w)
		return err
	})
}

// LoadFile reads a graph from path.
func LoadFile(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadFrom(f)
}
