package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"unsafe"

	"ihtl/internal/gen"
	"ihtl/internal/graph"
)

// The raw stream format (streamFormat 2): the v2 file of a graph built
// in the resident regime stores the sparse block's Srcs as they sit in
// memory, and an engine over the opened file runs the flat kernels on
// the mapping. Header words the tests below reach into, by byte offset.
const (
	v2OffHubsPerBlock = 36
	v2OffNumBlocks    = 44
	v2OffStream       = 52
)

// rawLayout returns where the raw file of a numV-vertex graph keeps its
// sparse Index, its raw-section length word and the ids themselves.
func rawLayout(numV int) (idxOff, lenOff, srcsOff int) {
	a64 := func(x int) int { return (x + 63) &^ 63 }
	off := a64(64 + 4*numV) // header, newid
	off = a64(off + 4*numV) // oldid; off is now the sparse meta
	idxOff = off + 64
	lenOff = a64(idxOff + 8*(numV+1))
	return idxOff, lenOff, lenOff + 64
}

func openV2(t *testing.T, data []byte) *EngineFile {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.ihtl2")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	ef, err := OpenEngineFile(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ef.Close() })
	return ef
}

// TestV2RawRoundTrip: a resident build is written raw whatever Params
// made it resident, opens flat with nothing decoded — the ids are the
// mapped section — is resident again with Stats to say why, and saves
// back to the bytes it was opened from, also after its flat form was
// dropped for the packed one.
func TestV2RawRoundTrip(t *testing.T) {
	for gname, g := range residentGraphs(t) {
		for pname, p := range map[string]Params{
			"default":    {},
			"4 lanes":    Params{}.ForBatch(4),
			"tight":      {CacheBytes: 8 * g.NumV},
			"wide cache": {CacheBytes: 64 << 20},
		} {
			label := gname + "/" + pname
			ih, err := Build(g, p)
			if err != nil {
				t.Fatal(err)
			}
			if ih.V2Stream() != "raw" {
				t.Fatalf("%s: a resident build is written %s", label, ih.V2Stream())
			}
			data := v2Bytes(t, ih)
			if got := binary.LittleEndian.Uint32(data[v2OffStream:]); got != v2StreamRaw {
				t.Fatalf("%s: header stream format %d, want %d", label, got, v2StreamRaw)
			}
			if ih.Sparse.Enc != nil {
				t.Fatalf("%s: WriteToV2 left an encoding cached on the graph", label)
			}
			ef := openV2(t, data)
			got := ef.IHTL()
			requireZeroBlocks(t, label+" opened", got)
			if got.EncodedOnly() || got.Sparse.Enc != nil || got.V2Stream() != "raw" {
				t.Fatalf("%s: the raw file did not open flat", label)
			}
			_, _, srcsOff := rawLayout(g.NumV)
			if ef.Mapped() && len(got.Sparse.Srcs) > 0 && &got.Sparse.Srcs[0] != (*graph.VID)(unsafe.Pointer(&ef.data[srcsOff])) {
				t.Errorf("%s: Srcs were copied out of the mapping", label)
			}
			if len(got.Sparse.Srcs) != len(ih.Sparse.Srcs) || len(got.Sparse.Index) != len(ih.Sparse.Index) {
				t.Fatalf("%s: sparse shape changed", label)
			}
			for j, s := range ih.Sparse.Srcs {
				if got.Sparse.Srcs[j] != s {
					t.Fatalf("%s: sparse srcs changed at %d", label, j)
				}
			}
			for j, x := range ih.Sparse.Index {
				if got.Sparse.Index[j] != x {
					t.Fatalf("%s: sparse index changed at %d", label, j)
				}
			}
			s := got.Stats(g)
			if !s.Resident || s.VertexDataBytes > s.CacheBytes || s.CacheBytes != int64(ih.HubsPerBlock*DefaultVertexBytes) {
				t.Errorf("%s: opened Stats: resident %v, %d B of vertex data, %d B cache (B = %d)", label, s.Resident, s.VertexDataBytes, s.CacheBytes, ih.HubsPerBlock)
			}
			e, err := NewEngine(got, testPool)
			if err != nil {
				t.Fatal(err)
			}
			if e.encoding != EncodingFlat {
				t.Errorf("%s: auto encoding over a raw file resolved to %v", label, e.encoding)
			}
			if !bytes.Equal(v2Bytes(t, got), data) {
				t.Errorf("%s: re-saving the opened raw file changed its bytes", label)
			}
			// A resident copy (LoadFile's path) that traded its flat form
			// for the packed one still writes the raw file.
			loaded, err := ReadIHTL(bytes.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			loaded.EnsureEncoded()
			loaded.DropFlatTopology()
			if g.NumE > 0 && !loaded.EncodedOnly() {
				t.Fatalf("%s: DropFlatTopology kept the flat form", label)
			}
			if !bytes.Equal(v2Bytes(t, loaded), data) {
				t.Errorf("%s: the raw file depends on which form was resident", label)
			}
		}
	}

	// No vertex at all is resident too.
	g0, err := graph.Build(0, nil, graph.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	empty, err := Build(g0, Params{})
	if err != nil {
		t.Fatal(err)
	}
	data := v2Bytes(t, empty)
	got, err := parseV2(data)
	if err != nil {
		t.Fatalf("empty graph: %v", err)
	}
	if got.V2Stream() != "raw" || !bytes.Equal(v2Bytes(t, got), data) {
		t.Error("empty graph: raw round trip changed the file")
	}
}

// TestV2RawRejectsHostile: each way a raw file can lie is refused by
// name, before an unchecked kernel could run over it; a flipped byte
// that still parses names another valid graph, and the flat kernels
// over that are memory-safe (-tags=ihtlchecked makes a stray access a
// panic).
func TestV2RawRejectsHostile(t *testing.T) {
	g := residentGraphs(t)["rmat"]
	ih, err := Build(g, Params{})
	if err != nil {
		t.Fatal(err)
	}
	data := v2Bytes(t, ih)
	n := g.NumV
	idxOff, lenOff, srcsOff := rawLayout(n)
	if got := binary.LittleEndian.Uint64(data[lenOff:]); got != uint64(g.NumE) {
		t.Fatalf("raw section length word holds %d, want %d: the layout moved", got, g.NumE)
	}
	// A row with two distinct ids to swap.
	swap := -1
	for j := 0; j+1 < len(ih.Sparse.Srcs) && swap < 0; j++ {
		r := rowOfEdgeFrom(ih.Sparse.Index, int64(j), 0)
		if ih.Sparse.Index[r+1] > int64(j+1) && ih.Sparse.Srcs[j] != ih.Sparse.Srcs[j+1] {
			swap = j
		}
	}
	if swap < 0 {
		t.Fatal("fixture has no row of two ids")
	}
	floor, err := Build(g, Params{HubsPerBlock: flipB, MinHubDegree: maxInDegree(g, 0, n) + 1})
	if err != nil {
		t.Fatal(err)
	}
	packed := v2Bytes(t, floor)

	mut := func(base []byte, f func(b []byte)) []byte {
		b := append([]byte(nil), base...)
		f(b)
		return b
	}
	put32 := func(off int, v uint32) func([]byte) {
		return func(b []byte) { binary.LittleEndian.PutUint32(b[off:], v) }
	}
	put64 := func(off int, v uint64) func([]byte) {
		return func(b []byte) { binary.LittleEndian.PutUint64(b[off:], v) }
	}
	for _, c := range []struct {
		name string
		data []byte
		want string
	}{
		{"cut inside the ids", data[:srcsOff+4*int(g.NumE)/2], "truncated"},
		{"cut after the length word", data[:lenOff+8], "truncated"},
		{"cut inside the length word", data[:lenOff+4], "truncated"},
		{"cut by one byte", data[:len(data)-1], "size mismatch"},
		{"length past the file", mut(data, put64(lenOff, 1<<40)), "truncated"},
		{"length overflowing a byte count", mut(data, put64(lenOff, 1<<63)), "truncated"},
		{"length short of the index", mut(data, put64(lenOff, uint64(g.NumE)-16)), "does not start at 0 and end there"},
		{"index not from 0", mut(data, put64(idxOff, 1)), "does not start at 0 and end there"},
		{"index descending", mut(data, put64(idxOff+8*(n/2), uint64(g.NumE)+1)), "spans"},
		{"id out of range", mut(data, put32(srcsOff+4*(len(ih.Sparse.Srcs)/2), uint32(n))), "out of range"},
		{"descending pair", mut(data, func(b []byte) {
			put32(srcsOff+4*swap, uint32(ih.Sparse.Srcs[swap+1]))(b)
			put32(srcsOff+4*(swap+1), uint32(ih.Sparse.Srcs[swap]))(b)
		}), "descend"},
		{"raw header with a flipped block", mut(data, put32(v2OffNumBlocks, 1)), "flips nothing"},
		{"raw header over more vertices than B", mut(data, put32(v2OffHubsPerBlock, uint32(n-1))), "more than the B"},
		{"packed body under a raw header", mut(packed, put32(v2OffStream, v2StreamRaw)), "raw adjacency holds"},
		{"raw body under a packed header", mut(data, put32(v2OffStream, v2StreamPacked)), "sparse block"},
		{"unknown stream format", mut(data, put32(v2OffStream, 3)), "stream format 3"},
	} {
		_, err := parseV2(c.data)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want a refusal naming %q", c.name, err, c.want)
		}
	}

	src, dst := integerVec(5, n), make([]float64, n)
	src4, dst4 := integerVec(6, 4*n), make([]float64, 4*n)
	for off := 12; off < len(data); off += 29 {
		bad := mut(data, func(b []byte) { b[off] ^= 0xA5 })
		got, err := parseV2(bad)
		if err != nil {
			continue
		}
		e, err := NewEngineOpts(got, testPool, EngineOptions{})
		if err != nil {
			t.Fatalf("flip at %d: accepted file builds no engine: %v", off, err)
		}
		e.Step(src, dst)
		e.StepBatch(src4, dst4, 4)
	}
}

// TestV2ParentPackedFileStillOpens: testdata holds the v2 file the
// parent commit wrote for a default build of R-MAT(8, 8, 7) — a resident
// graph, packed as every file then was. It still opens, as what it is:
// packed, encoded-only, not claiming the rule; an engine over it steps
// bit for bit like one over today's build of that graph; saved again it
// is the parent's bytes, and the same graph built today is the raw file.
func TestV2ParentPackedFileStillOpens(t *testing.T) {
	path := filepath.Join("testdata", "pr23_resident_packed.ihtl2")
	old, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ef, err := OpenEngineFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ef.Close()
	got := ef.IHTL()
	requireZeroBlocks(t, "parent's file", got)
	if !got.EncodedOnly() || got.resident || got.V2Stream() != "packed" {
		t.Fatal("the parent's packed file did not open packed")
	}
	if !bytes.Equal(v2Bytes(t, got), old) {
		t.Error("re-saving the parent's file changed its bytes")
	}

	g, err := gen.RMAT(gen.DefaultRMAT(8, 8, 7))
	if err != nil {
		t.Fatal(err)
	}
	ih, err := Build(g, Params{})
	if err != nil {
		t.Fatal(err)
	}
	now := v2Bytes(t, ih)
	if binary.LittleEndian.Uint32(now[v2OffStream:]) != v2StreamRaw || !bytes.Equal(now[:v2OffStream], old[:v2OffStream]) {
		t.Error("today's file of the same graph differs from the parent's before the stream-format word, or is not raw")
	}
	packed, err := NewEngine(got, testPool)
	if err != nil {
		t.Fatal(err)
	}
	flat, err := NewEngine(ih, testPool)
	if err != nil {
		t.Fatal(err)
	}
	if !packed.varint || flat.varint {
		t.Fatal("auto encoding: the packed file must step packed, the build flat")
	}
	// A zero-block graph sums each row in in-list order, so real inputs
	// give the oracle's bits.
	for _, k := range []int{1, 4, 8} {
		src := realInput(uint64(k), g.NumV, k)
		a, b := make([]float64, g.NumV*k), make([]float64, g.NumV*k)
		packed.StepBatch(src, a, k)
		flat.StepBatch(src, b, k)
		requireBitIdentical(t, fmt.Sprintf("parent's file, k%d", k), referenceStep(g, src, k), a)
		requireBitIdentical(t, fmt.Sprintf("parent's file vs today's build, k%d", k), b, a)
	}
}
