package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"ihtl/internal/gen"
	"ihtl/internal/graph"
)

func buildV2TestGraph(t *testing.T) *IHTL {
	t.Helper()
	g, err := gen.RMAT(gen.DefaultRMAT(10, 8, 77))
	if err != nil {
		t.Fatal(err)
	}
	ih, err := Build(g, Params{HubsPerBlock: 32})
	if err != nil {
		t.Fatal(err)
	}
	return ih
}

// TestV2RoundTripBitForBit pins the v2-decoded blocks bit-for-bit
// against their flat in-memory source: header, relabeling, index
// arrays, and the adjacency the packed segments decode to at open.
func TestV2RoundTripBitForBit(t *testing.T) {
	ih := buildV2TestGraph(t)
	path := filepath.Join(t.TempDir(), "g.ihtl2")
	if err := ih.SaveFileV2(path); err != nil {
		t.Fatal(err)
	}
	ef, err := OpenEngineFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ef.Close()
	got := ef.IHTL()
	if got.NumV != ih.NumV || got.NumE != ih.NumE || got.NumHubs != ih.NumHubs ||
		got.NumVWEH != ih.NumVWEH || got.NumFV != ih.NumFV ||
		got.HubsPerBlock != ih.HubsPerBlock || got.MinHubDegree != ih.MinHubDegree ||
		got.Sparse.DestLo != ih.Sparse.DestLo || len(got.Blocks) != len(ih.Blocks) {
		t.Fatal("header fields changed in v2 round trip")
	}
	for v := range ih.NewID {
		if got.NewID[v] != ih.NewID[v] || got.OldID[v] != ih.OldID[v] {
			t.Fatalf("relabeling changed at %d", v)
		}
	}
	for i := range ih.Blocks {
		a, b := &ih.Blocks[i], &got.Blocks[i]
		if a.HubLo != b.HubLo || a.HubHi != b.HubHi || a.Sources != b.Sources {
			t.Fatalf("block %d header changed", i)
		}
		if len(a.Index) != len(b.Index) || len(a.Dsts) != len(b.Dsts) {
			t.Fatalf("block %d shape changed", i)
		}
		for j := range a.Index {
			if a.Index[j] != b.Index[j] {
				t.Fatalf("block %d index changed at %d", i, j)
			}
		}
		for j := range a.Dsts {
			if a.Dsts[j] != b.Dsts[j] {
				t.Fatalf("block %d dsts changed at %d", i, j)
			}
		}
	}
	if len(got.Sparse.Srcs) != len(ih.Sparse.Srcs) {
		t.Fatal("sparse shape changed")
	}
	for j := range ih.Sparse.Srcs {
		if got.Sparse.Srcs[j] != ih.Sparse.Srcs[j] {
			t.Fatalf("sparse srcs changed at %d", j)
		}
	}
	for j := range ih.Sparse.Index {
		if got.Sparse.Index[j] != ih.Sparse.Index[j] {
			t.Fatalf("sparse index changed at %d", j)
		}
	}
}

// encodingGraph is an R-MAT of scale 14 (edge factor 16, reciprocal
// hubs) built with B = 2048, so most of its edges sit in flipped blocks
// whose rows a packed file stores with gaps of one and two bytes.
func encodingGraph(tb testing.TB) *IHTL {
	tb.Helper()
	cfg := gen.DefaultRMAT(14, 16, 114)
	cfg.Reciprocity = 0.7
	g, err := gen.RMAT(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	ih, err := Build(g, Params{HubsPerBlock: 2048})
	if err != nil {
		tb.Fatal(err)
	}
	return ih
}

// TestV2EngineDifferential steps an engine straight over the opened
// packed v2 graph and holds it to the oracle's cell check, refStep over
// the in-memory source (oracle_slices_test.go), on a small R-MAT and on
// encodingGraph. The file must map, its Index arrays must be the
// mapping itself, and its adjacency a heap decode of the packed rows.
func TestV2EngineDifferential(t *testing.T) {
	for _, c := range []struct {
		name string
		ih   *IHTL
	}{{"rmat10", buildV2TestGraph(t)}, {"rmat14", encodingGraph(t)}} {
		t.Run(c.name, func(t *testing.T) {
			ih := c.ih
			path := filepath.Join(t.TempDir(), "g.ihtl2")
			if err := ih.SaveFileV2(path); err != nil {
				t.Fatal(err)
			}
			ef, err := OpenEngineFile(path)
			if err != nil {
				t.Fatal(err)
			}
			defer ef.Close()
			if runtime.GOOS == "linux" && !ef.Mapped() {
				t.Fatal("v2 engine file did not memory-map")
			}
			requireFlatDecodedFromFile(t, ef)
			loaded, err := NewEngine(ef.IHTL(), testPool)
			if err != nil {
				t.Fatal(err)
			}
			requireOracleCell(t, "v2 engine", oracleCase{c.name, ih, nil}, loaded, 1)
		})
	}
}

// requireFlatDecodedFromFile checks where an opened packed v2 file's
// arrays live: every Index inside the file's bytes — the mapping, where
// the file is mapped — and every block's adjacency outside them, the
// heap decode the engines walk.
func requireFlatDecodedFromFile(t *testing.T, ef *EngineFile) {
	t.Helper()
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(ef.data)))
	hi := lo + uintptr(len(ef.data))
	in := func(p unsafe.Pointer, n uintptr) bool {
		return uintptr(p) >= lo && uintptr(p)+n <= hi
	}
	check := func(label string, index []int64, adj []graph.VID) {
		if len(adj) == 0 {
			t.Fatalf("%s: no adjacency", label)
		}
		if !in(unsafe.Pointer(unsafe.SliceData(index)), uintptr(len(index))*8) {
			t.Fatalf("%s: Index was copied out of the file's bytes", label)
		}
		if in(unsafe.Pointer(unsafe.SliceData(adj)), uintptr(len(adj))*4) {
			t.Fatalf("%s: the adjacency is not a decode: it lies in the file's bytes", label)
		}
	}
	ih := ef.IHTL()
	for b := range ih.Blocks {
		check(fmt.Sprintf("flipped block %d", b), ih.Blocks[b].Index, ih.Blocks[b].Dsts)
	}
	check("sparse block", ih.Sparse.Index, ih.Sparse.Srcs)
}

// TestLoadFileReadsV2 pins the stream decoder's v2 path: LoadFile must
// accept both versions.
func TestLoadFileReadsV2(t *testing.T) {
	ih := buildV2TestGraph(t)
	path := filepath.Join(t.TempDir(), "g.ihtl2")
	if err := ih.SaveFileV2(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumE != ih.NumE || got.FlippedEdges() != ih.FlippedEdges() {
		t.Fatal("v2 LoadFile changed edge counts")
	}
}

// TestOpenEngineFileReadsV1 is the other direction's regression:
// OpenEngineFile must accept a v1 file, and an engine over it must step
// the built graph's bits.
func TestOpenEngineFileReadsV1(t *testing.T) {
	ih := buildV2TestGraph(t)
	path := filepath.Join(t.TempDir(), "g.ihtl")
	if err := ih.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	ef, err := OpenEngineFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ef.Close()
	got := ef.IHTL()
	if !slices.Equal(got.Sparse.Index, ih.Sparse.Index) || got.NumE != ih.NumE {
		t.Fatal("v1 OpenEngineFile changed the sparse index or the edge count")
	}
	want, err := NewEngine(ih, testPool)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(got, testPool)
	if err != nil {
		t.Fatal(err)
	}
	src := integerVec(9, ih.NumV)
	requireBitIdentical(t, "v1 engine", stepOldSpace(ih, want, src), stepOldSpace(got, e, src))
}

// v3Header hand-makes the first 64 bytes of a version-3 file, the
// removed sharded container, declaring sizes no reader could honour.
func v3Header() []byte {
	b := make([]byte, 64)
	binary.LittleEndian.PutUint64(b[0:], ihtlMagic)
	binary.LittleEndian.PutUint32(b[8:], ihtlVersion3)
	binary.LittleEndian.PutUint32(b[12:], 1<<31) // numShards
	binary.LittleEndian.PutUint64(b[16:], 1<<62) // numV
	binary.LittleEndian.PutUint64(b[24:], 1<<62) // numE
	binary.LittleEndian.PutUint64(b[40:], 1<<62) // lenXRows
	return b
}

// wordReader serves data but fails the test on any Read once the
// 12-byte magic and version prefix has been handed out: a reader that
// went on to read a size would read past it.
type wordReader struct {
	t    *testing.T
	data []byte
	off  int
}

func (r *wordReader) Read(p []byte) (int, error) {
	if r.off >= 12 {
		r.t.Error("ReadIHTL read past the version word of a v3 file")
		return 0, io.ErrUnexpectedEOF
	}
	n := copy(p, r.data[r.off:12])
	r.off += n
	return n, nil
}

// TestOpenEngineFileRefusesV3 hands every reader a version-3 file —
// the prefix alone, the 64-byte header with no body, and the header
// with a body cut short — and requires the error that names the
// removed container and its way out, from the version word alone.
func TestOpenEngineFileRefusesV3(t *testing.T) {
	dir := t.TempDir()
	for name, data := range map[string][]byte{
		"prefix":    v3Header()[:12],
		"empty":     v3Header(),
		"truncated": append(v3Header(), make([]byte, 100)...),
	} {
		path := filepath.Join(dir, name+".ihtl3")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		refused := func(entry string, err error) {
			t.Helper()
			msg := fmt.Sprint(err)
			if !errors.Is(err, errV3Removed) || !strings.Contains(msg, "version 3") ||
				!strings.Contains(msg, "sharded") || !strings.Contains(msg, "SaveFileV2") {
				t.Errorf("%s/%s: err = %v, want the refusal naming the removed sharded container", name, entry, err)
			}
		}
		ef, err := OpenEngineFile(path)
		if ef != nil {
			t.Errorf("%s: OpenEngineFile returned a file", name)
		}
		refused("OpenEngineFile", err)
		if ih, err := LoadFile(path); ih != nil || err == nil {
			t.Errorf("%s: LoadFile returned a graph", name)
		} else {
			refused("LoadFile", err)
		}
		_, err = ReadIHTL(&wordReader{t: t, data: data})
		refused("ReadIHTL", err)
	}
}

// TestV2RejectsCorruption fuzz-adjacent hostile-input coverage for the
// mapped parser: truncations and bit flips across the whole file must
// error, never panic.
func TestV2RejectsCorruption(t *testing.T) {
	ih := buildV2TestGraph(t)
	var buf bytes.Buffer
	if _, err := ih.WriteToV2(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	dir := t.TempDir()
	try := func(name string, b []byte) {
		t.Helper()
		requireDecodeBounded(t, name, b)
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		ef, err := OpenEngineFile(path)
		if err != nil {
			return
		}
		// A flipped byte inside a gap can decode to another valid graph.
		// It passed full validation, so the unchecked kernels over it
		// must be memory-safe: step them (-tags=ihtlchecked turns a
		// stray access into a panic).
		defer ef.Close()
		e, err := NewEngineOpts(ef.IHTL(), testPool, EngineOptions{})
		if err != nil {
			t.Fatalf("%s: accepted file builds no engine: %v", name, err)
		}
		n := ef.IHTL().NumV
		e.Step(integerVec(5, n), make([]float64, n))
	}
	for _, cut := range []int{13, 64, 128, len(data) / 2, len(data) - 1} {
		path := filepath.Join(dir, "trunc")
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenEngineFile(path); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
	try("intact", data)
	for off := 12; off < len(data); off += 31 {
		bad := append([]byte(nil), data...)
		bad[off] ^= 0xA5
		try("flip", bad)
	}
}

// TestV2RefusesLEB128Era opens a v2 file written by the last commit
// whose adjacency streams were LEB128 varints (testdata: the paper's
// example, HubsPerBlock 2). Its header carries stream format 0 where
// today's writer puts 1, so every entry point must refuse it by name —
// pointing at ihtlconvert — instead of reading varint bytes as packed
// rows; the same bytes inside a v3 container are refused likewise.
func TestV2RefusesLEB128Era(t *testing.T) {
	path := filepath.Join("testdata", "leb128_era_paper.ihtl2")
	old, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	refused := func(entry string, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), "ihtlconvert") || !strings.Contains(err.Error(), "LEB128") {
			t.Errorf("%s: err = %v, want a refusal naming the retired LEB128 format and ihtlconvert", entry, err)
		}
	}
	_, err = OpenEngineFile(path)
	refused("OpenEngineFile", err)
	_, err = LoadFile(path)
	refused("LoadFile", err)
	_, err = parseV2(old)
	refused("parseV2", err)

	// The same graph written today differs from the old file in the
	// format word and the stream bytes only; it opens.
	ih, err := Build(graph.PaperExample(), Params{HubsPerBlock: 2})
	if err != nil {
		t.Fatal(err)
	}
	var now bytes.Buffer
	if _, err := ih.WriteToV2(&now); err != nil {
		t.Fatal(err)
	}
	if _, err := parseV2(now.Bytes()); err != nil {
		t.Fatalf("today's file of the same graph: %v", err)
	}
	if !bytes.Equal(now.Bytes()[:52], old[:52]) || binary.LittleEndian.Uint32(old[52:]) != 0 ||
		binary.LittleEndian.Uint32(now.Bytes()[52:]) != v2StreamPacked {
		t.Fatal("the stream-format word is not where the old header had zero padding")
	}

}

// TestWriteToV2LeavesNoEncodedCopy pins the save side: writing a graph
// encodes its packed rows for the write only — the graph keeps the very
// arrays it had, and a second write gives the same bytes — and a packed
// file opened (decoded to flat) and written again gives its own bytes
// back.
func TestWriteToV2LeavesNoEncodedCopy(t *testing.T) {
	ih := buildV2TestGraph(t)
	dsts := make([]*graph.VID, len(ih.Blocks))
	for i := range ih.Blocks {
		dsts[i] = unsafe.SliceData(ih.Blocks[i].Dsts)
	}
	srcs := unsafe.SliceData(ih.Sparse.Srcs)
	var first, second, reopened bytes.Buffer
	if _, err := ih.WriteToV2(&first); err != nil {
		t.Fatal(err)
	}
	for i := range ih.Blocks {
		if unsafe.SliceData(ih.Blocks[i].Dsts) != dsts[i] {
			t.Fatalf("WriteToV2 replaced block %d's adjacency", i)
		}
	}
	if unsafe.SliceData(ih.Sparse.Srcs) != srcs {
		t.Fatal("WriteToV2 replaced the sparse adjacency")
	}
	if _, err := ih.WriteToV2(&second); err != nil {
		t.Fatal(err)
	}
	opened, err := parseV2(alignedCopy(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := opened.WriteToV2(&reopened); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) || !bytes.Equal(first.Bytes(), reopened.Bytes()) {
		t.Fatal("the v2 bytes of one graph differ between writes, or after an open")
	}
}

// alignedCopy copies b into an 8-byte-aligned buffer, as a mapping or
// readFileAligned hands parseV2 its bytes.
func alignedCopy(b []byte) []byte {
	words := make([]int64, (len(b)+7)/8)
	out := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(words))), len(b))
	copy(out, b)
	return out
}
