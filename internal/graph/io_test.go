package graph

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

func graphsEqual(a, b *Graph) bool {
	if a.NumV != b.NumV || a.NumE != b.NumE {
		return false
	}
	for v := 0; v < a.NumV; v++ {
		x, y := a.Out(VID(v)), b.Out(VID(v))
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		x, y = a.In(VID(v)), b.In(VID(v))
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
	}
	return true
}

func TestBinaryRoundTrip(t *testing.T) {
	for _, g := range []*Graph{PaperExample(), Star(50), randomGraph(9, 300, 3000)} {
		var buf bytes.Buffer
		n, err := g.WriteTo(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if n != int64(buf.Len()) {
			t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
		}
		g2, err := ReadFrom(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if !graphsEqual(g, g2) {
			t.Fatal("round trip changed graph")
		}
	}
}

func TestFileRoundTrip(t *testing.T) {
	g := randomGraph(10, 100, 900)
	path := filepath.Join(t.TempDir(), "g.ihtl")
	if err := g.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	g2, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !graphsEqual(g, g2) {
		t.Fatal("file round trip changed graph")
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := ReadFrom(bytes.NewReader([]byte("not a graph file at all"))); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := ReadFrom(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty input accepted")
	}
}

func TestReadRejectsTruncated(t *testing.T) {
	var buf bytes.Buffer
	if _, err := PaperExample().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for _, cut := range []int{10, 20, len(data) / 2, len(data) - 1} {
		if _, err := ReadFrom(bytes.NewReader(data[:cut])); err == nil {
			t.Fatalf("truncated file (%d bytes) accepted", cut)
		}
	}
}

func TestReadRejectsCorruptPayload(t *testing.T) {
	var buf bytes.Buffer
	if _, err := PaperExample().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Corrupt a neighbour ID to an out-of-range value; Validate must
	// catch it at load.
	data[len(data)-2] = 0xFF
	if _, err := ReadFrom(bytes.NewReader(data)); err == nil {
		t.Fatal("corrupt payload accepted")
	}
}

func TestLoadFileMissing(t *testing.T) {
	if _, err := LoadFile(filepath.Join(t.TempDir(), "missing.ihtl")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestCompressedRoundTrip(t *testing.T) {
	for _, g := range []*Graph{PaperExample(), Star(50), randomGraph(19, 400, 4000)} {
		var buf bytes.Buffer
		n, err := g.WriteToCompressed(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if n != int64(buf.Len()) {
			t.Fatalf("WriteToCompressed reported %d bytes, wrote %d", n, buf.Len())
		}
		g2, err := ReadFromCompressed(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if !graphsEqual(g, g2) {
			t.Fatal("compressed round trip changed graph")
		}
	}
}

func TestCompressedSmallerThanFlat(t *testing.T) {
	// A graph with local structure compresses well below the flat
	// format.
	g := randomGraph(23, 2000, 40000)
	var flat, comp bytes.Buffer
	if _, err := g.WriteTo(&flat); err != nil {
		t.Fatal(err)
	}
	if _, err := g.WriteToCompressed(&comp); err != nil {
		t.Fatal(err)
	}
	if comp.Len() >= flat.Len() {
		t.Fatalf("compressed %d >= flat %d", comp.Len(), flat.Len())
	}
}

func TestLoadFileAuto(t *testing.T) {
	g := randomGraph(29, 200, 1500)
	dir := t.TempDir()
	flatPath := filepath.Join(dir, "flat.bin")
	compPath := filepath.Join(dir, "comp.bin")
	if err := g.SaveFile(flatPath); err != nil {
		t.Fatal(err)
	}
	if err := g.SaveFileCompressed(compPath); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{flatPath, compPath} {
		g2, err := LoadFileAuto(p)
		if err != nil {
			t.Fatal(err)
		}
		if !graphsEqual(g, g2) {
			t.Fatalf("%s: auto load changed graph", p)
		}
	}
	junk := filepath.Join(dir, "junk.bin")
	if err := os.WriteFile(junk, []byte("0123456789abcdef"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFileAuto(junk); err == nil {
		t.Fatal("junk magic accepted")
	}
}

func TestCompressedRejectsCorruption(t *testing.T) {
	var buf bytes.Buffer
	if _, err := PaperExample().WriteToCompressed(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for _, cut := range []int{4, 20, len(data) - 1} {
		if _, err := ReadFromCompressed(bytes.NewReader(data[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

// TestCompressedHostileHeaderAllocatesNothing feeds ReadFromCompressed
// headers that declare far more than the few bytes behind them — the
// vertex count of the checked-in fuzz regression (805 M vertices over a
// 22-byte stream), and a stream size of 32 GiB that the edge count
// makes plausible. Both must fail, and fail having allocated no more
// than the reader's fixed buffers: memory follows bytes present, never
// sizes declared.
func TestCompressedHostileHeaderAllocatesNothing(t *testing.T) {
	header := func(numV uint32, numE, size uint64) []byte {
		var buf bytes.Buffer
		for _, v := range []any{compressedMagic, fileVersion, numV, numE, size} {
			if err := binary.Write(&buf, binary.LittleEndian, v); err != nil {
				t.Fatal(err)
			}
		}
		return buf.Bytes()
	}
	for name, data := range map[string][]byte{
		"vertices": append(header(0x30000008, 14, 22), make([]byte, 22)...),
		"stream":   append(header(8, 1<<36, 1<<35), 1, 2, 3),
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ReadFromCompressed(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%s: hostile header accepted", name)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 8<<20 {
			t.Fatalf("%s: a %d-byte file made the reader allocate %d MiB", name, len(data), grew>>20)
		}
	}
}
