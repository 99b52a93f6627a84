package core

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"ihtl/internal/gen"
)

func TestIHTLSerializeRoundTrip(t *testing.T) {
	g, err := gen.RMAT(gen.DefaultRMAT(10, 8, 77))
	if err != nil {
		t.Fatal(err)
	}
	ih, err := Build(g, Params{HubsPerBlock: 32})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	n, err := ih.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	got, err := ReadIHTL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumV != ih.NumV || got.NumE != ih.NumE || got.NumHubs != ih.NumHubs ||
		got.NumVWEH != ih.NumVWEH || got.NumFV != ih.NumFV || len(got.Blocks) != len(ih.Blocks) {
		t.Fatal("header fields changed in round trip")
	}
	for i := range ih.Blocks {
		a, b := &ih.Blocks[i], &got.Blocks[i]
		if a.HubLo != b.HubLo || a.HubHi != b.HubHi || a.Sources != b.Sources {
			t.Fatalf("block %d header changed", i)
		}
		for j := range a.Index {
			if a.Index[j] != b.Index[j] {
				t.Fatalf("block %d index changed", i)
			}
		}
		for j := range a.Dsts {
			if a.Dsts[j] != b.Dsts[j] {
				t.Fatalf("block %d dsts changed", i)
			}
		}
	}
	// The loaded engine must produce the same results.
	eOrig, err := NewEngine(ih, testPool)
	if err != nil {
		t.Fatal(err)
	}
	eLoad, err := NewEngine(got, testPool)
	if err != nil {
		t.Fatal(err)
	}
	// Integer-valued sources keep the sums exact, so the comparison is
	// independent of the dynamic task→worker schedule of each run.
	src := integerVec(3, g.NumV)
	d1 := make([]float64, g.NumV)
	d2 := make([]float64, g.NumV)
	eOrig.Step(src, d1)
	eLoad.Step(src, d2)
	for v := range d1 {
		if d1[v] != d2[v] {
			t.Fatalf("loaded engine differs at %d", v)
		}
	}
}

func TestIHTLFileRoundTrip(t *testing.T) {
	g, err := gen.Web(gen.DefaultWeb(2000, 4))
	if err != nil {
		t.Fatal(err)
	}
	ih, err := Build(g, Params{HubsPerBlock: 16})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "g.ihtlbin")
	if err := ih.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.FlippedEdges() != ih.FlippedEdges() {
		t.Fatal("flipped edges changed")
	}
}

func TestReadIHTLRejectsCorruption(t *testing.T) {
	g, err := gen.RMAT(gen.DefaultRMAT(8, 6, 1))
	if err != nil {
		t.Fatal(err)
	}
	ih, err := Build(g, Params{HubsPerBlock: 16})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := ih.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	if _, err := ReadIHTL(bytes.NewReader([]byte("junk"))); err == nil {
		t.Error("garbage accepted")
	}
	for _, cut := range []int{8, 40, len(data) / 2, len(data) - 1} {
		if _, err := ReadIHTL(bytes.NewReader(data[:cut])); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
	// Corrupt a relabeling byte: NewID/OldID inverse check must fire.
	bad := append([]byte(nil), data...)
	bad[60] ^= 0xFF
	if _, err := ReadIHTL(bytes.NewReader(bad)); err == nil {
		t.Error("corrupt relabeling accepted")
	}
}

// TestReadIHTLRejectsDescendingFlippedRow writes a v1 file whose one
// flipped row lists two hubs in descending order: engines take a task's
// destination bounds from its rows' first and last entries, so the
// reader must refuse the row rather than let a push write outside them.
func TestReadIHTLRejectsDescendingFlippedRow(t *testing.T) {
	g, err := gen.RMAT(gen.DefaultRMAT(8, 6, 1))
	if err != nil {
		t.Fatal(err)
	}
	ih, err := Build(g, Params{HubsPerBlock: 16})
	if err != nil {
		t.Fatal(err)
	}
	fb := &ih.Blocks[0]
	row := -1
	for s := 0; s+1 < len(fb.Index); s++ {
		if lo, hi := fb.Index[s], fb.Index[s+1]; hi-lo >= 2 && fb.Dsts[lo] != fb.Dsts[hi-1] {
			row = s
			break
		}
	}
	if row < 0 {
		t.Fatal("no flipped row holds two distinct hubs")
	}
	lo, hi := fb.Index[row], fb.Index[row+1]
	fb.Dsts[lo], fb.Dsts[hi-1] = fb.Dsts[hi-1], fb.Dsts[lo]
	var buf bytes.Buffer
	if _, err := ih.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadIHTL(&buf); err == nil || !strings.Contains(err.Error(), "descend") {
		t.Fatalf("descending flipped row: err = %v, want a refusal naming it", err)
	}
}

// TestReadIHTLRejectsBrokenSparseRows writes v1 files of a flipped
// build whose sparse block has been broken in the ways the pull kernels
// cannot survive unchecked — two offsets swapped (overlapping rows), a
// row whose sources descend, an index one offset short, rows starting
// past the last vertex — and requires the reader to refuse each.
func TestReadIHTLRejectsBrokenSparseRows(t *testing.T) {
	g, err := gen.RMAT(gen.DefaultRMAT(8, 6, 1))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name, want string
		breakIt    func(t *testing.T, sp *SparseBlock, numV int)
	}{
		{"swapped-offsets", "spans", func(t *testing.T, sp *SparseBlock, _ int) {
			for r := 1; r+1 < len(sp.Index)-1; r++ {
				if sp.Index[r] != sp.Index[r+1] {
					sp.Index[r], sp.Index[r+1] = sp.Index[r+1], sp.Index[r]
					return
				}
			}
			t.Fatal("no two distinct inner sparse offsets")
		}},
		{"descending-row", "descend", func(t *testing.T, sp *SparseBlock, _ int) {
			for r := 0; r+1 < len(sp.Index); r++ {
				if lo, hi := sp.Index[r], sp.Index[r+1]; hi-lo >= 2 && sp.Srcs[lo] != sp.Srcs[hi-1] {
					sp.Srcs[lo], sp.Srcs[hi-1] = sp.Srcs[hi-1], sp.Srcs[lo]
					return
				}
			}
			t.Fatal("no sparse row holds two distinct sources")
		}},
		{"short-index", "does not span", func(_ *testing.T, sp *SparseBlock, _ int) {
			sp.Index = sp.Index[:len(sp.Index)-1]
		}},
		{"start-past-end", "starts at row", func(_ *testing.T, sp *SparseBlock, numV int) {
			sp.DestLo = numV + 1
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ih, err := Build(g, Params{HubsPerBlock: 16})
			if err != nil {
				t.Fatal(err)
			}
			if len(ih.Blocks) == 0 || ih.Sparse.NumEdges() == 0 {
				t.Fatal("the build needs a flipped block and a sparse edge")
			}
			c.breakIt(t, &ih.Sparse, ih.NumV)
			var buf bytes.Buffer
			if _, err := ih.WriteTo(&buf); err != nil {
				t.Fatal(err)
			}
			if _, err := ReadIHTL(&buf); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("err = %v, want a refusal containing %q", err, c.want)
			}
		})
	}
}
