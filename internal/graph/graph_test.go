package graph

import (
	"testing"

	"ihtl/internal/sched"
)

func TestPaperExampleStructure(t *testing.T) {
	g := PaperExample()
	if g.NumV != 8 || g.NumE != 14 {
		t.Fatalf("paper example: V=%d E=%d, want V=8 E=14", g.NumV, g.NumE)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// In-hubs #3, #7 (0-indexed 2, 6) with in-degrees 5 and 4.
	if d := g.InDegree(2); d != 5 {
		t.Errorf("InDegree(2) = %d, want 5", d)
	}
	if d := g.InDegree(6); d != 4 {
		t.Errorf("InDegree(6) = %d, want 4", d)
	}
	// In-neighbours of #3 are {2,5,6,7,8} (paper) = {1,4,5,6,7}.
	want := []VID{1, 4, 5, 6, 7}
	got := g.In(2)
	if len(got) != len(want) {
		t.Fatalf("In(2) = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("In(2) = %v, want %v", got, want)
		}
	}
	// Out-degrees of Figure 5 rows: 1,2,1,1,2,4,2,1.
	wantOut := []int{1, 2, 1, 1, 2, 4, 2, 1}
	for v, w := range wantOut {
		if d := g.OutDegree(VID(v)); d != w {
			t.Errorf("OutDegree(%d) = %d, want %d", v, d, w)
		}
	}
	maxIn, v := g.MaxInDegree()
	if maxIn != 5 || v != 2 {
		t.Errorf("MaxInDegree = (%d,%d), want (5,2)", maxIn, v)
	}
}

func TestHasEdge(t *testing.T) {
	g := PaperExample()
	cases := []struct {
		s, d VID
		want bool
	}{
		{0, 1, true}, {1, 2, true}, {5, 7, true}, {6, 0, true},
		{1, 0, false}, {0, 2, false}, {7, 6, false}, {2, 2, false},
	}
	for _, c := range cases {
		if got := g.HasEdge(c.s, c.d); got != c.want {
			t.Errorf("HasEdge(%d,%d) = %v, want %v", c.s, c.d, got, c.want)
		}
	}
}

func TestBuildDedup(t *testing.T) {
	edges := []Edge{{0, 1}, {0, 1}, {0, 1}, {1, 0}}
	g, err := Build(2, edges, BuildOptions{Dedup: true})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumE != 2 {
		t.Fatalf("NumE = %d after dedup, want 2", g.NumE)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Without dedup duplicates are preserved.
	g2, err := Build(2, edges, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumE != 4 {
		t.Fatalf("NumE = %d without dedup, want 4", g2.NumE)
	}
}

func TestBuildDropSelfLoops(t *testing.T) {
	edges := []Edge{{0, 0}, {0, 1}, {1, 1}}
	g, err := Build(2, edges, BuildOptions{DropSelfLoops: true})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumE != 1 || !g.HasEdge(0, 1) {
		t.Fatalf("self loops not dropped: E=%d", g.NumE)
	}
}

func TestBuildRemovesZeroDegree(t *testing.T) {
	// Vertices 1 and 3 are isolated out of 5.
	edges := []Edge{{0, 2}, {2, 4}, {4, 0}}
	g, err := Build(5, edges, BuildOptions{RemoveZeroDegree: true})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumV != 3 || g.NumE != 3 {
		t.Fatalf("V=%d E=%d, want V=3 E=3", g.NumV, g.NumE)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Relative order preserved: old 0,2,4 -> new 0,1,2.
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 2) || !g.HasEdge(2, 0) {
		t.Fatal("compaction broke edge structure")
	}
}

func TestBuildRejectsOutOfRange(t *testing.T) {
	if _, err := Build(2, []Edge{{0, 5}}, BuildOptions{}); err == nil {
		t.Fatal("expected error for out-of-range edge")
	}
	if _, err := Build(-1, nil, BuildOptions{}); err == nil {
		t.Fatal("expected error for negative vertex count")
	}
}

func TestBuildEmpty(t *testing.T) {
	g, err := Build(0, nil, DefaultBuildOptions())
	if err != nil {
		t.Fatal(err)
	}
	if g.NumV != 0 || g.NumE != 0 {
		t.Fatalf("empty graph V=%d E=%d", g.NumV, g.NumE)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTranspose(t *testing.T) {
	g := PaperExample()
	tr := g.Transpose()
	if tr.NumV != g.NumV || tr.NumE != g.NumE {
		t.Fatal("transpose changed counts")
	}
	for v := 0; v < g.NumV; v++ {
		if g.InDegree(VID(v)) != tr.OutDegree(VID(v)) {
			t.Fatalf("transpose degree mismatch at %d", v)
		}
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	// Double transpose is the original.
	tt := tr.Transpose()
	for v := 0; v < g.NumV; v++ {
		a, b := g.Out(VID(v)), tt.Out(VID(v))
		if len(a) != len(b) {
			t.Fatalf("double transpose broke vertex %d", v)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("double transpose broke vertex %d", v)
			}
		}
	}
}

func TestCSRCSCConsistency(t *testing.T) {
	g := PaperExample()
	// Every CSR edge must appear in CSC and vice versa.
	for v := 0; v < g.NumV; v++ {
		for _, u := range g.Out(VID(v)) {
			found := false
			for _, s := range g.In(u) {
				if s == VID(v) {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("edge %d->%d in CSR but not CSC", v, u)
			}
		}
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	fresh := func() *Graph { return PaperExample() }

	g := fresh()
	g.NumE++
	if g.Validate() == nil {
		t.Error("edge count corruption not caught")
	}

	g = fresh()
	g.OutNbrs[0] = 200
	if g.Validate() == nil {
		t.Error("out-of-range neighbour not caught")
	}

	g = fresh()
	g.OutIndex[1], g.OutIndex[2] = g.OutIndex[2], g.OutIndex[1]
	if g.Validate() == nil {
		t.Error("decreasing index not caught")
	}

	g = fresh()
	g.InNbrs[0], g.InNbrs[1] = g.InNbrs[1], g.InNbrs[0]
	// Swapping within one vertex's list keeps the multiset identical;
	// swap across vertices instead to break CSR/CSC agreement.
	g = fresh()
	g.InNbrs[g.InIndex[2]] = g.InNbrs[g.InIndex[2]+1]
	if g.Validate() == nil {
		t.Error("CSR/CSC disagreement not caught")
	}
}

func TestFixtures(t *testing.T) {
	for name, g := range map[string]*Graph{
		"path":     Path(10),
		"cycle":    Cycle(10),
		"star":     Star(10),
		"complete": Complete(6),
	} {
		if err := g.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	if g := Star(10); g.InDegree(0) != 9 {
		t.Error("star hub in-degree wrong")
	}
	if g := Complete(6); g.NumE != 30 {
		t.Errorf("complete K6 has %d edges, want 30", g.NumE)
	}
}

func TestEdgesRoundTrip(t *testing.T) {
	g := PaperExample()
	edges := g.Edges(nil)
	if int64(len(edges)) != g.NumE {
		t.Fatalf("Edges returned %d, want %d", len(edges), g.NumE)
	}
	g2, err := Build(g.NumV, edges, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.NumV; v++ {
		a, b := g.Out(VID(v)), g2.Out(VID(v))
		if len(a) != len(b) {
			t.Fatalf("round trip broke vertex %d", v)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("round trip broke vertex %d", v)
			}
		}
	}
}

func TestTopologyBytes(t *testing.T) {
	g := PaperExample()
	csr, csc := g.TopologyBytes()
	wantIdx := int64(9 * 8)
	if csr != wantIdx+14*4 || csc != wantIdx+14*4 {
		t.Fatalf("TopologyBytes = (%d,%d)", csr, csc)
	}
}

func TestDegreeAndStringAndMaxOut(t *testing.T) {
	g := PaperExample()
	// Degree = in + out: vertex 2 has in 5, out 1.
	if d := g.Degree(2); d != 6 {
		t.Fatalf("Degree(2) = %d, want 6", d)
	}
	maxOut, v := g.MaxOutDegree()
	if maxOut != 4 || v != 5 {
		t.Fatalf("MaxOutDegree = (%d,%d), want (4,5)", maxOut, v)
	}
	if s := g.String(); s != "Graph{V=8, E=14}" {
		t.Fatalf("String = %q", s)
	}
}

func TestParallelBuilderSortsAdjacency(t *testing.T) {
	// The pooled transpositions must leave every list strictly ascending.
	pool := sched.NewPool(4)
	defer pool.Close()
	edges := randomGraph(31, 500, 8000).Edges(nil)
	g, err := Build(500, edges, BuildOptions{Dedup: true, Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.NumV; v++ {
		out := g.Out(VID(v))
		for i := 1; i < len(out); i++ {
			if out[i-1] >= out[i] {
				t.Fatalf("parallel build left unsorted adjacency at %d", v)
			}
		}
	}
}

func TestFromEdgesRejectsBadInput(t *testing.T) {
	if _, err := FromEdges(2, []Edge{{Src: 0, Dst: 9}}); err == nil {
		t.Fatal("FromEdges accepted out-of-range edge")
	}
}

func TestMustFromEdgesPanicsOnBadInput(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustFromEdges accepted out-of-range edge")
		}
	}()
	MustFromEdges(2, []Edge{{Src: 0, Dst: 9}})
}

func TestRelabelRejectsShortPerm(t *testing.T) {
	if _, err := Relabel(PaperExample(), make([]VID, 2)); err == nil {
		t.Fatal("Relabel accepted short permutation")
	}
}

func TestSaveFileErrorPaths(t *testing.T) {
	g := PaperExample()
	if err := g.SaveFile("/nonexistent-dir/x.bin"); err == nil {
		t.Fatal("SaveFile into missing dir succeeded")
	}
	if err := g.SaveFileCompressed("/nonexistent-dir/x.bin"); err == nil {
		t.Fatal("SaveFileCompressed into missing dir succeeded")
	}
	if _, err := LoadFileAuto("/nonexistent-dir/x.bin"); err == nil {
		t.Fatal("LoadFileAuto of missing file succeeded")
	}
}
