package stats

import (
	"math"
	"testing"

	"ihtl/internal/gen"
	"ihtl/internal/graph"
)

func TestDegreesKinds(t *testing.T) {
	g := graph.Star(10) // 1..9 -> 0
	in := Degrees(g, InDegree)
	out := Degrees(g, OutDegree)
	tot := Degrees(g, TotalDegree)
	if in[0] != 9 || out[0] != 0 || tot[0] != 9 {
		t.Fatalf("hub degrees wrong: in=%d out=%d tot=%d", in[0], out[0], tot[0])
	}
	for v := 1; v < 10; v++ {
		if in[v] != 0 || out[v] != 1 || tot[v] != 1 {
			t.Fatalf("leaf %d degrees wrong", v)
		}
	}
}

func TestSummarizeStar(t *testing.T) {
	g := graph.Star(101) // hub with in-degree 100, leaves with 0
	s := Summarize(g, InDegree)
	if s.Max != 100 || s.Min != 0 || s.Median != 0 {
		t.Fatalf("summary wrong: %+v", s)
	}
	if math.Abs(s.Mean-100.0/101.0) > 1e-9 {
		t.Fatalf("mean wrong: %v", s.Mean)
	}
	// All edge mass on one vertex: extreme skew.
	if s.TopSharePct1 < 0.999 {
		t.Fatalf("top share should be ~1, got %v", s.TopSharePct1)
	}
	if s.Gini < 0.9 {
		t.Fatalf("Gini should be near 1 for a star, got %v", s.Gini)
	}
}

func TestSummarizeUniform(t *testing.T) {
	g := graph.Cycle(100)
	s := Summarize(g, InDegree)
	if s.Min != 1 || s.Max != 1 || s.Mean != 1 {
		t.Fatalf("cycle summary wrong: %+v", s)
	}
	if s.Gini > 0.05 {
		t.Fatalf("Gini should be ~0 for uniform degrees, got %v", s.Gini)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	g, err := graph.Build(0, nil, graph.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s := Summarize(g, InDegree)
	if s.Max != 0 || s.Mean != 0 {
		t.Fatalf("empty summary wrong: %+v", s)
	}
}

func TestAsymmetricityExtremes(t *testing.T) {
	// Fully reciprocated pair: asymmetricity 0 on both.
	g := graph.MustFromEdges(2, []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 0}})
	if a := Asymmetricity(g, 0); a != 0 {
		t.Fatalf("reciprocated asymmetricity = %v, want 0", a)
	}
	// One-way edge: destination fully asymmetric.
	g2 := graph.MustFromEdges(2, []graph.Edge{{Src: 0, Dst: 1}})
	if a := Asymmetricity(g2, 1); a != 1 {
		t.Fatalf("one-way asymmetricity = %v, want 1", a)
	}
	// No in-edges: defined as 0.
	if a := Asymmetricity(g2, 0); a != 0 {
		t.Fatalf("no-in-edge asymmetricity = %v, want 0", a)
	}
}

func TestAsymmetricityPartial(t *testing.T) {
	// v=0 has in-neighbours {1,2,3}; only 1 is reciprocated.
	g := graph.MustFromEdges(4, []graph.Edge{
		{Src: 1, Dst: 0}, {Src: 2, Dst: 0}, {Src: 3, Dst: 0}, {Src: 0, Dst: 1},
	})
	want := 2.0 / 3.0
	if a := Asymmetricity(g, 0); math.Abs(a-want) > 1e-12 {
		t.Fatalf("asymmetricity = %v, want %v", a, want)
	}
}

func TestHubAsymmetricitySeparatesSocialFromWeb(t *testing.T) {
	// Social-like: R-MAT on an undirectedised edge set would be
	// symmetric; emulate by adding reciprocal edges.
	soc, err := gen.RMAT(gen.DefaultRMAT(11, 8, 3))
	if err != nil {
		t.Fatal(err)
	}
	edges := soc.Edges(nil)
	n := len(edges)
	for i := 0; i < n; i++ {
		edges = append(edges, graph.Edge{Src: edges[i].Dst, Dst: edges[i].Src})
	}
	socSym, err := graph.Build(soc.NumV, edges, graph.BuildOptions{Dedup: true})
	if err != nil {
		t.Fatal(err)
	}

	web, err := gen.Web(gen.DefaultWeb(20000, 5))
	if err != nil {
		t.Fatal(err)
	}

	aSoc := HubAsymmetricity(socSym, 50)
	aWeb := HubAsymmetricity(web, 50)
	if aSoc > 0.05 {
		t.Fatalf("symmetrised social hubs should be ~0, got %v", aSoc)
	}
	if aWeb < 0.5 {
		t.Fatalf("web hubs should be mostly asymmetric, got %v", aWeb)
	}
	if aWeb-aSoc < 0.4 {
		t.Fatalf("Fig.9 separation too small: social=%v web=%v", aSoc, aWeb)
	}
}

func TestAsymmetryByDegreeBuckets(t *testing.T) {
	g := graph.Star(100)
	buckets := AsymmetryByDegree(g)
	// Only the hub has in-degree > 0: exactly one bucket with count 1
	// and asymmetricity 1 (no reciprocation).
	if len(buckets) != 1 || buckets[0].Count != 1 || buckets[0].MeanAsymmetricity != 1 {
		t.Fatalf("buckets wrong: %+v", buckets)
	}
	if buckets[0].DegreeLo > 99 || buckets[0].DegreeHi <= 99 {
		t.Fatalf("bucket bounds wrong: %+v", buckets[0])
	}
}

func TestTopKByInDegree(t *testing.T) {
	g := graph.PaperExample()
	top := TopKByInDegree(g, 2)
	if len(top) != 2 || top[0] != 2 || top[1] != 6 {
		t.Fatalf("TopK = %v, want [2 6]", top)
	}
	all := TopKByInDegree(g, 100)
	if len(all) != g.NumV {
		t.Fatalf("TopK over-requested length %d", len(all))
	}
	// Descending degrees.
	for i := 1; i < len(all); i++ {
		if g.InDegree(all[i]) > g.InDegree(all[i-1]) {
			t.Fatal("TopK not sorted by in-degree")
		}
	}
}

func TestDegreeKindString(t *testing.T) {
	if InDegree.String() != "in" || OutDegree.String() != "out" || TotalDegree.String() != "total" {
		t.Fatal("DegreeKind strings wrong")
	}
	if DegreeKind(42).String() == "" {
		t.Fatal("unknown kind should still format")
	}
}
