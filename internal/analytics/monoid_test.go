package analytics

import (
	"testing"

	"ihtl/internal/core"
	"ihtl/internal/graph"
	"ihtl/internal/spmv"
)

// generic engines under test: pull, buffered push, and iHTL, all over
// the same monoid.
func genericEngines[T any](t *testing.T, g *graph.Graph, m spmv.Monoid[T]) map[string]spmv.GenericStepper[T] {
	t.Helper()
	out := map[string]spmv.GenericStepper[T]{}
	pull, err := spmv.NewGenericEngine(g, testPool, m, false)
	if err != nil {
		t.Fatal(err)
	}
	out["pull"] = pull
	push, err := spmv.NewGenericEngine(g, testPool, m, true)
	if err != nil {
		t.Fatal(err)
	}
	out["push"] = push
	ih, err := core.Build(g, core.Params{HubsPerBlock: 16})
	if err != nil {
		t.Fatal(err)
	}
	ge, err := core.NewGenericEngine(ih, testPool, m)
	if err != nil {
		t.Fatal(err)
	}
	// The iHTL engine works in relabeled space; wrap it to present
	// original-ID semantics like the baselines.
	out["ihtl"] = &relabeledStepper[T]{ih: ih, e: ge}
	return out
}

// relabeledStepper adapts an iHTL generic engine to original IDs.
type relabeledStepper[T any] struct {
	ih *core.IHTL
	e  *core.GenericEngine[T]
}

func (r *relabeledStepper[T]) NumVertices() int { return r.e.NumVertices() }

func (r *relabeledStepper[T]) StepMonoid(src, dst []T) {
	n := r.e.NumVertices()
	ns := make([]T, n)
	nd := make([]T, n)
	for v := 0; v < n; v++ {
		ns[r.ih.NewID[v]] = src[v]
	}
	r.e.StepMonoid(ns, nd)
	for v := 0; v < n; v++ {
		dst[v] = nd[r.ih.NewID[v]]
	}
}

func TestGenericEnginesAgreeOnMinMonoid(t *testing.T) {
	g := mustRMAT(t, 9, 8, 61)
	m := spmv.MinInt64()
	src := make([]int64, g.NumV)
	for v := range src {
		src[v] = int64((v*7919 + 13) % 1000)
	}
	// Reference: min over in-neighbours.
	want := make([]int64, g.NumV)
	for v := 0; v < g.NumV; v++ {
		acc := m.Identity
		for _, u := range g.In(graph.VID(v)) {
			if src[u] < acc {
				acc = src[u]
			}
		}
		want[v] = acc
	}
	for name, e := range genericEngines(t, g, m) {
		dst := make([]int64, g.NumV)
		e.StepMonoid(src, dst)
		for v := range want {
			if dst[v] != want[v] {
				t.Fatalf("%s: dst[%d] = %d, want %d", name, v, dst[v], want[v])
			}
		}
	}
}

func TestGenericEnginesAgreeOnSumMonoid(t *testing.T) {
	// The sum monoid must agree exactly with the float64 engines'
	// reference (same additions, possibly different order — use a
	// tolerance).
	g := mustRMAT(t, 9, 8, 62)
	src := make([]float64, g.NumV)
	for v := range src {
		src[v] = float64(v%17) + 0.25
	}
	want := referencePageRankStep(g, src)
	for name, e := range genericEngines(t, g, spmv.Monoid[float64]{Combine: func(a, b float64) float64 { return a + b }}) {
		dst := make([]float64, g.NumV)
		e.StepMonoid(src, dst)
		for v := range want {
			d := dst[v] - want[v]
			if d > 1e-9 || d < -1e-9 {
				t.Fatalf("%s: dst[%d] = %g, want %g", name, v, dst[v], want[v])
			}
		}
	}
}

func referencePageRankStep(g *graph.Graph, src []float64) []float64 {
	dst := make([]float64, g.NumV)
	for v := 0; v < g.NumV; v++ {
		s := 0.0
		for _, u := range g.In(graph.VID(v)) {
			s += src[u]
		}
		dst[v] = s
	}
	return dst
}

func TestHopDistancesViaIHTLMatchesBFS(t *testing.T) {
	g := mustRMAT(t, 9, 8, 63)
	want := referenceBFS(g, 0)

	ih, err := core.Build(g, core.Params{HubsPerBlock: 32})
	if err != nil {
		t.Fatal(err)
	}
	ge, err := core.NewGenericEngine(ih, testPool, spmv.MinInt64())
	if err != nil {
		t.Fatal(err)
	}
	wrapped := &relabeledStepper[int64]{ih: ih, e: ge}
	sources := make([]bool, g.NumV)
	sources[0] = true
	got := HopDistances(wrapped, sources)
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("hop[%d] = %d, want %d", v, got[v], want[v])
		}
	}
}

func TestMinLabelComponentsViaIHTL(t *testing.T) {
	// Two disjoint cliques; weak connectivity needs the symmetrised
	// graph (here already symmetric by construction).
	var edges []graph.Edge
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			if i != j {
				edges = append(edges, graph.Edge{Src: graph.VID(i), Dst: graph.VID(j)})
				edges = append(edges, graph.Edge{Src: graph.VID(i + 6), Dst: graph.VID(j + 6)})
			}
		}
	}
	g := graph.MustFromEdges(12, edges)
	ih, err := core.Build(g, core.Params{HubsPerBlock: 4})
	if err != nil {
		t.Fatal(err)
	}
	ge, err := core.NewGenericEngine(ih, testPool, spmv.MinInt64())
	if err != nil {
		t.Fatal(err)
	}
	labels := MinLabelComponents(&relabeledStepper[int64]{ih: ih, e: ge})
	for v := 0; v < 6; v++ {
		if labels[v] != 0 {
			t.Fatalf("label[%d] = %d, want 0", v, labels[v])
		}
	}
	for v := 6; v < 12; v++ {
		if labels[v] != 6 {
			t.Fatalf("label[%d] = %d, want 6", v, labels[v])
		}
	}
}

func TestMinLabelComponentsMatchesLabelProp(t *testing.T) {
	g := Symmetrize(mustRMAT(t, 8, 6, 64))
	want := ConnectedComponents(g, testPool)

	pull, err := spmv.NewGenericEngine(g, testPool, spmv.MinInt64(), false)
	if err != nil {
		t.Fatal(err)
	}
	got := MinLabelComponents(pull)
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("cc[%d] = %d, want %d", v, got[v], want[v])
		}
	}
}

func TestReachableViaGenericEngines(t *testing.T) {
	// Path 0->1->2->3 plus isolated pair 4->5: from 0, reach {0..3};
	// from 4, reach {4,5}.
	g := graph.MustFromEdges(6, []graph.Edge{
		{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 3}, {Src: 4, Dst: 5},
	})
	for name, e := range genericEngines(t, g, spmv.BoolOr()) {
		sources := make([]bool, 6)
		sources[0] = true
		got := Reachable(e, sources)
		want := []bool{true, true, true, true, false, false}
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("%s: reach[%d] = %v, want %v", name, v, got[v], want[v])
			}
		}
	}
}

func TestSymmetrize(t *testing.T) {
	g := graph.MustFromEdges(3, []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}})
	sg := Symmetrize(g)
	if sg.NumE != 4 {
		t.Fatalf("symmetrized edges = %d, want 4", sg.NumE)
	}
	if !sg.HasEdge(1, 0) || !sg.HasEdge(2, 1) {
		t.Fatal("reverse edges missing")
	}
	if err := sg.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestGenericEngineErrors(t *testing.T) {
	g := graph.Star(4)
	if _, err := spmv.NewGenericEngine[int64](nil, testPool, spmv.MinInt64(), false); err == nil {
		t.Error("nil graph accepted")
	}
	if _, err := spmv.NewGenericEngine(g, testPool, spmv.Monoid[int64]{}, false); err == nil {
		t.Error("nil combine accepted")
	}
	ih, _ := core.Build(g, core.Params{HubsPerBlock: 2})
	if _, err := core.NewGenericEngine(ih, testPool, spmv.Monoid[int64]{}); err == nil {
		t.Error("nil combine accepted by core")
	}
	if _, err := core.NewGenericEngine[bool](nil, testPool, spmv.BoolOr()); err == nil {
		t.Error("nil IHTL accepted")
	}
}

func TestWeightedDistancesViaIHTLMatchesBellmanFord(t *testing.T) {
	g := mustRMAT(t, 9, 8, 65)
	want := referenceSSSP(g, 0) // Bellman-Ford over EdgeWeight

	ih, err := core.Build(g, core.Params{HubsPerBlock: 32})
	if err != nil {
		t.Fatal(err)
	}
	// The iHTL engine works in relabeled IDs: the weight hook maps
	// back to original IDs so weights agree with the reference.
	m := spmv.MinPlusInt64(func(src, dst graph.VID) int64 {
		return EdgeWeight(ih.OldID[src], ih.OldID[dst])
	})
	ge, err := core.NewGenericEngine(ih, testPool, m)
	if err != nil {
		t.Fatal(err)
	}
	wrapped := &relabeledStepper[int64]{ih: ih, e: ge}
	sources := make([]bool, g.NumV)
	sources[0] = true
	got := WeightedDistances(wrapped, sources)
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("dist[%d] = %d, want %d", v, got[v], want[v])
		}
	}
}

func TestWeightedDistancesAcrossGenericEngines(t *testing.T) {
	g := mustRMAT(t, 8, 6, 66)
	want := referenceSSSP(g, 3)
	m := spmv.MinPlusInt64(func(src, dst graph.VID) int64 { return EdgeWeight(src, dst) })
	for _, push := range []bool{false, true} {
		e, err := spmv.NewGenericEngine(g, testPool, m, push)
		if err != nil {
			t.Fatal(err)
		}
		sources := make([]bool, g.NumV)
		sources[3] = true
		got := WeightedDistances(e, sources)
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("push=%v: dist[%d] = %d, want %d", push, v, got[v], want[v])
			}
		}
	}
}

func TestMinPlusUnreachedDoesNotPoison(t *testing.T) {
	// Path 0->1->2; vertex 3 isolated. The unreached identity must
	// not leak finite values through Edge.
	g := graph.MustFromEdges(4, []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 3, Dst: 3}})
	m := spmv.MinPlusInt64(func(src, dst graph.VID) int64 { return 5 })
	e, err := spmv.NewGenericEngine(g, testPool, m, false)
	if err != nil {
		t.Fatal(err)
	}
	sources := make([]bool, g.NumV)
	sources[0] = true
	got := WeightedDistances(e, sources)
	if got[0] != 0 || got[1] != 5 || got[2] != 10 {
		t.Fatalf("distances %v", got)
	}
	if g.NumV > 3 && got[3] != InfDist {
		t.Fatalf("isolated vertex got %d", got[3])
	}
}
