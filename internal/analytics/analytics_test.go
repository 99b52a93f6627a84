package analytics

import (
	"math"
	"sort"
	"testing"

	"ihtl/internal/core"
	"ihtl/internal/gen"
	"ihtl/internal/graph"
	"ihtl/internal/sched"
	"ihtl/internal/spmv"
)

var testPool = sched.NewPool(4)

func mustRMAT(t testing.TB, scale, ef int, seed uint64) *graph.Graph {
	t.Helper()
	g, err := gen.RMAT(gen.DefaultRMAT(scale, ef, seed))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// referencePageRank is a slow, obviously-correct sequential PageRank.
func referencePageRank(g *graph.Graph, iters int, damping float64) []float64 {
	n := g.NumV
	ranks := make([]float64, n)
	for v := range ranks {
		ranks[v] = 1 / float64(n)
	}
	for it := 0; it < iters; it++ {
		next := make([]float64, n)
		for v := 0; v < n; v++ {
			sum := 0.0
			for _, u := range g.In(graph.VID(v)) {
				sum += ranks[u] / float64(g.OutDegree(u))
			}
			next[v] = (1-damping)/float64(n) + damping*sum
		}
		ranks = next
	}
	return ranks
}

func outDegrees(g *graph.Graph) []int {
	d := make([]int, g.NumV)
	for v := range d {
		d[v] = g.OutDegree(graph.VID(v))
	}
	return d
}

func TestPageRankMatchesReferenceAcrossEngines(t *testing.T) {
	g := mustRMAT(t, 9, 8, 31)
	want := referencePageRank(g, 20, 0.85)
	opts := PageRankOptions{MaxIters: 20, Tol: -1}

	engines := map[string]spmv.Stepper{}
	for _, dir := range []spmv.Direction{spmv.Pull, spmv.PushAtomic, spmv.PushBuffered, spmv.PushPartitioned} {
		e, err := spmv.NewEngine(g, testPool, dir, spmv.Options{})
		if err != nil {
			t.Fatal(err)
		}
		engines[dir.String()] = e
	}
	for name, e := range engines {
		res, err := RunPageRank(e, outDegrees(g), testPool, opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.Iters != 20 {
			t.Fatalf("%s: ran %d iters", name, res.Iters)
		}
		for v := range want {
			if math.Abs(res.Ranks[v]-want[v]) > 1e-10 {
				t.Fatalf("%s: rank[%d] = %g, want %g", name, v, res.Ranks[v], want[v])
			}
		}
	}
}

func TestPageRankViaIHTLEngine(t *testing.T) {
	g := mustRMAT(t, 10, 8, 33)
	want := referencePageRank(g, 15, 0.85)

	ih, err := core.Build(g, core.Params{HubsPerBlock: 64})
	if err != nil {
		t.Fatal(err)
	}
	e, err := core.NewEngine(ih, testPool)
	if err != nil {
		t.Fatal(err)
	}
	// Out-degrees in iHTL ID space.
	deg := make([]int, g.NumV)
	for nv := 0; nv < g.NumV; nv++ {
		deg[nv] = g.OutDegree(ih.OldID[nv])
	}
	res, err := RunPageRank(e, deg, testPool, PageRankOptions{MaxIters: 15, Tol: -1})
	if err != nil {
		t.Fatal(err)
	}
	back := make([]float64, g.NumV)
	ih.PermuteToOld(res.Ranks, back)
	for v := range want {
		if math.Abs(back[v]-want[v]) > 1e-10 {
			t.Fatalf("ihtl rank[%d] = %g, want %g", v, back[v], want[v])
		}
	}
}

func TestPageRankConvergence(t *testing.T) {
	g := mustRMAT(t, 8, 8, 5)
	e, _ := spmv.NewEngine(g, testPool, spmv.Pull, spmv.Options{})
	res, err := RunPageRank(e, outDegrees(g), testPool, PageRankOptions{MaxIters: 500, Tol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iters >= 500 {
		t.Fatalf("did not converge in %d iters (delta %g)", res.Iters, res.Delta)
	}
	if res.Delta >= 1e-12 {
		t.Fatalf("final delta %g above tolerance", res.Delta)
	}
}

func TestPageRankDanglingRedistribution(t *testing.T) {
	// Star: leaves have out-degree 1, hub 0 — the hub is dangling.
	g := graph.Star(50)
	e, _ := spmv.NewEngine(g, testPool, spmv.Pull, spmv.Options{})
	with, err := RunPageRank(e, outDegrees(g), testPool,
		PageRankOptions{MaxIters: 50, RedistributeDangling: true})
	if err != nil {
		t.Fatal(err)
	}
	if s := rankMass(with.Ranks); math.Abs(s-1) > 1e-6 {
		t.Fatalf("redistributed mass = %g, want ~1", s)
	}
	without, err := RunPageRank(e, outDegrees(g), testPool, PageRankOptions{MaxIters: 50})
	if err != nil {
		t.Fatal(err)
	}
	if s := rankMass(without.Ranks); s >= 1 {
		t.Fatalf("paper formula should leak dangling mass, sum = %g", s)
	}
}

// rankMass returns the total rank mass.
func rankMass(ranks []float64) (s float64) {
	for _, r := range ranks {
		s += r
	}
	return s
}

func TestPageRankErrors(t *testing.T) {
	g := graph.Star(5)
	e, _ := spmv.NewEngine(g, testPool, spmv.Pull, spmv.Options{})
	if _, err := RunPageRank(e, make([]int, 3), testPool, PageRankOptions{}); err == nil {
		t.Fatal("short outDeg accepted")
	}
}

func TestPageRankNilPool(t *testing.T) {
	g := graph.Cycle(20)
	e, _ := spmv.NewEngine(g, testPool, spmv.Pull, spmv.Options{})
	res, err := RunPageRank(e, outDegrees(g), nil, PageRankOptions{MaxIters: 5, Tol: -1})
	if err != nil {
		t.Fatal(err)
	}
	// On a cycle every vertex has identical rank.
	for v := 1; v < 20; v++ {
		if math.Abs(res.Ranks[v]-res.Ranks[0]) > 1e-15 {
			t.Fatal("cycle ranks not uniform")
		}
	}
}

func TestHITSOnBipartiteHubAuthority(t *testing.T) {
	// Sources 1..9 all point at authority 0; a separate strong hub 10
	// points at everything. Authority 0 must dominate authority
	// scores; vertex 10 must dominate hub scores.
	var edges []graph.Edge
	for v := 1; v <= 9; v++ {
		edges = append(edges, graph.Edge{Src: graph.VID(v), Dst: 0})
	}
	for v := 0; v <= 9; v++ {
		edges = append(edges, graph.Edge{Src: 10, Dst: graph.VID(v)})
	}
	g := graph.MustFromEdges(11, edges)
	fwd, _ := spmv.NewEngine(g, testPool, spmv.Pull, spmv.Options{})
	rev, _ := spmv.NewEngine(g.Transpose(), testPool, spmv.Pull, spmv.Options{})
	res, err := RunHITS(fwd, rev, HITSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for v := 1; v < 11; v++ {
		if res.Authority[v] > res.Authority[0] {
			t.Fatalf("authority[%d]=%g exceeds authority[0]=%g", v, res.Authority[v], res.Authority[0])
		}
	}
	for v := 0; v < 10; v++ {
		if res.Hub[v] > res.Hub[10] {
			t.Fatalf("hub[%d]=%g exceeds hub[10]=%g", v, res.Hub[v], res.Hub[10])
		}
	}
}

func TestHITSErrors(t *testing.T) {
	a, _ := spmv.NewEngine(graph.Star(4), testPool, spmv.Pull, spmv.Options{})
	b, _ := spmv.NewEngine(graph.Star(9), testPool, spmv.Pull, spmv.Options{})
	if _, err := RunHITS(a, b, HITSOptions{}); err == nil {
		t.Fatal("mismatched engines accepted")
	}
}

func referenceBFS(g *graph.Graph, src graph.VID) []int64 {
	dist := make([]int64, g.NumV)
	for v := range dist {
		dist[v] = InfDist
	}
	dist[src] = 0
	queue := []graph.VID{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, u := range g.Out(v) {
			if dist[u] == InfDist {
				dist[u] = dist[v] + 1
				queue = append(queue, u)
			}
		}
	}
	return dist
}

func TestBFSMatchesReference(t *testing.T) {
	graphs := []*graph.Graph{
		graph.Path(50),
		graph.Cycle(30),
		mustRMAT(t, 10, 8, 44), // dense enough to trigger bottom-up
	}
	for _, g := range graphs {
		want := referenceBFS(g, 0)
		got := BFS(g, testPool, 0)
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("dist[%d] = %d, want %d", v, got[v], want[v])
			}
		}
	}
}

func TestConnectedComponents(t *testing.T) {
	// Two disjoint cycles.
	var edges []graph.Edge
	for i := 0; i < 10; i++ {
		edges = append(edges, graph.Edge{Src: graph.VID(i), Dst: graph.VID((i + 1) % 10)})
	}
	for i := 10; i < 25; i++ {
		next := i + 1
		if next == 25 {
			next = 10
		}
		edges = append(edges, graph.Edge{Src: graph.VID(i), Dst: graph.VID(next)})
	}
	g := graph.MustFromEdges(25, edges)
	cc := ConnectedComponents(g, testPool)
	for v := 0; v < 10; v++ {
		if cc[v] != 0 {
			t.Fatalf("cc[%d] = %d, want 0", v, cc[v])
		}
	}
	for v := 10; v < 25; v++ {
		if cc[v] != 10 {
			t.Fatalf("cc[%d] = %d, want 10", v, cc[v])
		}
	}
}

func TestConnectedComponentsSingleComponent(t *testing.T) {
	g := mustRMAT(t, 9, 16, 3)
	cc := ConnectedComponents(g, testPool)
	labels := map[graph.VID]int{}
	for _, l := range cc {
		labels[l]++
	}
	// A dense RMAT graph should be dominated by one giant component.
	counts := make([]int, 0, len(labels))
	for _, c := range labels {
		counts = append(counts, c)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(counts)))
	if counts[0] < g.NumV/2 {
		t.Fatalf("giant component only %d of %d", counts[0], g.NumV)
	}
}

func referenceSSSP(g *graph.Graph, src graph.VID) []int64 {
	dist := make([]int64, g.NumV)
	for v := range dist {
		dist[v] = InfDist
	}
	dist[src] = 0
	for round := 0; round < g.NumV; round++ {
		changed := false
		for v := 0; v < g.NumV; v++ {
			if dist[v] == InfDist {
				continue
			}
			for _, u := range g.Out(graph.VID(v)) {
				if nd := dist[v] + EdgeWeight(graph.VID(v), u); nd < dist[u] {
					dist[u] = nd
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
	return dist
}

func TestSSSPMatchesReference(t *testing.T) {
	g := mustRMAT(t, 8, 8, 55)
	want := referenceSSSP(g, 0)
	got := SSSP(g, testPool, 0)
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("sssp[%d] = %d, want %d", v, got[v], want[v])
		}
	}
}

func TestEdgeWeightDeterministicPositive(t *testing.T) {
	for u := graph.VID(0); u < 100; u++ {
		w1 := EdgeWeight(u, u+1)
		w2 := EdgeWeight(u, u+1)
		if w1 != w2 || w1 < 1 || w1 > 256 {
			t.Fatalf("EdgeWeight(%d,%d) = %d,%d", u, u+1, w1, w2)
		}
	}
}

// referenceTriangles counts triangles of the undirected simple view
// by brute force over vertex triples' adjacency.
func referenceTriangles(g *graph.Graph) int64 {
	n := g.NumV
	adj := make([]map[graph.VID]bool, n)
	for v := 0; v < n; v++ {
		adj[v] = map[graph.VID]bool{}
	}
	for v := 0; v < n; v++ {
		for _, u := range g.Out(graph.VID(v)) {
			if int(u) != v {
				adj[v][u] = true
				adj[u][graph.VID(v)] = true
			}
		}
	}
	var count int64
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			if !adj[a][graph.VID(b)] {
				continue
			}
			for c := b + 1; c < n; c++ {
				if adj[a][graph.VID(c)] && adj[b][graph.VID(c)] {
					count++
				}
			}
		}
	}
	return count
}

func TestTriangleCountKnownGraphs(t *testing.T) {
	// Directed triangle: exactly one undirected triangle.
	tri := graph.MustFromEdges(3, []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 0}})
	if got := TriangleCount(tri, testPool); got != 1 {
		t.Fatalf("triangle: got %d, want 1", got)
	}
	// K5 has C(5,3) = 10 triangles.
	if got := TriangleCount(graph.Complete(5), testPool); got != 10 {
		t.Fatalf("K5: got %d, want 10", got)
	}
	// A star and a path have none.
	if got := TriangleCount(graph.Star(20), testPool); got != 0 {
		t.Fatalf("star: got %d, want 0", got)
	}
	if got := TriangleCount(graph.Path(20), testPool); got != 0 {
		t.Fatalf("path: got %d, want 0", got)
	}
	// Reciprocal pair is not a triangle.
	pair := graph.MustFromEdges(2, []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 0}})
	if got := TriangleCount(pair, testPool); got != 0 {
		t.Fatalf("pair: got %d, want 0", got)
	}
}

func TestTriangleCountMatchesReference(t *testing.T) {
	g := mustRMAT(t, 8, 6, 77)
	want := referenceTriangles(g)
	got := TriangleCount(g, testPool)
	if got != want {
		t.Fatalf("triangles: got %d, want %d", got, want)
	}
	if want == 0 {
		t.Fatal("test graph has no triangles; pick a denser seed")
	}
}

func TestTriangleCountEmpty(t *testing.T) {
	g, err := graph.Build(0, nil, graph.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := TriangleCount(g, testPool); got != 0 {
		t.Fatalf("empty: got %d", got)
	}
}

// referenceCoreNumbers peels iteratively: remove all vertices of
// degree <= k for increasing k, recording the level at which each
// vertex drops.
func referenceCoreNumbers(g *graph.Graph) []int {
	n := g.NumV
	deg := make([]int, n)
	for v := 0; v < n; v++ {
		deg[v] = g.Degree(graph.VID(v))
	}
	alive := make([]bool, n)
	for v := range alive {
		alive[v] = true
	}
	core := make([]int, n)
	remaining := n
	for k := 0; remaining > 0; k++ {
		for {
			removed := false
			for v := 0; v < n; v++ {
				if alive[v] && deg[v] <= k {
					alive[v] = false
					core[v] = k
					remaining--
					removed = true
					dec := func(u graph.VID) {
						if alive[u] {
							deg[u]--
						}
					}
					for _, u := range g.Out(graph.VID(v)) {
						dec(u)
					}
					for _, u := range g.In(graph.VID(v)) {
						dec(u)
					}
				}
			}
			if !removed {
				break
			}
		}
	}
	return core
}

func TestCoreNumbersKnownGraphs(t *testing.T) {
	// K5 (directed both ways): every vertex has degree 8, core 8.
	k5 := graph.Complete(5)
	for v, c := range CoreNumbers(k5) {
		if c != 8 {
			t.Fatalf("K5 core[%d] = %d, want 8", v, c)
		}
	}
	// Star: leaves have degree 1, hub degree n-1; peeling leaves
	// first gives everyone core 1.
	star := graph.Star(10)
	cores := CoreNumbers(star)
	for v, c := range cores {
		if c != 1 {
			t.Fatalf("star core[%d] = %d, want 1", v, c)
		}
	}
	if CoreNumbers(mustEmpty(t)) != nil {
		t.Fatal("empty graph should give nil")
	}
}

func mustEmpty(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := graph.Build(0, nil, graph.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestCoreNumbersMatchesReference(t *testing.T) {
	g := mustRMAT(t, 8, 6, 91)
	want := referenceCoreNumbers(g)
	got := CoreNumbers(g)
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("core[%d] = %d, want %d", v, got[v], want[v])
		}
	}
	k, v := MaxCore(got)
	if k <= 0 || got[v] != k {
		t.Fatalf("MaxCore = (%d,%d)", k, v)
	}
}

func TestCoreNumbersHubsInDeepCores(t *testing.T) {
	g := mustRMAT(t, 10, 12, 92)
	cores := CoreNumbers(g)
	// The max-in-degree hub should sit well above the median core.
	_, hub := g.MaxInDegree()
	all := append([]int(nil), cores...)
	sort.Ints(all)
	median := all[len(all)/2]
	if cores[hub] <= median {
		t.Fatalf("hub core %d not above median %d", cores[hub], median)
	}
}
