package order

import (
	"sort"
	"testing"

	"ihtl/internal/gen"
	"ihtl/internal/graph"
)

func checkPermutation(t *testing.T, name string, g *graph.Graph, perm []graph.VID) {
	t.Helper()
	if len(perm) != g.NumV {
		t.Fatalf("%s: permutation length %d, want %d", name, len(perm), g.NumV)
	}
	seen := make([]bool, g.NumV)
	for v, id := range perm {
		if int(id) >= g.NumV {
			t.Fatalf("%s: perm[%d]=%d out of range", name, v, id)
		}
		if seen[id] {
			t.Fatalf("%s: duplicate id %d", name, id)
		}
		seen[id] = true
	}
	// The relabeled graph must be valid and structurally identical.
	ng, err := graph.Relabel(g, perm)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if err := ng.Validate(); err != nil {
		t.Fatalf("%s: relabeled graph invalid: %v", name, err)
	}
}

func allAlgorithms() []Algorithm {
	return []Algorithm{
		DegreeSort{},
		DegreeSort{Kind: 1},
		SlashBurn{},
		SlashBurn{K: 3},
		GOrder{},
		GOrder{W: 2},
		RabbitOrder{},
	}
}

func testGraphs(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	rmat, err := gen.RMAT(gen.DefaultRMAT(9, 8, 17))
	if err != nil {
		t.Fatal(err)
	}
	web, err := gen.Web(gen.DefaultWeb(2000, 7))
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*graph.Graph{
		"paper": graph.PaperExample(),
		"star":  graph.Star(50),
		"cycle": graph.Cycle(40),
		"rmat":  rmat,
		"web":   web,
	}
}

func TestAllAlgorithmsProduceValidPermutations(t *testing.T) {
	for gname, g := range testGraphs(t) {
		for _, alg := range allAlgorithms() {
			perm := alg.Permutation(g)
			checkPermutation(t, gname+"/"+alg.Name(), g, perm)
		}
	}
}

func TestAlgorithmsOnEmptyAndTiny(t *testing.T) {
	empty, err := graph.Build(0, nil, graph.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	single := graph.MustFromEdges(2, []graph.Edge{{Src: 0, Dst: 1}})
	for _, alg := range allAlgorithms() {
		if p := alg.Permutation(empty); len(p) != 0 {
			t.Errorf("%s: empty graph gave %d ids", alg.Name(), len(p))
		}
		checkPermutation(t, alg.Name()+"/single", single, alg.Permutation(single))
	}
}

func TestDegreeSortOrdersHubsFirst(t *testing.T) {
	g := graph.PaperExample()
	perm := DegreeSort{}.Permutation(g)
	// In-degree ranking: v2 (5), v6 (4) must get ids 0 and 1.
	if perm[2] != 0 || perm[6] != 1 {
		t.Fatalf("degree sort ids: perm[2]=%d perm[6]=%d", perm[2], perm[6])
	}
}

func TestSlashBurnHubsAtFront(t *testing.T) {
	// Star: the hub must get the first id once slashed.
	g := graph.Star(100)
	perm := SlashBurn{K: 1}.Permutation(g)
	if perm[0] != 0 {
		t.Fatalf("star hub got id %d, want 0", perm[0])
	}
	// After removing the hub all leaves are singleton components and
	// must be placed from the back.
	for v := 1; v < 100; v++ {
		if perm[v] == 0 {
			t.Fatalf("leaf %d got the hub slot", v)
		}
	}
}

func TestSlashBurnClustersHubs(t *testing.T) {
	g, err := gen.RMAT(gen.DefaultRMAT(10, 8, 21))
	if err != nil {
		t.Fatal(err)
	}
	perm := SlashBurn{}.Permutation(g)
	// The vertex with the max total degree must land in the first
	// slash batch (first ~0.5% of ids).
	maxV, maxD := 0, -1
	for v := 0; v < g.NumV; v++ {
		if d := g.Degree(graph.VID(v)); d > maxD {
			maxV, maxD = v, d
		}
	}
	k := g.NumV / 200
	if k < 1 {
		k = 1
	}
	if int(perm[maxV]) >= k {
		t.Fatalf("top hub got id %d, outside first slash of %d", perm[maxV], k)
	}
}

func TestGOrderPlacesNeighboursNearby(t *testing.T) {
	// Two 5-cliques joined by one edge: GOrder must keep each clique
	// contiguous-ish. We check that the mean |perm gap| over edges is
	// far below the random expectation (~n/3).
	var edges []graph.Edge
	clique := func(lo int) {
		for i := 0; i < 5; i++ {
			for j := 0; j < 5; j++ {
				if i != j {
					edges = append(edges, graph.Edge{Src: graph.VID(lo + i), Dst: graph.VID(lo + j)})
				}
			}
		}
	}
	clique(0)
	clique(5)
	edges = append(edges, graph.Edge{Src: 0, Dst: 5})
	g := graph.MustFromEdges(10, edges)
	perm := GOrder{}.Permutation(g)
	checkPermutation(t, "gorder/cliques", g, perm)
	var gapSum, cnt float64
	for v := 0; v < g.NumV; v++ {
		for _, u := range g.Out(graph.VID(v)) {
			d := int(perm[v]) - int(perm[u])
			if d < 0 {
				d = -d
			}
			gapSum += float64(d)
			cnt++
		}
	}
	if mean := gapSum / cnt; mean > 3.5 {
		t.Fatalf("gorder mean edge gap %.2f too large for clique pair", mean)
	}
}

func TestRabbitOrderGroupsCommunities(t *testing.T) {
	// Two dense communities with a single bridge: after Rabbit-Order
	// each community's ids must be contiguous (two blocks).
	var edges []graph.Edge
	dense := func(lo, n int) {
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				edges = append(edges,
					graph.Edge{Src: graph.VID(lo + i), Dst: graph.VID(lo + j)},
					graph.Edge{Src: graph.VID(lo + j), Dst: graph.VID(lo + i)})
			}
		}
	}
	dense(0, 8)
	dense(8, 8)
	edges = append(edges, graph.Edge{Src: 0, Dst: 8})
	g := graph.MustFromEdges(16, edges)
	perm := RabbitOrder{}.Permutation(g)
	checkPermutation(t, "rabbit/communities", g, perm)
	// Community A = vertices 0..7. Its new ids must form one block.
	minA, maxA := 1<<30, -1
	for v := 0; v < 8; v++ {
		id := int(perm[v])
		if id < minA {
			minA = id
		}
		if id > maxA {
			maxA = id
		}
	}
	if maxA-minA != 7 {
		t.Fatalf("community A ids span [%d,%d], not contiguous", minA, maxA)
	}
}

func TestRabbitOrderDeterministic(t *testing.T) {
	g, err := gen.RMAT(gen.DefaultRMAT(8, 8, 2))
	if err != nil {
		t.Fatal(err)
	}
	a := RabbitOrder{}.Permutation(g)
	b := RabbitOrder{}.Permutation(g)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("rabbit order not deterministic")
		}
	}
}

func TestNames(t *testing.T) {
	for _, alg := range allAlgorithms() {
		if alg.Name() == "" {
			t.Error("empty algorithm name")
		}
	}
}

func TestHubSortStructure(t *testing.T) {
	g := graph.PaperExample()
	perm := HubSort{}.Permutation(g)
	checkPermutation(t, "hubsort/paper", g, perm)
	// Average in-degree = 14/8 = 1.75; hubs are vertices with
	// in-degree >= 1.75: v2(5), v4(2), v6(4) -> ranked 2,6,4.
	if perm[2] != 0 || perm[6] != 1 || perm[4] != 2 {
		t.Fatalf("hub ranks wrong: perm[2]=%d perm[6]=%d perm[4]=%d", perm[2], perm[6], perm[4])
	}
	// Non-hubs keep original relative order: 0,1,3,5,7 -> 3,4,5,6,7.
	wantRest := map[graph.VID]graph.VID{0: 3, 1: 4, 3: 5, 5: 6, 7: 7}
	for v, want := range wantRest {
		if perm[v] != want {
			t.Fatalf("non-hub %d got id %d, want %d", v, perm[v], want)
		}
	}
}

func TestHubSortOnRegistryGraphs(t *testing.T) {
	for gname, g := range testGraphs(t) {
		for _, hs := range []HubSort{{}, {Kind: 2, Threshold: 2}} {
			checkPermutation(t, gname+"/hubsort", g, hs.Permutation(g))
		}
	}
}

// partitionBounds returns the vertex boundaries of v's partitions in
// the VEBO-ordered ID space: partition i is [bounds[i], bounds[i+1]).
func partitionBounds(v VEBO, g *graph.Graph) []int {
	members := v.assign(g)
	bounds := make([]int, len(members)+1)
	for i, ms := range members {
		bounds[i+1] = bounds[i] + len(ms)
	}
	return bounds
}

func TestVEBOBalancesVerticesAndEdges(t *testing.T) {
	g, err := gen.RMAT(gen.DefaultRMAT(11, 12, 33))
	if err != nil {
		t.Fatal(err)
	}
	v := VEBO{P: 8}
	perm := v.Permutation(g)
	checkPermutation(t, "vebo/rmat", g, perm)

	bounds := partitionBounds(v, g)
	if len(bounds) != 9 || bounds[0] != 0 || bounds[8] != g.NumV {
		t.Fatalf("bounds %v", bounds)
	}
	rg, err := graph.Relabel(g, perm)
	if err != nil {
		t.Fatal(err)
	}
	capacity := (g.NumV + 7) / 8
	var minE, maxE int64 = 1 << 62, 0
	for i := 0; i < 8; i++ {
		vcount := bounds[i+1] - bounds[i]
		if vcount > capacity {
			t.Fatalf("partition %d has %d vertices, cap %d", i, vcount, capacity)
		}
		var e int64
		for nv := bounds[i]; nv < bounds[i+1]; nv++ {
			e += int64(rg.InDegree(graph.VID(nv)))
		}
		if e < minE {
			minE = e
		}
		if e > maxE {
			maxE = e
		}
	}
	// Edge balance: the greedy keeps the spread tight on power-law
	// inputs unless a single hub exceeds the mean (not the case at
	// this scale). Require max <= 1.5x min.
	if maxE > minE*3/2 {
		t.Fatalf("edge imbalance: min %d max %d", minE, maxE)
	}
}

func TestVEBOSmallAndDegenerate(t *testing.T) {
	for gname, g := range testGraphs(t) {
		for _, p := range []int{0, 1, 3, 1000} {
			perm := VEBO{P: p}.Permutation(g)
			checkPermutation(t, gname+"/vebo", g, perm)
		}
	}
	empty, _ := graph.Build(0, nil, graph.BuildOptions{})
	if len(VEBO{}.Permutation(empty)) != 0 {
		t.Fatal("empty graph should give empty permutation")
	}
	if b := partitionBounds(VEBO{}, empty); len(b) != 1 {
		t.Fatalf("empty bounds %v", b)
	}
}

func TestVEBOHubsSpread(t *testing.T) {
	// The defining property vs plain edge-balanced splitting: the top
	// P hubs land in P DIFFERENT partitions (each is placed before
	// any partition has two hubs, since hubs come first in degree
	// order and the heap rotates through empty partitions).
	g, err := gen.RMAT(gen.DefaultRMAT(10, 10, 44))
	if err != nil {
		t.Fatal(err)
	}
	const p = 4
	v := VEBO{P: p}
	perm := v.Permutation(g)
	bounds := partitionBounds(v, g)
	partOf := func(newID graph.VID) int {
		for i := 0; i < p; i++ {
			if int(newID) < bounds[i+1] {
				return i
			}
		}
		return -1
	}
	ids := make([]graph.VID, g.NumV)
	for i := range ids {
		ids[i] = graph.VID(i)
	}
	sort.Slice(ids, func(a, b int) bool {
		da, db := g.InDegree(ids[a]), g.InDegree(ids[b])
		if da != db {
			return da > db
		}
		return ids[a] < ids[b]
	})
	seen := map[int]bool{}
	for _, hub := range ids[:p] {
		seen[partOf(perm[hub])] = true
	}
	if len(seen) != p {
		t.Fatalf("top %d hubs occupy only %d partitions", p, len(seen))
	}
}
