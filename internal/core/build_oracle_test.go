package core

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"ihtl/internal/gen"
	"ihtl/internal/graph"
	"ihtl/internal/sched"
	"ihtl/internal/xrand"
)

// oracleBlocks rebuilds the flipped blocks and the sparse block of ih
// the way the build did before it was sort-free — fill every row in
// the order the original adjacency lists it, then comparison-sort the
// row — from ih's relabeling alone. It shares no code with the build.
func oracleBlocks(g *graph.Graph, ih *IHTL) (blocks []FlippedBlock, sparse SparseBlock) {
	nsrc := ih.NumPushSources()
	blocks = make([]FlippedBlock, len(ih.Blocks))
	for b := range blocks {
		blocks[b].Index = make([]int64, nsrc+1)
	}
	for s := 0; s < nsrc; s++ {
		rows := make([][]graph.VID, len(blocks))
		for _, d := range g.Out(ih.OldID[s]) {
			if nd := int(ih.NewID[d]); nd < ih.NumHubs {
				rows[nd/ih.HubsPerBlock] = append(rows[nd/ih.HubsPerBlock], graph.VID(nd))
			}
		}
		for b, row := range rows {
			slices.Sort(row)
			blocks[b].Dsts = append(blocks[b].Dsts, row...)
			blocks[b].Index[s+1] = int64(len(blocks[b].Dsts))
			if len(row) > 0 {
				blocks[b].Sources++
			}
		}
	}
	sparse.Index = []int64{0}
	for nv := ih.NumHubs; nv < ih.NumV; nv++ {
		var row []graph.VID
		for _, s := range g.In(ih.OldID[nv]) {
			row = append(row, ih.NewID[s])
		}
		slices.Sort(row)
		sparse.Srcs = append(sparse.Srcs, row...)
		sparse.Index = append(sparse.Index, int64(len(sparse.Srcs)))
	}
	return blocks, sparse
}

func requireBlocksMatchOracle(t *testing.T, label string, g *graph.Graph, ih *IHTL) {
	t.Helper()
	blocks, sparse := oracleBlocks(g, ih)
	for b := range blocks {
		got, want := &ih.Blocks[b], &blocks[b]
		if !slices.Equal(got.Index, want.Index) || !slices.Equal(got.Dsts, want.Dsts) || got.Sources != want.Sources {
			t.Fatalf("%s: flipped block %d deviates from the fill-then-sort reference", label, b)
		}
	}
	if !slices.Equal(ih.Sparse.Index, sparse.Index) || !slices.Equal(ih.Sparse.Srcs, sparse.Srcs) {
		t.Fatalf("%s: sparse block deviates from the fill-then-sort reference", label)
	}
	requireSparseRowsWithinHubDegree(t, label, ih)
}

// requireSparseRowsWithinHubDegree pins what the one uniform sparse
// schedule rests on: the hubs are a prefix of the descending in-degree
// ranking, so on a graph that selected any hub no sparse row holds more
// edges than the smallest hub's in-degree — there is no mega-row for a
// degree-aware schedule to spread over the workers (DESIGN.md §12).
func requireSparseRowsWithinHubDegree(t *testing.T, label string, ih *IHTL) {
	t.Helper()
	if ih.NumHubs == 0 {
		return
	}
	idx := ih.Sparse.Index
	for r := 0; r < len(idx)-1; r++ {
		if d := idx[r+1] - idx[r]; d > int64(ih.MinHubDegree) {
			t.Fatalf("%s: sparse row %d holds %d edges, more than the smallest hub's in-degree %d", label, r, d, ih.MinHubDegree)
		}
	}
}

// oracleGraphs are the build inputs of the block oracle: the shapes of
// the determinism suite plus the ones an ordering argument trips on —
// adjacency with duplicates and self-loops (built without dedup), a
// star whose one hub holds every edge, a graph with no hub at all, and
// the degenerate vertex counts.
func oracleGraphs(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	graphs := buildTestGraphs(t)
	build := func(name string, numV int, edges []graph.Edge, opt graph.BuildOptions) {
		g, err := graph.Build(numV, edges, opt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		graphs[name] = g
	}
	rng := xrand.New(23)
	var multi, star, ring []graph.Edge
	for i := 0; i < 6000; i++ {
		e := graph.Edge{Src: graph.VID(rng.Uint64n(400)), Dst: graph.VID(rng.Uint64n(400))}
		if i%3 == 0 {
			e.Dst = graph.VID(rng.Uint64n(12)) // in-hubs
		}
		multi = append(multi, e)
		if i%5 == 0 {
			multi = append(multi, e, graph.Edge{Src: e.Src, Dst: e.Src})
		}
	}
	for v := 1; v < 300; v++ {
		star = append(star, graph.Edge{Src: graph.VID(v), Dst: 0})
		ring = append(ring, graph.Edge{Src: graph.VID(v), Dst: graph.VID(v%299 + 1)})
	}
	build("multigraph", 400, multi, graph.BuildOptions{})
	build("star", 300, star, graph.DefaultBuildOptions())
	build("no-hubs", 300, ring, graph.DefaultBuildOptions())
	build("no-vertices", 0, nil, graph.BuildOptions{})
	build("one-vertex", 1, []graph.Edge{{Src: 0, Dst: 0}}, graph.BuildOptions{})
	return graphs
}

// TestBuildBlocksMatchSortOracle compares every block array of
// Build/BuildWith with the fill-then-sort reference, over every graph
// shape, parameter variant (multi-block, the fast select and both
// ablation orderings included) and worker count, and checks every
// sparse row against the smallest hub's in-degree.
func TestBuildBlocksMatchSortOracle(t *testing.T) {
	variants := map[string]Params{
		"default":     {HubsPerBlock: 256},
		"multiblock":  {HubsPerBlock: 4, FVThreshold: 0.01, MaxBlocks: 32},
		"fastselect":  {HubsPerBlock: 4, FVThreshold: 0.01, MaxBlocks: 32, FastSelect: true},
		"degreesort":  {HubsPerBlock: 64, DegreeSortClasses: true},
		"sparseorder": {HubsPerBlock: 64, SparseOrder: stubOrderer{}},
	}
	for gname, g := range oracleGraphs(t) {
		for vname, p := range variants {
			for _, w := range []int{0, 1, 2, 3, runtime.GOMAXPROCS(0), 6} {
				label := fmt.Sprintf("%s/%s/w%d", gname, vname, w)
				var pool *sched.Pool
				if w > 0 {
					pool = sched.NewPool(w)
				}
				ih, err := BuildWith(g, p, pool)
				if pool != nil {
					pool.Close()
				}
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				requireBlocksMatchOracle(t, label, g, ih)
			}
		}
	}
}

// TestBuildBlocksOracleAtScale runs the same comparison once on a
// graph large enough for every part of every pass to hold real work.
func TestBuildBlocksOracleAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	g, err := gen.RMAT(gen.DefaultRMAT(13, 12, 5))
	if err != nil {
		t.Fatal(err)
	}
	for _, fast := range []bool{false, true} {
		ih, err := BuildWith(g, Params{HubsPerBlock: 128, FVThreshold: 0.05, FastSelect: fast}, testPool)
		if err != nil {
			t.Fatal(err)
		}
		requireBlocksMatchOracle(t, fmt.Sprintf("rmat13 fast=%v", fast), g, ih)
	}
}
