package core

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
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

// oracleRelabel is the relabeling of §3.2 (Figure 4) written from the
// definitions, sharing no code with relabel: the hubs are the first
// ih.NumHubs vertices of a comparison-sorted in-degree ranking, in rank
// order; the VWEH are the other vertices with an out-edge into a hub,
// found by walking the hubs' in-lists; the FV are the rest. Each class
// is ordered by ascending original ID, or by the ablation's key. It
// returns OldID and the VWEH count.
func oracleRelabel(g *graph.Graph, numHubs int, p Params) (oldID []graph.VID, numVWEH int) {
	ranked := make([]graph.VID, g.NumV)
	for v := range ranked {
		ranked[v] = graph.VID(v)
	}
	sort.SliceStable(ranked, func(i, j int) bool { return g.InDegree(ranked[i]) > g.InDegree(ranked[j]) })
	hub := make(map[graph.VID]bool, numHubs)
	for _, h := range ranked[:numHubs] {
		hub[h] = true
	}
	reachesHub := make(map[graph.VID]bool)
	for _, h := range ranked[:numHubs] {
		for _, s := range g.In(h) {
			reachesHub[s] = true
		}
	}
	var vweh, fv []graph.VID
	for v := 0; v < g.NumV; v++ {
		switch u := graph.VID(v); {
		case hub[u]:
		case reachesHub[u]:
			vweh = append(vweh, u)
		default:
			fv = append(fv, u)
		}
	}
	for _, class := range [][]graph.VID{vweh, fv} {
		switch {
		case p.DegreeSortClasses:
			sort.SliceStable(class, func(i, j int) bool { return g.Degree(class[i]) > g.Degree(class[j]) })
		case p.SparseOrder != nil:
			pos := p.SparseOrder.Permutation(g)
			sort.Slice(class, func(i, j int) bool { return pos[class[i]] < pos[class[j]] })
		}
	}
	oldID = append(append(append([]graph.VID{}, ranked[:numHubs]...), vweh...), fv...)
	return oldID, len(vweh)
}

// requireRelabelMatchesOracle holds ih's class counts, OldID and NewID
// to oracleRelabel.
func requireRelabelMatchesOracle(t *testing.T, label string, g *graph.Graph, ih *IHTL, p Params) {
	t.Helper()
	oldID, numVWEH := oracleRelabel(g, ih.NumHubs, p)
	if ih.NumVWEH != numVWEH || ih.NumFV != g.NumV-ih.NumHubs-numVWEH {
		t.Fatalf("%s: VWEH/FV = %d/%d, reference %d/%d", label, ih.NumVWEH, ih.NumFV, numVWEH, g.NumV-ih.NumHubs-numVWEH)
	}
	if !slices.Equal(ih.OldID, oldID) {
		t.Fatalf("%s: OldID deviates from the class-by-class reference", label)
	}
	for n, v := range oldID {
		if ih.NewID[v] != graph.VID(n) {
			t.Fatalf("%s: NewID[%d] = %d, want %d", label, v, ih.NewID[v], n)
		}
	}
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

// TestBuildBlocksMatchSortOracle compares the relabeling of
// Build/BuildWith with the class-by-class reference and every block
// array with the fill-then-sort reference, over every graph shape,
// parameter variant (multi-block, the fast select and both ablation
// orderings included) and worker count, and checks every sparse row
// against the smallest hub's in-degree.
func TestBuildBlocksMatchSortOracle(t *testing.T) {
	variants := map[string]Params{
		"default":     {HubsPerBlock: 256},
		"multiblock":  {HubsPerBlock: 4, FVThreshold: 0.01, MaxBlocks: 32},
		"fastselect":  {HubsPerBlock: 4, FVThreshold: 0.01, MaxBlocks: 32, FastSelect: true},
		"degreesort":  {HubsPerBlock: 64, DegreeSortClasses: true},
		"sparseorder": {HubsPerBlock: 64, SparseOrder: stubOrderer{}},
		// No vertex reaches the hub floor, so every edge is sparse, and
		// the degree sort relabels: rows arrive unsorted and the
		// multigraph's in-hubs give rows past insertionSortMax.
		"nohub-degreesort": {HubsPerBlock: 64, DegreeSortClasses: true, MinHubDegree: 1 << 30},
	}
	longRows := 0
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
				requireRelabelMatchesOracle(t, label, g, ih, p)
				requireBlocksMatchOracle(t, label, g, ih)
				if vname == "nohub-degreesort" {
					if ih.NumHubs != 0 {
						t.Fatalf("%s: %d hubs above the floor", label, ih.NumHubs)
					}
					idx := ih.Sparse.Index
					for r := 0; r < len(idx)-1; r++ {
						if idx[r+1]-idx[r] > insertionSortMax {
							longRows++
						}
					}
				}
			}
		}
	}
	if longRows == 0 {
		t.Fatal("no relabelled sparse row outgrew the insertion sort: the long-row arm never ran")
	}
}

// selectHubsRef is the serial §3.3 admission the pooled selectHubs
// replaced: per block, mark each distinct in-neighbour of the block's
// hubs in a shared bool array, remembering the marked ones to clear.
func selectHubsRef(g *graph.Graph, ranked []graph.VID, p Params) (numHubs, blocks, minDeg int) {
	b := p.HubsPerBlock
	seen := make([]bool, g.NumV)
	var fv1 int
	for blk := 0; blk < p.MaxBlocks; blk++ {
		lo := blk * b
		if lo >= g.NumV {
			break
		}
		hi := min(lo+b, g.NumV)
		if g.InDegree(ranked[lo]) < p.MinHubDegree {
			break
		}
		sources := 0
		var marked []graph.VID
		for i := lo; i < hi; i++ {
			if g.InDegree(ranked[i]) < p.MinHubDegree {
				continue
			}
			for _, s := range g.In(ranked[i]) {
				if !seen[s] {
					seen[s] = true
					marked = append(marked, s)
					sources++
				}
			}
		}
		for _, s := range marked {
			seen[s] = false
		}
		if blk == 0 {
			if sources == 0 {
				break
			}
			fv1 = sources
		} else if float64(sources) <= p.FVThreshold*float64(fv1) {
			break
		}
		for hi > lo && g.InDegree(ranked[hi-1]) < p.MinHubDegree {
			hi--
		}
		numHubs = hi
		blocks++
		if hi >= g.NumV {
			break
		}
	}
	if numHubs > 0 {
		minDeg = g.InDegree(ranked[numHubs-1])
	}
	return numHubs, blocks, minDeg
}

// TestSelectHubsMatchesSerialReference holds the pooled §3.3 count to
// the serial reference at every worker count, over parameter sets that
// between them admit several blocks and stop on each rule: the
// FVThreshold stop, the MaxBlocks cap, the degree floor with a trimmed
// last block, and running out of vertices.
func TestSelectHubsMatchesSerialReference(t *testing.T) {
	params := map[string]Params{
		"threshold": {HubsPerBlock: 8, FVThreshold: 0.2, MaxBlocks: 64},
		"cap":       {HubsPerBlock: 4, FVThreshold: 0.001, MaxBlocks: 3},
		"trim":      {HubsPerBlock: 16, FVThreshold: 0.001, MaxBlocks: 64, MinHubDegree: 12},
		"exhaust":   {HubsPerBlock: 64, FVThreshold: 0.001, MaxBlocks: 64, MinHubDegree: 1},
		"default":   {HubsPerBlock: 256},
	}
	stops := map[string]bool{}
	for gname, g := range oracleGraphs(t) {
		if g.NumV == 0 {
			continue
		}
		ranked := rankByInDegree(g, testPool, make([]buildClock, testPool.Workers()))
		for pname, p := range params {
			rp := p.withDefaults()
			wantHubs, wantBlocks, wantMin := selectHubsRef(g, ranked, rp)
			if wantBlocks >= 2 {
				stops["multiblock"] = true
			}
			switch {
			case wantBlocks == rp.MaxBlocks:
				stops["cap"] = true
			case wantHubs == g.NumV:
				stops["exhaust"] = true
			case wantBlocks > 0 && wantHubs < wantBlocks*rp.HubsPerBlock:
				stops["trim"] = true
			case wantBlocks > 0 && g.InDegree(ranked[wantHubs]) >= rp.MinHubDegree:
				stops["threshold"] = true
			}
			for _, w := range []int{1, 2, 3, 6} {
				pool := sched.NewPool(w)
				hubs, blocks, minDeg := selectHubs(g, ranked, rp, pool)
				pool.Close()
				if hubs != wantHubs || blocks != wantBlocks || minDeg != wantMin {
					t.Fatalf("%s/%s/w%d: (hubs, blocks, minDeg) = (%d, %d, %d), want (%d, %d, %d)",
						gname, pname, w, hubs, blocks, minDeg, wantHubs, wantBlocks, wantMin)
				}
			}
		}
	}
	for _, stop := range []string{"multiblock", "threshold", "cap", "trim", "exhaust"} {
		if !stops[stop] {
			t.Errorf("no case covered %s", stop)
		}
	}
}

// TestBlockTaskBoundsMatchEdgeScan holds each task's hub destination
// range, taken from its rows' first and last entries, to a scan of
// every edge of the task, on every oracle build and several task
// counts.
func TestBlockTaskBoundsMatchEdgeScan(t *testing.T) {
	for gname, g := range oracleGraphs(t) {
		for vname, p := range map[string]Params{
			"default":    {HubsPerBlock: 256},
			"multiblock": {HubsPerBlock: 4, FVThreshold: 0.01, MaxBlocks: 32},
		} {
			ih, err := BuildWith(g, p, testPool)
			if err != nil {
				t.Fatal(err)
			}
			for _, chunks := range []int{1, 4, 7} {
				tasks, _, _ := buildBlockTasks(ih, chunks)
				for _, bt := range tasks {
					fb := &ih.Blocks[bt.block]
					dLo, dHi := 0, 0
					for i := fb.Index[bt.lo]; i < fb.Index[bt.hi]; i++ {
						d := int(fb.Dsts[i])
						if dHi == dLo {
							dLo, dHi = d, d+1
							continue
						}
						dLo, dHi = min(dLo, d), max(dHi, d+1)
					}
					if bt.dLo != dLo || bt.dHi != dHi {
						t.Fatalf("%s/%s/chunks=%d: block %d task [%d, %d) bounds [%d, %d), edge scan [%d, %d)",
							gname, vname, chunks, bt.block, bt.lo, bt.hi, bt.dLo, bt.dHi, dLo, dHi)
					}
				}
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
