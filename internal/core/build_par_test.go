package core

import (
	"runtime"
	"slices"
	"testing"

	"ihtl/internal/gen"
	"ihtl/internal/graph"
	"ihtl/internal/sched"
)

// buildWorkerCounts are the pool sizes the determinism suite sweeps:
// 0 for a nil pool (the build's private one-worker pool), one worker,
// an odd count, the machine default, and a count larger than this
// container's core count.
func buildWorkerCounts() []int {
	return []int{0, 1, 3, runtime.GOMAXPROCS(0), 6}
}

// buildPool returns a pool of w workers, nil for w == 0, and the func
// that closes it.
func buildPool(w int) (*sched.Pool, func()) {
	if w == 0 {
		return nil, func() {}
	}
	p := sched.NewPool(w)
	return p, p.Close
}

// buildTestGraphs returns the graphs the determinism tests run over:
// the paper's worked example, a social-network-like R-MAT and a
// web-like graph with extreme in-hubs.
func buildTestGraphs(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	rmat, err := gen.RMAT(gen.DefaultRMAT(10, 8, 3))
	if err != nil {
		t.Fatal(err)
	}
	web, err := gen.Web(gen.DefaultWeb(4000, 9))
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*graph.Graph{
		"paper": graph.PaperExample(),
		"rmat":  rmat,
		"web":   web,
	}
}

// TestRankByInDegreeMatchesReference checks the counting-sort ranking
// at every worker count against a comparison-sort reference with the
// §3.3 order: descending in-degree, ties by ascending original ID.
func TestRankByInDegreeMatchesReference(t *testing.T) {
	for name, g := range buildTestGraphs(t) {
		want := make([]graph.VID, g.NumV)
		for v := range want {
			want[v] = graph.VID(v)
		}
		slices.SortStableFunc(want, func(a, b graph.VID) int {
			return g.InDegree(b) - g.InDegree(a)
		})
		for _, w := range buildWorkerCounts() {
			if w == 0 {
				continue // BuildWithCtx turns a nil pool into a one-worker one
			}
			p := sched.NewPool(w)
			clk := make([]buildClock, p.Workers())
			got := rankByInDegree(g, p, clk)
			p.Close()
			if !slices.Equal(got, want) {
				t.Fatalf("%s/w%d: parallel ranking deviates from reference", name, w)
			}
		}
	}
}

// requireIHTLEqual compares every externally visible field of two
// iHTL builds: counts, relabeling arrays, each flipped block's index
// and destination arrays, and the sparse block.
func requireIHTLEqual(t *testing.T, label string, want, got *IHTL) {
	t.Helper()
	if got.NumHubs != want.NumHubs || got.NumVWEH != want.NumVWEH || got.NumFV != want.NumFV {
		t.Fatalf("%s: classes = %d/%d/%d, want %d/%d/%d", label,
			got.NumHubs, got.NumVWEH, got.NumFV, want.NumHubs, want.NumVWEH, want.NumFV)
	}
	if got.MinHubDegree != want.MinHubDegree {
		t.Fatalf("%s: MinHubDegree = %d, want %d", label, got.MinHubDegree, want.MinHubDegree)
	}
	if !slices.Equal(got.NewID, want.NewID) {
		t.Fatalf("%s: NewID differs", label)
	}
	if !slices.Equal(got.OldID, want.OldID) {
		t.Fatalf("%s: OldID differs", label)
	}
	if len(got.Blocks) != len(want.Blocks) {
		t.Fatalf("%s: %d flipped blocks, want %d", label, len(got.Blocks), len(want.Blocks))
	}
	for b := range want.Blocks {
		wb, gb := &want.Blocks[b], &got.Blocks[b]
		if gb.HubLo != wb.HubLo || gb.HubHi != wb.HubHi || gb.Sources != wb.Sources {
			t.Fatalf("%s: block %d header = [%d,%d) src %d, want [%d,%d) src %d", label, b,
				gb.HubLo, gb.HubHi, gb.Sources, wb.HubLo, wb.HubHi, wb.Sources)
		}
		if !slices.Equal(gb.Index, wb.Index) {
			t.Fatalf("%s: block %d Index differs", label, b)
		}
		if !slices.Equal(gb.Dsts, wb.Dsts) {
			t.Fatalf("%s: block %d Dsts differs", label, b)
		}
	}
	if got.Sparse.DestLo != want.Sparse.DestLo {
		t.Fatalf("%s: Sparse.DestLo = %d, want %d", label, got.Sparse.DestLo, want.Sparse.DestLo)
	}
	if !slices.Equal(got.Sparse.Index, want.Sparse.Index) {
		t.Fatalf("%s: Sparse.Index differs", label)
	}
	if !slices.Equal(got.Sparse.Srcs, want.Sparse.Srcs) {
		t.Fatalf("%s: Sparse.Srcs differs", label)
	}
}

// TestBuildWithParallelDeterminism checks that BuildWith produces an
// iHTL graph bit-for-bit the same as Build's one worker — relabeling
// arrays, every flipped block, the sparse block — across worker counts
// (a nil pool among them) and parameter variants. The relabeling is
// held to an independent reference by TestBuildBlocksMatchSortOracle.
func TestBuildWithParallelDeterminism(t *testing.T) {
	variants := map[string]Params{
		"default":    {HubsPerBlock: 256},
		"fastselect": {HubsPerBlock: 256, FastSelect: true},
		"degreesort": {HubsPerBlock: 256, DegreeSortClasses: true},
		"multiblock": {HubsPerBlock: 16, FVThreshold: 0.05, MaxBlocks: 32},
	}
	for gname, g := range buildTestGraphs(t) {
		for vname, p := range variants {
			want, err := Build(g, p)
			if err != nil {
				t.Fatalf("%s/%s: Build: %v", gname, vname, err)
			}
			for _, w := range buildWorkerCounts() {
				pool, closePool := buildPool(w)
				got, err := BuildWith(g, p, pool)
				closePool()
				if err != nil {
					t.Fatalf("%s/%s/w%d: BuildWith: %v", gname, vname, w, err)
				}
				requireIHTLEqual(t, gname+"/"+vname, want, got)
			}
		}
	}
}

// TestBuildStatsPopulated checks that a pooled and a nil-pool build
// both fill the phase breakdown and accumulate busy time.
func TestBuildStatsPopulated(t *testing.T) {
	g, err := gen.RMAT(gen.DefaultRMAT(10, 8, 3))
	if err != nil {
		t.Fatal(err)
	}
	for _, pool := range []*sched.Pool{testPool, nil} {
		ih, err := BuildWith(g, Params{HubsPerBlock: 256}, pool)
		if err != nil {
			t.Fatal(err)
		}
		bs := ih.BuildStats()
		if bs.Wall <= 0 {
			t.Fatalf("Wall = %v, want > 0", bs.Wall)
		}
		if bs.Rank+bs.Select+bs.Relabel+bs.Blocks <= 0 {
			t.Fatalf("phase sum = %v, want > 0", bs.Rank+bs.Select+bs.Relabel+bs.Blocks)
		}
		if bs.Rank+bs.Select+bs.Relabel+bs.Blocks > bs.Wall {
			t.Fatalf("phases (%v) exceed wall (%v)", bs.Rank+bs.Select+bs.Relabel+bs.Blocks, bs.Wall)
		}
		if bs.RankBusy+bs.RelabelBusy+bs.BlocksBusy <= 0 {
			t.Fatalf("build on pool %p accumulated no busy time", pool)
		}
	}
}

// TestBuildWithParallelStress repeats a larger parallel build under
// the race detector and compares against the nil-pool reference.
func TestBuildWithParallelStress(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	g, err := gen.RMAT(gen.DefaultRMAT(12, 10, 77))
	if err != nil {
		t.Fatal(err)
	}
	want, err := Build(g, Params{HubsPerBlock: 512})
	if err != nil {
		t.Fatal(err)
	}
	pool := sched.NewPool(8)
	defer pool.Close()
	for round := 0; round < 3; round++ {
		got, err := BuildWith(g, Params{HubsPerBlock: 512}, pool)
		if err != nil {
			t.Fatal(err)
		}
		requireIHTLEqual(t, "stress", want, got)
	}
}
