package ihtl_test

import (
	"math"
	"path/filepath"
	"slices"
	"testing"

	"ihtl"
)

func TestPublicAPIQuickstartFlow(t *testing.T) {
	g, err := ihtl.GenerateRMAT(10, 8, 42)
	if err != nil {
		t.Fatal(err)
	}
	pool := ihtl.NewPool(4)
	defer pool.Close()

	eng, err := ihtl.NewEngine(g, pool, ihtl.Params{HubsPerBlock: 64})
	if err != nil {
		t.Fatal(err)
	}
	ranks, err := ihtl.PageRank(eng, pool, ihtl.PageRankOptions{MaxIters: 10, Tol: -1})
	if err != nil {
		t.Fatal(err)
	}
	if len(ranks) != g.NumV {
		t.Fatalf("ranks length %d, want %d", len(ranks), g.NumV)
	}

	// The baseline pull engine must agree exactly.
	pull, err := ihtl.NewBaselineEngine(g, pool, ihtl.Pull)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := ihtl.PageRankBaseline(g, pull, pool, ihtl.PageRankOptions{MaxIters: 10, Tol: -1})
	if err != nil {
		t.Fatal(err)
	}
	for v := range ranks {
		if math.Abs(ranks[v]-ref[v]) > 1e-12 {
			t.Fatalf("iHTL and pull PageRank disagree at %d: %g vs %g", v, ranks[v], ref[v])
		}
	}

	// Engine introspection.
	ih := eng.IHTL()
	if ih.NumHubs <= 0 || len(ih.Blocks) == 0 {
		t.Fatal("RMAT graph should produce hubs and flipped blocks")
	}
	if eng.Graph() != g {
		t.Fatal("Graph accessor broken")
	}
}

func TestPublicAPIBuildAndSave(t *testing.T) {
	g, err := ihtl.BuildGraph(4, []ihtl.Edge{
		{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 3}, {Src: 3, Dst: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "g.bin")
	if err := g.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	g2, err := ihtl.LoadGraph(path)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumV != g.NumV || g2.NumE != g.NumE {
		t.Fatal("load changed graph")
	}
}

func TestPublicAPIWebGenerator(t *testing.T) {
	g, err := ihtl.GenerateWeb(5000, 1)
	if err != nil {
		t.Fatal(err)
	}
	maxIn, _ := g.MaxInDegree()
	maxOut, _ := g.MaxOutDegree()
	if maxIn <= maxOut {
		t.Fatalf("web graph should have asymmetric hubs: in=%d out=%d", maxIn, maxOut)
	}
}

// TestPublicAPIParallelBuildParity checks that the *On variants
// (pool-parallelised generation and graph build) produce graphs
// identical to their sequential counterparts, and that an engine
// built on the pool matches a sequentially built one.
func TestPublicAPIParallelBuildParity(t *testing.T) {
	pool := ihtl.NewPool(4)
	defer pool.Close()

	seq, err := ihtl.GenerateRMAT(10, 8, 42)
	if err != nil {
		t.Fatal(err)
	}
	par, err := ihtl.GenerateRMATOn(pool, 10, 8, 42)
	if err != nil {
		t.Fatal(err)
	}
	requireSameGraph(t, "rmat", seq, par)

	wseq, err := ihtl.GenerateWeb(3000, 7)
	if err != nil {
		t.Fatal(err)
	}
	wpar, err := ihtl.GenerateWebOn(pool, 3000, 7)
	if err != nil {
		t.Fatal(err)
	}
	requireSameGraph(t, "web", wseq, wpar)

	edges := seq.Edges(nil)
	gseq, err := ihtl.BuildGraph(seq.NumV, edges)
	if err != nil {
		t.Fatal(err)
	}
	gpar, err := ihtl.BuildGraphOn(pool, seq.NumV, edges)
	if err != nil {
		t.Fatal(err)
	}
	requireSameGraph(t, "rebuild", gseq, gpar)

	one := ihtl.NewPool(1) // one worker: NewEngine takes the sequential build path
	defer one.Close()
	eseq, err := ihtl.NewEngine(seq, one, ihtl.Params{HubsPerBlock: 64})
	if err != nil {
		t.Fatal(err)
	}
	epar, err := ihtl.NewEngine(par, pool, ihtl.Params{HubsPerBlock: 64})
	if err != nil {
		t.Fatal(err)
	}
	is, ip := eseq.IHTL(), epar.IHTL()
	if is.NumHubs != ip.NumHubs || is.NumVWEH != ip.NumVWEH || is.NumFV != ip.NumFV {
		t.Fatalf("engine classes differ: seq %d/%d/%d par %d/%d/%d",
			is.NumHubs, is.NumVWEH, is.NumFV, ip.NumHubs, ip.NumVWEH, ip.NumFV)
	}
	for v := range is.NewID {
		if is.NewID[v] != ip.NewID[v] {
			t.Fatalf("NewID[%d] = %d (par), want %d (seq)", v, ip.NewID[v], is.NewID[v])
		}
	}
	if bs := ip.BuildStats(); bs.Wall <= 0 {
		t.Fatalf("BuildStats.Wall = %v, want > 0", bs.Wall)
	}
}

// TestPublicAPIBlockEncoding pins the deprecated encoding surface
// through the public aliases: an engine asked for EncodingVarint steps
// the default engine's bits, and a packed v2 engine file opens with the
// flat adjacency the build held.
func TestPublicAPIBlockEncoding(t *testing.T) {
	g, err := ihtl.GenerateRMAT(9, 8, 7)
	if err != nil {
		t.Fatal(err)
	}
	pool := ihtl.NewPool(3)
	defer pool.Close()

	p := ihtl.Params{HubsPerBlock: 64}
	flat, err := ihtl.NewEngine(g, pool, p)
	if err != nil {
		t.Fatal(err)
	}
	varint, err := ihtl.NewEngineOpts(nil, g, pool, p, ihtl.EngineOptions{BlockEncoding: ihtl.EncodingVarint})
	if err != nil {
		t.Fatal(err)
	}
	// Integer-valued input: addition is exact, so the two engines must
	// agree bit for bit regardless of merge scheduling.
	n := flat.NumVertices()
	src := make([]float64, n)
	for v := range src {
		src[v] = float64(v%17 - 8)
	}
	want := make([]float64, n)
	got := make([]float64, n)
	flat.Step(src, want)
	varint.Step(src, got)
	for v := range want {
		if want[v] != got[v] {
			t.Fatalf("varint Step differs at %d: %g vs %g", v, got[v], want[v])
		}
	}

	path := filepath.Join(t.TempDir(), "g.ihtl2")
	if err := flat.IHTL().SaveFileV2(path); err != nil {
		t.Fatal(err)
	}
	ef, err := ihtl.OpenEngineFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ef.Close()
	if got := ef.IHTL().V2Stream(); got != "packed" {
		t.Fatalf("v2 engine file holds a %s stream, want packed", got)
	}
	built, opened := flat.IHTL(), ef.IHTL()
	for b := range built.Blocks {
		if !slices.Equal(opened.Blocks[b].Dsts, built.Blocks[b].Dsts) {
			t.Fatalf("block %d opened with other flat adjacency than it was built with", b)
		}
	}
	if !slices.Equal(opened.Sparse.Srcs, built.Sparse.Srcs) {
		t.Fatal("sparse block opened with other flat adjacency than it was built with")
	}
}

// TestPublicAPIShardsDeprecated pins the deprecated EngineOptions
// fields: an engine asked for three shards, for the phased pipeline or
// for the propagation-blocked sparse kernel is the single-graph engine —
// IHTL() is non-nil — and its PageRank ranks equal a zero-option
// engine's bit for bit.
func TestPublicAPIShardsDeprecated(t *testing.T) {
	g, err := ihtl.GenerateRMAT(10, 8, 42)
	if err != nil {
		t.Fatal(err)
	}
	pool := ihtl.NewPool(4)
	defer pool.Close()

	p := ihtl.Params{HubsPerBlock: 64}
	base, err := ihtl.NewEngineOpts(nil, g, pool, p, ihtl.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	prOpt := ihtl.PageRankOptions{MaxIters: 10, Tol: -1}
	want, err := ihtl.PageRank(base, pool, prOpt)
	if err != nil {
		t.Fatal(err)
	}
	for _, opt := range []ihtl.EngineOptions{{Shards: 3}, {Phased: true}, {SparseKernel: ihtl.SparsePB}} {
		e, err := ihtl.NewEngineOpts(nil, g, pool, p, opt)
		if err != nil {
			t.Fatal(err)
		}
		if e.IHTL() == nil {
			t.Fatalf("an engine built with %+v has no IHTL", opt)
		}
		got, err := ihtl.PageRank(e, pool, prOpt)
		if err != nil {
			t.Fatal(err)
		}
		for v := range want {
			if math.Float64bits(want[v]) != math.Float64bits(got[v]) {
				t.Fatalf("%+v: PageRank differs at %d: %g vs %g", opt, v, got[v], want[v])
			}
		}
	}
}

func requireSameGraph(t *testing.T, label string, want, got *ihtl.Graph) {
	t.Helper()
	if got.NumV != want.NumV || got.NumE != want.NumE {
		t.Fatalf("%s: NumV/NumE = %d/%d, want %d/%d", label, got.NumV, got.NumE, want.NumV, want.NumE)
	}
	for v := 0; v < want.NumV; v++ {
		wo, go_ := want.Out(ihtl.VID(v)), got.Out(ihtl.VID(v))
		if len(wo) != len(go_) {
			t.Fatalf("%s: Out(%d) length %d, want %d", label, v, len(go_), len(wo))
		}
		for i := range wo {
			if wo[i] != go_[i] {
				t.Fatalf("%s: Out(%d)[%d] = %d, want %d", label, v, i, go_[i], wo[i])
			}
		}
	}
}
