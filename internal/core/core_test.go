package core

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"ihtl/internal/gen"
	"ihtl/internal/graph"
	"ihtl/internal/sched"
	"ihtl/internal/xrand"
	"testing/quick"
)

var testPool = sched.NewPool(4)

// TestPaperExample verifies iHTL construction against the paper's
// worked example (Figures 2, 4, 5, 6): with B=2 the algorithm must
// select exactly the two in-hubs #3 and #7 (0-indexed 2 and 6),
// classify {2,5,6,8}→VWEH and {1,4}→FV, and produce the Figure 4
// relabeling array [3,7,2,5,6,8,1,4].
func TestPaperExample(t *testing.T) {
	g := graph.PaperExample()
	ih, err := Build(g, Params{HubsPerBlock: 2})
	if err != nil {
		t.Fatal(err)
	}
	if ih.NumHubs != 2 {
		t.Fatalf("NumHubs = %d, want 2", ih.NumHubs)
	}
	if len(ih.Blocks) != 1 {
		t.Fatalf("#FB = %d, want 1", len(ih.Blocks))
	}
	if ih.NumVWEH != 4 || ih.NumFV != 2 {
		t.Fatalf("VWEH=%d FV=%d, want 4 and 2", ih.NumVWEH, ih.NumFV)
	}
	// Figure 4 relabeling array (element v stores the original ID of
	// new vertex v), converted to 0-indexed: [2,6,1,4,5,7,0,3].
	wantOld := []graph.VID{2, 6, 1, 4, 5, 7, 0, 3}
	for nv, old := range wantOld {
		if ih.OldID[nv] != old {
			t.Fatalf("OldID = %v, want %v (Figure 4)", ih.OldID, wantOld)
		}
	}
	// Flipped block must contain exactly the 9 in-edges of the hubs
	// (in-degrees 5 + 4); sparse block the remaining 5.
	if fe := ih.FlippedEdges(); fe != 9 {
		t.Fatalf("flipped edges = %d, want 9", fe)
	}
	if se := ih.Sparse.NumEdges(); se != 5 {
		t.Fatalf("sparse edges = %d, want 5", se)
	}
	if ih.MinHubDegree != 4 {
		t.Fatalf("MinHubDegree = %d, want 4", ih.MinHubDegree)
	}
}

// TestPaperExampleAdjacency checks the relabeled adjacency matrix of
// Figure 6: e.g. new vertex 4 (original #6) has out-edges to new
// {0,1,3,5} and the zero block (FV rows x hub columns) is empty.
func TestPaperExampleAdjacency(t *testing.T) {
	g := graph.PaperExample()
	ih, err := Build(g, Params{HubsPerBlock: 2})
	if err != nil {
		t.Fatal(err)
	}
	rg, err := graph.Relabel(g, ih.NewID)
	if err != nil {
		t.Fatal(err)
	}
	// Original #6 (0-indexed 5) -> new ID 4; its out-neighbours
	// {2,6,4,7} (0-indexed) map to {0,1,3,5}.
	want := []graph.VID{0, 1, 3, 5}
	got := rg.Out(4)
	if len(got) != len(want) {
		t.Fatalf("Out(4) = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Out(4) = %v, want %v", got, want)
		}
	}
	// Zero block: FV rows (new IDs 6,7) must have no hub columns.
	for _, fv := range []graph.VID{6, 7} {
		for _, d := range rg.Out(fv) {
			if int(d) < ih.NumHubs {
				t.Fatalf("FV vertex %d has edge to hub %d — zero block violated", fv, d)
			}
		}
	}
}

func randomVec(seed uint64, n int) []float64 {
	rng := xrand.New(seed)
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.Float64() + 0.1
	}
	return v
}

// checkStepMatchesReference builds iHTL with params p and requires a
// Step on exact inputs to give the oracle's bits in original ID space.
func checkStepMatchesReference(t *testing.T, g *graph.Graph, p Params) *IHTL {
	t.Helper()
	ih, err := Build(g, p)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(ih, testPool)
	if err != nil {
		t.Fatal(err)
	}
	src := exactInput(99, g.NumV, 1, true)
	requireBitIdentical(t, fmt.Sprintf("params %+v", p), referenceStep(g, src, 1), stepOldSpace(ih, e, src))
	return ih
}

// TestStepMatchesReferenceAcrossGraphs: hand-made shapes (star, cycle,
// complete) and generated ones at B from 2 to past every vertex, each
// against the oracle's reference bit for bit.
func TestStepMatchesReferenceAcrossGraphs(t *testing.T) {
	rmat, err := gen.RMAT(gen.DefaultRMAT(10, 8, 3))
	if err != nil {
		t.Fatal(err)
	}
	web, err := gen.Web(gen.DefaultWeb(5000, 4))
	if err != nil {
		t.Fatal(err)
	}
	graphs := map[string]*graph.Graph{
		"paper": graph.PaperExample(),
		"star":  graph.Star(200),
		"cycle": graph.Cycle(64),
		"k7":    graph.Complete(7),
		"rmat":  rmat,
		"web":   web,
	}
	for name, g := range graphs {
		for _, b := range []int{2, 16, 256, 1 << 20} {
			t.Run(name, func(t *testing.T) {
				checkStepMatchesReference(t, g, Params{HubsPerBlock: b})
			})
		}
	}
}

func TestEveryEdgeExactlyOnce(t *testing.T) {
	// The §2.4 invariant: "In iHTL every edge is traversed exactly
	// once". Check the multiset of (src,dst) pairs across blocks +
	// sparse equals the original edge set.
	g, err := gen.RMAT(gen.DefaultRMAT(9, 10, 6))
	if err != nil {
		t.Fatal(err)
	}
	ih, err := Build(g, Params{HubsPerBlock: 32})
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[[2]graph.VID]int)
	for b := range ih.Blocks {
		fb := &ih.Blocks[b]
		for s := 0; s < ih.NumPushSources(); s++ {
			for i := fb.Index[s]; i < fb.Index[s+1]; i++ {
				d := fb.Dsts[i]
				if int(d) < fb.HubLo || int(d) >= fb.HubHi {
					t.Fatalf("block %d contains foreign hub %d", b, d)
				}
				seen[[2]graph.VID{ih.OldID[s], ih.OldID[d]}]++
			}
		}
	}
	n := ih.NumV - ih.Sparse.DestLo
	for i := 0; i < n; i++ {
		dOld := ih.OldID[ih.Sparse.DestLo+i]
		for j := ih.Sparse.Index[i]; j < ih.Sparse.Index[i+1]; j++ {
			seen[[2]graph.VID{ih.OldID[ih.Sparse.Srcs[j]], dOld}]++
		}
	}
	if int64(len(seen)) != g.NumE {
		t.Fatalf("coverage: %d distinct edges, want %d", len(seen), g.NumE)
	}
	for e, c := range seen {
		if c != 1 {
			t.Fatalf("edge %v traversed %d times", e, c)
		}
		if !g.HasEdge(e[0], e[1]) {
			t.Fatalf("phantom edge %v", e)
		}
	}
}

func TestRelabelingIsPermutation(t *testing.T) {
	g, err := gen.Web(gen.DefaultWeb(3000, 8))
	if err != nil {
		t.Fatal(err)
	}
	ih, err := Build(g, Params{HubsPerBlock: 64})
	if err != nil {
		t.Fatal(err)
	}
	seen := make([]bool, g.NumV)
	for v := 0; v < g.NumV; v++ {
		nv := ih.NewID[v]
		if seen[nv] {
			t.Fatalf("NewID duplicates %d", nv)
		}
		seen[nv] = true
		if ih.OldID[nv] != graph.VID(v) {
			t.Fatalf("OldID/NewID not inverse at %d", v)
		}
	}
	// Class ordering: hubs < VWEH < FV in new ID space, and hubs in
	// descending in-degree order.
	for h := 1; h < ih.NumHubs; h++ {
		if g.InDegree(ih.OldID[h-1]) < g.InDegree(ih.OldID[h]) {
			t.Fatal("hubs not in descending degree order")
		}
	}
	// Order preservation within VWEH and FV (§3.2: "keeps the
	// initial order between vertices of the same type").
	for i := ih.NumHubs + 1; i < ih.NumHubs+ih.NumVWEH; i++ {
		if ih.OldID[i-1] >= ih.OldID[i] {
			t.Fatal("VWEH original order not preserved")
		}
	}
	for i := ih.NumHubs + ih.NumVWEH + 1; i < ih.NumV; i++ {
		if ih.OldID[i-1] >= ih.OldID[i] {
			t.Fatal("FV original order not preserved")
		}
	}
}

func TestVWEHAndFVClassification(t *testing.T) {
	g, err := gen.RMAT(gen.DefaultRMAT(9, 8, 12))
	if err != nil {
		t.Fatal(err)
	}
	ih, err := Build(g, Params{HubsPerBlock: 16})
	if err != nil {
		t.Fatal(err)
	}
	isHub := func(old graph.VID) bool { return int(ih.NewID[old]) < ih.NumHubs }
	for v := 0; v < g.NumV; v++ {
		hasHubEdge := false
		for _, d := range g.Out(graph.VID(v)) {
			if isHub(d) {
				hasHubEdge = true
				break
			}
		}
		nv := int(ih.NewID[v])
		switch {
		case nv < ih.NumHubs:
			// hub — no classification constraint on its out-edges
		case nv < ih.NumHubs+ih.NumVWEH:
			if !hasHubEdge {
				t.Fatalf("vertex %d classified VWEH without hub edge", v)
			}
		default:
			if hasHubEdge {
				t.Fatalf("vertex %d classified FV but has hub edge", v)
			}
		}
	}
}

func TestMultipleFlippedBlocks(t *testing.T) {
	// Force several blocks with a tiny B on a hub-rich graph.
	g, err := gen.RMAT(gen.DefaultRMAT(11, 12, 2))
	if err != nil {
		t.Fatal(err)
	}
	ih, err := Build(g, Params{HubsPerBlock: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(ih.Blocks) < 2 {
		t.Fatalf("expected multiple flipped blocks, got %d", len(ih.Blocks))
	}
	// Block ranges tile [0, NumHubs).
	for i, b := range ih.Blocks {
		if b.HubLo != i*ih.HubsPerBlock {
			t.Fatalf("block %d starts at %d", i, b.HubLo)
		}
		if i == len(ih.Blocks)-1 {
			if b.HubHi != ih.NumHubs {
				t.Fatalf("last block ends at %d, want %d", b.HubHi, ih.NumHubs)
			}
		} else if b.HubHi != (i+1)*ih.HubsPerBlock {
			t.Fatalf("block %d ends at %d", i, b.HubHi)
		}
	}
	// §3.3 admission: every non-first block's source population must
	// exceed half of the first block's.
	for i := 1; i < len(ih.Blocks); i++ {
		if float64(ih.Blocks[i].Sources) <= 0.5*float64(ih.Blocks[0].Sources) {
			t.Fatalf("block %d admitted with %d sources vs FV1=%d",
				i, ih.Blocks[i].Sources, ih.Blocks[0].Sources)
		}
	}
	checkStepMatchesReference(t, g, Params{HubsPerBlock: 8})
}

func TestNoHubsOnUniformGraph(t *testing.T) {
	// A cycle has uniform in-degree 1 < MinHubDegree: no flipped
	// blocks, pure pull, still correct.
	g := graph.Cycle(100)
	ih, err := Build(g, Params{HubsPerBlock: 8})
	if err != nil {
		t.Fatal(err)
	}
	if ih.NumHubs != 0 || len(ih.Blocks) != 0 {
		t.Fatalf("uniform graph selected %d hubs, %d blocks", ih.NumHubs, len(ih.Blocks))
	}
	if ih.Sparse.NumEdges() != g.NumE {
		t.Fatal("all edges should be in the sparse block")
	}
	checkStepMatchesReference(t, g, Params{HubsPerBlock: 8})
}

func TestAllHubsDegenerate(t *testing.T) {
	// B >= NumV puts every qualifying vertex in one block; complete
	// graph has all in-degrees equal.
	g := graph.Complete(16)
	ih, err := Build(g, Params{HubsPerBlock: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if ih.NumHubs != 16 || ih.NumFV != 0 {
		t.Fatalf("hubs=%d fv=%d", ih.NumHubs, ih.NumFV)
	}
	if ih.Sparse.NumEdges() != 0 {
		t.Fatal("sparse block should be empty")
	}
	checkStepMatchesReference(t, g, Params{HubsPerBlock: 1000})
}

func TestEmptyGraph(t *testing.T) {
	g, err := graph.Build(0, nil, graph.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ih, err := Build(g, Params{}) // the default on purpose: what a caller with no graph yet passes
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(ih, testPool)
	if err != nil {
		t.Fatal(err)
	}
	e.Step(nil, nil)
}

func TestBuildErrors(t *testing.T) {
	if _, err := Build(nil, Params{}); err == nil {
		t.Error("nil graph accepted")
	}
	if _, err := Build(graph.Star(4), Params{FVThreshold: 2}); err == nil {
		t.Error("bad threshold accepted")
	}
	if _, err := Build(graph.Star(4), Params{HubsPerBlock: -1}); err == nil {
		t.Error("negative B accepted")
	}
	// A negative size is rejected under its own name, not as the B it
	// would derive.
	for field, p := range map[string]Params{"CacheBytes": {CacheBytes: -1}, "VertexBytes": {VertexBytes: -8}} {
		if _, err := Build(graph.Star(4), p); err == nil || !strings.Contains(err.Error(), field) {
			t.Errorf("negative %s: err = %v", field, err)
		}
	}
	if _, err := NewEngine(nil, testPool); err == nil {
		t.Error("nil IHTL accepted")
	}
}

func TestDefaultParams(t *testing.T) {
	p := Params{}.withDefaults()
	if p.HubsPerBlock != DefaultL2Bytes/DefaultVertexBytes {
		t.Fatalf("default B = %d", p.HubsPerBlock)
	}
	if p.FVThreshold != 0.5 || p.MaxBlocks != 64 {
		t.Fatalf("defaults wrong: %+v", p)
	}
	// Explicit cache size: Table 6's sweep (L2/2 => half the hubs).
	half := Params{CacheBytes: DefaultL2Bytes / 2}.withDefaults()
	if half.HubsPerBlock != p.HubsPerBlock/2 {
		t.Fatalf("CacheBytes not honoured: %d", half.HubsPerBlock)
	}
}

func TestPermuteRoundTrip(t *testing.T) {
	g, err := gen.RMAT(gen.DefaultRMAT(8, 6, 1))
	if err != nil {
		t.Fatal(err)
	}
	ih, err := Build(g, Params{HubsPerBlock: 8})
	if err != nil {
		t.Fatal(err)
	}
	orig := randomVec(5, g.NumV)
	tmp := make([]float64, g.NumV)
	back := make([]float64, g.NumV)
	ih.PermuteToNew(orig, tmp)
	ih.PermuteToOld(tmp, back)
	for i := range orig {
		if orig[i] != back[i] {
			t.Fatal("permute round trip failed")
		}
	}
}

func TestBreakdownAccumulates(t *testing.T) {
	g, err := gen.RMAT(gen.DefaultRMAT(9, 8, 4))
	if err != nil {
		t.Fatal(err)
	}
	ih, err := Build(g, Params{HubsPerBlock: 64})
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(ih, testPool)
	if err != nil {
		t.Fatal(err)
	}
	src := randomVec(1, g.NumV)
	dst := make([]float64, g.NumV)
	for i := 0; i < 3; i++ {
		e.Step(src, dst)
	}
	b := e.TakeBreakdown()
	if b.Steps != 3 {
		t.Fatalf("Steps = %d", b.Steps)
	}
	if b.Wall <= 0 {
		t.Fatal("no time recorded")
	}
	f := b.FlippedFrac() + b.MergeFrac()
	if f < 0 || f > 1 {
		t.Fatalf("fractions out of range: %v", f)
	}
	if again := e.TakeBreakdown(); again.Steps != 0 {
		t.Fatal("TakeBreakdown did not reset")
	}
	exec := ih.ExecStats(b)
	if exec.FlippedSpeed <= 0 {
		t.Fatalf("FlippedSpeed = %v", exec.FlippedSpeed)
	}
}

func TestStatsFields(t *testing.T) {
	g, err := gen.Web(gen.DefaultWeb(5000, 2))
	if err != nil {
		t.Fatal(err)
	}
	ih, err := Build(g, Params{HubsPerBlock: 32})
	if err != nil {
		t.Fatal(err)
	}
	s := ih.Stats(g)
	if s.NumBlocks != len(ih.Blocks) || s.NumHubs != ih.NumHubs {
		t.Fatal("stats do not match structure")
	}
	if s.FlippedEdgeFrac <= 0 || s.FlippedEdgeFrac > 1 {
		t.Fatalf("FlippedEdgeFrac = %v", s.FlippedEdgeFrac)
	}
	if s.VWEHFrac <= 0 || s.VWEHFrac >= 1 {
		t.Fatalf("VWEHFrac = %v", s.VWEHFrac)
	}
	if s.TopologyBytes <= s.CSCBytes {
		// iHTL topology replicates index arrays; on hubby graphs it
		// must be at least as large as plain CSC.
		t.Fatalf("topology %d not above CSC %d", s.TopologyBytes, s.CSCBytes)
	}
	if s.OverheadFrac <= 0 {
		t.Fatalf("OverheadFrac = %v", s.OverheadFrac)
	}
}

func TestStepRejectsBadLengths(t *testing.T) {
	g := graph.Star(10)
	ih, _ := Build(g, Params{HubsPerBlock: 2})
	e, _ := NewEngine(ih, testPool)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	e.Step(make([]float64, 2), make([]float64, g.NumV))
}

// TestNewEngineOptsIgnoresDeprecated pins the deprecated fields: no
// value of Shards, StaticFlipped, Phased or SparseKernel is refused, and
// each builds the engine a zero EngineOptions builds, stepping the same
// bits at one lane and at eight.
func TestNewEngineOptsIgnoresDeprecated(t *testing.T) {
	ih, err := Build(diffGraphs(t)["rmat"], Params{HubsPerBlock: 64})
	if err != nil {
		t.Fatal(err)
	}
	base, err := NewEngine(ih, testPool)
	if err != nil {
		t.Fatal(err)
	}
	rows := []EngineOptions{{StaticFlipped: true}, {Phased: true}, {SparseKernel: SparsePB}}
	for _, shards := range []int{1, 2, 3, 8} {
		rows = append(rows, EngineOptions{Shards: shards})
	}
	for _, k := range []int{1, 8} {
		src := randomVec(3, ih.NumV*k)
		want := make([]float64, ih.NumV*k)
		base.StepBatch(src, want, k)
		for _, opt := range rows {
			e, err := NewEngineOpts(ih, testPool, opt)
			if err != nil {
				t.Fatalf("%s: %v", optLabel(opt), err)
			}
			got := make([]float64, ih.NumV*k)
			e.StepBatch(src, got, k)
			requireBitIdentical(t, optLabel(opt)+"/k"+strconv.Itoa(k), want, got)
		}
	}
}

func TestDegreeSortClassesAblation(t *testing.T) {
	g, err := gen.RMAT(gen.DefaultRMAT(10, 8, 14))
	if err != nil {
		t.Fatal(err)
	}
	ih, err := Build(g, Params{HubsPerBlock: 32, DegreeSortClasses: true})
	if err != nil {
		t.Fatal(err)
	}
	// Same class sizes as the order-preserving build.
	base, err := Build(g, Params{HubsPerBlock: 32})
	if err != nil {
		t.Fatal(err)
	}
	if ih.NumHubs != base.NumHubs || ih.NumVWEH != base.NumVWEH || ih.NumFV != base.NumFV {
		t.Fatal("ablation changed classification")
	}
	// VWEH now sorted by descending degree.
	for i := ih.NumHubs + 1; i < ih.NumHubs+ih.NumVWEH; i++ {
		if g.Degree(ih.OldID[i-1]) < g.Degree(ih.OldID[i]) {
			t.Fatal("VWEH not degree-sorted under ablation")
		}
	}
	// And SpMV stays correct.
	checkStepMatchesReference(t, g, Params{HubsPerBlock: 32, DegreeSortClasses: true})
}

func TestFastSelectMatchesOrUndercuts(t *testing.T) {
	// §6 fast selection is a lower bound on the exact block count and
	// must still produce a correct engine.
	graphs := []*graph.Graph{
		graph.PaperExample(),
		graph.Star(100),
	}
	if g, err := gen.RMAT(gen.DefaultRMAT(11, 12, 2)); err == nil {
		graphs = append(graphs, g)
	} else {
		t.Fatal(err)
	}
	if g, err := gen.Web(gen.DefaultWeb(8000, 3)); err == nil {
		graphs = append(graphs, g)
	} else {
		t.Fatal(err)
	}
	for i, g := range graphs {
		for _, b := range []int{2, 8, 64} {
			exact, err := Build(g, Params{HubsPerBlock: b})
			if err != nil {
				t.Fatal(err)
			}
			fast, err := Build(g, Params{HubsPerBlock: b, FastSelect: true})
			if err != nil {
				t.Fatal(err)
			}
			if len(fast.Blocks) > len(exact.Blocks) {
				t.Fatalf("graph %d B=%d: fast admitted %d blocks > exact %d",
					i, b, len(fast.Blocks), len(exact.Blocks))
			}
			// Block 1 is determined by FV1 alone, so both must agree
			// on having at least one block when the exact one does.
			if len(exact.Blocks) > 0 && len(fast.Blocks) == 0 {
				t.Fatalf("graph %d B=%d: fast found no blocks, exact found %d",
					i, b, len(exact.Blocks))
			}
			checkStepMatchesReference(t, g, Params{HubsPerBlock: b, FastSelect: true})
		}
	}
}

func TestFastSelectPaperExampleIdentical(t *testing.T) {
	// On the worked example FV1 covers every source of every
	// candidate block, so fast and exact agree entirely.
	g := graph.PaperExample()
	exact, _ := Build(g, Params{HubsPerBlock: 2})
	fast, _ := Build(g, Params{HubsPerBlock: 2, FastSelect: true})
	if exact.NumHubs != fast.NumHubs || len(exact.Blocks) != len(fast.Blocks) {
		t.Fatalf("fast (%d hubs, %d blocks) != exact (%d hubs, %d blocks)",
			fast.NumHubs, len(fast.Blocks), exact.NumHubs, len(exact.Blocks))
	}
}

// stubOrderer reverses vertex order, for SparseOrder plumbing tests.
type stubOrderer struct{}

func (stubOrderer) Name() string { return "reverse" }
func (stubOrderer) Permutation(g *graph.Graph) []graph.VID {
	p := make([]graph.VID, g.NumV)
	for v := range p {
		p[v] = graph.VID(g.NumV - 1 - v)
	}
	return p
}

func TestSparseOrderReordersClasses(t *testing.T) {
	g, err := gen.RMAT(gen.DefaultRMAT(10, 8, 19))
	if err != nil {
		t.Fatal(err)
	}
	base, err := Build(g, Params{HubsPerBlock: 32})
	if err != nil {
		t.Fatal(err)
	}
	ordered, err := Build(g, Params{HubsPerBlock: 32, SparseOrder: stubOrderer{}})
	if err != nil {
		t.Fatal(err)
	}
	// Same classification, same hub prefix.
	if ordered.NumHubs != base.NumHubs || ordered.NumVWEH != base.NumVWEH {
		t.Fatal("SparseOrder changed classification")
	}
	for h := 0; h < base.NumHubs; h++ {
		if ordered.OldID[h] != base.OldID[h] {
			t.Fatal("SparseOrder disturbed hub ordering")
		}
	}
	// VWEH now in REVERSE original order (the stub's rank).
	for i := ordered.NumHubs + 1; i < ordered.NumHubs+ordered.NumVWEH; i++ {
		if ordered.OldID[i-1] <= ordered.OldID[i] {
			t.Fatal("SparseOrder rank not applied within VWEH")
		}
	}
	// And the engine still computes correct SpMV.
	checkStepMatchesReference(t, g, Params{HubsPerBlock: 32, SparseOrder: stubOrderer{}})
}

func TestSparseOrderExclusiveWithDegreeSort(t *testing.T) {
	if _, err := Build(graph.Star(4), Params{DegreeSortClasses: true, SparseOrder: stubOrderer{}}); err == nil {
		t.Fatal("exclusive options accepted together")
	}
}

func TestUniformRandomGraphControl(t *testing.T) {
	// Control experiment (DESIGN.md): Erdős–Rényi graphs have no
	// hubs, so iHTL's hub machinery finds only low-value blocks.
	// Whatever it selects, correctness must hold and no vertex may
	// be classified below the degree floor.
	g, err := gen.ErdosRenyi(4000, 40000, 9)
	if err != nil {
		t.Fatal(err)
	}
	ih := checkStepMatchesReference(t, g, Params{HubsPerBlock: 256})
	if ih.NumHubs > 0 && ih.MinHubDegree < 2 {
		t.Fatalf("hub below degree floor: %d", ih.MinHubDegree)
	}
	// On a hubless graph the flipped blocks bring little: the top
	// 256-vertex block captures at most a smallish fraction of edges
	// per block (mean degree 10, max ~30 of 40k edges).
	if len(ih.Blocks) > 0 {
		frac := float64(ih.Blocks[0].NumEdges()) / float64(g.NumE)
		if frac > 0.25 {
			t.Fatalf("ER block 1 captured %.1f%% of edges — not a control", 100*frac)
		}
	}
}

func TestBuildPropertyEdgeConservation(t *testing.T) {
	// Property test: for random graphs and random B, flipped + sparse
	// edges always total NumE, classes always partition V, and the
	// relabeling is always a permutation (Build re-verifies the edge
	// total internally; this drives it across the parameter space).
	f := func(seed uint64, bRaw uint8) bool {
		rng := xrand.New(seed)
		n := 20 + rng.Intn(300)
		m := n * (1 + rng.Intn(8))
		edges := make([]graph.Edge, m)
		for i := range edges {
			edges[i] = graph.Edge{Src: graph.VID(rng.Intn(n)), Dst: graph.VID(rng.Intn(n))}
		}
		g, err := graph.Build(n, edges, graph.BuildOptions{Dedup: true, DropSelfLoops: true, RemoveZeroDegree: true})
		if err != nil {
			return false
		}
		b := 1 + int(bRaw)%64
		ih, err := Build(g, Params{HubsPerBlock: b})
		if err != nil {
			return false
		}
		if ih.NumHubs+ih.NumVWEH+ih.NumFV != g.NumV {
			return false
		}
		if ih.FlippedEdges()+ih.Sparse.NumEdges() != g.NumE {
			return false
		}
		seen := make([]bool, g.NumV)
		for _, nv := range ih.NewID {
			if seen[nv] {
				return false
			}
			seen[nv] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
