package graph

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"testing"

	"ihtl/internal/sched"
	"ihtl/internal/xrand"
)

// oracleBuild is the reference the sort-free builder is held to: a
// comparison sort of the raw edge list, a linear dedup, and a linear
// zero-degree renumbering. It shares no code with Build.
func oracleBuild(numV int, edges []Edge, opt BuildOptions) *Graph {
	kept := make([]Edge, 0, len(edges))
	for _, e := range edges {
		if !opt.DropSelfLoops || e.Src != e.Dst {
			kept = append(kept, e)
		}
	}
	slices.SortFunc(kept, func(a, b Edge) int {
		return cmp.Or(cmp.Compare(a.Src, b.Src), cmp.Compare(a.Dst, b.Dst))
	})
	if opt.Dedup {
		kept = slices.Compact(kept)
	}
	if opt.RemoveZeroDegree {
		used := make([]bool, numV)
		for _, e := range kept {
			used[e.Src], used[e.Dst] = true, true
		}
		remap := make([]VID, numV)
		n := 0
		for v, u := range used {
			if u {
				remap[v] = VID(n)
				n++
			}
		}
		for i, e := range kept {
			kept[i] = Edge{Src: remap[e.Src], Dst: remap[e.Dst]}
		}
		numV = n
	}
	g := &Graph{NumV: numV, NumE: int64(len(kept))}
	g.OutIndex, g.OutNbrs = oracleRows(numV, kept, func(e Edge) (VID, VID) { return e.Src, e.Dst })
	slices.SortFunc(kept, func(a, b Edge) int {
		return cmp.Or(cmp.Compare(a.Dst, b.Dst), cmp.Compare(a.Src, b.Src))
	})
	g.InIndex, g.InNbrs = oracleRows(numV, kept, func(e Edge) (VID, VID) { return e.Dst, e.Src })
	return g
}

// oracleRows lays out edges already sorted by (key, val) as offsets
// and values.
func oracleRows(numV int, sorted []Edge, kv func(Edge) (key, val VID)) ([]int64, []VID) {
	index := make([]int64, numV+1)
	nbrs := make([]VID, len(sorted))
	for i, e := range sorted {
		k, v := kv(e)
		index[k+1]++
		nbrs[i] = v
	}
	for v := 0; v < numV; v++ {
		index[v+1] += index[v]
	}
	return index, nbrs
}

type oracleInput struct {
	name  string
	numV  int
	edges []Edge
}

// oracleInputs are the shapes that break an ordering argument if one
// is wrong: duplicates and self-loops everywhere, isolated vertices,
// empty rows between full ones, one row or one column holding every
// edge, edges listed in descending order, and the degenerate vertex
// counts.
func oracleInputs() []oracleInput {
	oneRow := make([]Edge, 0, 600)
	oneCol := make([]Edge, 0, 600)
	for i := 0; i < 600; i++ {
		oneRow = append(oneRow, Edge{Src: 7, Dst: VID((i * 37) % 200)})
		oneCol = append(oneCol, Edge{Src: VID((i * 53) % 200), Dst: 3})
	}
	descending := make([]Edge, 0, 400)
	for i := 399; i >= 0; i-- {
		descending = append(descending, Edge{Src: VID(i % 50), Dst: VID(i % 23)})
	}
	return []oracleInput{
		{"no-vertices", 0, nil},
		{"one-vertex-no-edges", 1, nil},
		{"one-vertex-self-loops", 1, []Edge{{0, 0}, {0, 0}, {0, 0}}},
		{"no-edges", 40, nil},
		{"two-rows", 2, []Edge{{1, 0}, {0, 1}, {1, 0}, {1, 1}}}, // fewer rows than workers
		{"one-row-holds-all", 200, oneRow},
		{"one-column-holds-all", 200, oneCol},
		{"descending", 50, descending},
		{"skewed", 1500, skewedEdges(1500, 9000, 5)},
		{"isolated-tail", 4000, skewedEdges(900, 5000, 9)}, // vertices [900,4000) isolated
	}
}

// oracleWorkerCounts: no pool, the demoted one-worker pool, even and
// odd counts, the machine default, and more workers than cores.
func oracleWorkerCounts() []int {
	return []int{0, 1, 2, 3, runtime.GOMAXPROCS(0), 6}
}

func oracleOptions() []BuildOptions {
	return []BuildOptions{
		DefaultBuildOptions(),
		{},
		{Dedup: true},
		{DropSelfLoops: true},
		{Dedup: true, DropSelfLoops: true, RemoveZeroDegree: true},
	}
}

// withPool runs fn with a pool of w workers, or with nil for w == 0.
func withPool(w int, fn func(*sched.Pool)) {
	if w == 0 {
		fn(nil)
		return
	}
	p := sched.NewPool(w)
	defer p.Close()
	fn(p)
}

// TestBuildMatchesSortOracle compares every array Build produces with
// the comparison-sort reference, over every input shape, option set
// and worker count.
func TestBuildMatchesSortOracle(t *testing.T) {
	for _, in := range oracleInputs() {
		for oi, opt := range oracleOptions() {
			want := oracleBuild(in.numV, in.edges, opt)
			for _, w := range oracleWorkerCounts() {
				withPool(w, func(p *sched.Pool) {
					opt.Pool = p
					got, err := Build(in.numV, in.edges, opt)
					if err != nil {
						t.Fatalf("%s/opt%d/w%d: %v", in.name, oi, w, err)
					}
					requireGraphsEqual(t, fmt.Sprintf("%s/opt%d/w%d", in.name, oi, w), want, got)
					if err := got.Validate(); err != nil {
						t.Fatalf("%s/opt%d/w%d: %v", in.name, oi, w, err)
					}
				})
			}
		}
	}
}

// TestBuildShuffleInvariant is the metamorphic half: the built graph
// is a function of the edge multiset, so any permutation of the input
// list must give the same bits.
func TestBuildShuffleInvariant(t *testing.T) {
	for _, in := range oracleInputs() {
		for oi, opt := range oracleOptions() {
			want, err := Build(in.numV, in.edges, opt)
			if err != nil {
				t.Fatal(err)
			}
			shuffled := slices.Clone(in.edges)
			rng := xrand.New(uint64(17 + oi))
			for _, w := range []int{0, 3} {
				for i := len(shuffled) - 1; i > 0; i-- {
					j := int(rng.Uint64n(uint64(i + 1)))
					shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
				}
				withPool(w, func(p *sched.Pool) {
					opt.Pool = p
					got, err := Build(in.numV, shuffled, opt)
					if err != nil {
						t.Fatal(err)
					}
					requireGraphsEqual(t, fmt.Sprintf("%s/opt%d/w%d shuffled", in.name, oi, w), want, got)
				})
			}
		}
	}
}
