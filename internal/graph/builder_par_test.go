package graph

import (
	"runtime"
	"slices"
	"testing"

	"ihtl/internal/sched"
	"ihtl/internal/xrand"
)

// builderWorkerCounts are the pool sizes the determinism suite sweeps:
// 0 for a nil pool (the build's private one-worker pool), one worker,
// an odd count that never divides the inputs evenly, and whatever this
// machine would use by default.
func builderWorkerCounts() []int {
	return []int{0, 1, 3, runtime.GOMAXPROCS(0), 6}
}

// builderPool returns a pool of w workers, nil for w == 0, and the
// func that closes it.
func builderPool(w int) (*sched.Pool, func()) {
	if w == 0 {
		return nil, func() {}
	}
	p := sched.NewPool(w)
	return p, p.Close
}

// skewedEdges generates an edge list with heavy in-hubs: a quarter of
// the edges land on 16 hot destinations, and the list includes
// duplicates and self-loops so every filter path is exercised.
func skewedEdges(numV, m int, seed uint64) []Edge {
	rng := xrand.New(seed)
	edges := make([]Edge, 0, m)
	for i := 0; i < m; i++ {
		src := VID(rng.Uint64n(uint64(numV)))
		var dst VID
		if rng.Uint64()%4 == 0 {
			dst = VID(rng.Uint64n(16) % uint64(numV))
		} else {
			dst = VID(rng.Uint64n(uint64(numV)))
		}
		edges = append(edges, Edge{Src: src, Dst: dst})
		if rng.Uint64()%16 == 0 { // duplicate
			edges = append(edges, Edge{Src: src, Dst: dst})
		}
		if rng.Uint64()%32 == 0 { // self-loop
			edges = append(edges, Edge{Src: src, Dst: src})
		}
	}
	return edges
}

func requireGraphsEqual(t *testing.T, label string, want, got *Graph) {
	t.Helper()
	if got.NumV != want.NumV || got.NumE != want.NumE {
		t.Fatalf("%s: NumV/NumE = %d/%d, want %d/%d", label, got.NumV, got.NumE, want.NumV, want.NumE)
	}
	if !slices.Equal(got.OutIndex, want.OutIndex) {
		t.Fatalf("%s: OutIndex differs", label)
	}
	if !slices.Equal(got.OutNbrs, want.OutNbrs) {
		t.Fatalf("%s: OutNbrs differs", label)
	}
	if !slices.Equal(got.InIndex, want.InIndex) {
		t.Fatalf("%s: InIndex differs", label)
	}
	if !slices.Equal(got.InNbrs, want.InNbrs) {
		t.Fatalf("%s: InNbrs differs", label)
	}
}

// TestBuildParallelDeterminism checks that the build is bit-for-bit
// the same for every pool — every index and adjacency array — across
// worker counts (a nil pool among them), option combinations and
// edge-case inputs.
func TestBuildParallelDeterminism(t *testing.T) {
	type input struct {
		name  string
		numV  int
		edges []Edge
	}
	inputs := []input{
		{"empty", 100, nil},
		{"single", 1, []Edge{{0, 0}, {0, 0}}},
		{"tiny", 5, []Edge{{0, 1}, {1, 2}, {2, 0}, {3, 3}, {0, 1}, {4, 0}}},
		{"skewed", 2000, skewedEdges(2000, 12000, 7)},
		{"zerodeg", 3000, skewedEdges(1000, 5000, 11)}, // vertices [1000,3000) isolated
	}
	opts := []BuildOptions{
		DefaultBuildOptions(),
		{},
		{Dedup: true},
		{Dedup: true, DropSelfLoops: true, RemoveZeroDegree: true},
		{DropSelfLoops: true},
	}
	for _, in := range inputs {
		for oi, opt := range opts {
			opt.Pool = nil
			want, err := Build(in.numV, in.edges, opt)
			if err != nil {
				t.Fatalf("%s/opt%d: nil-pool Build: %v", in.name, oi, err)
			}
			for _, w := range builderWorkerCounts() {
				p, closePool := builderPool(w)
				opt.Pool = p
				got, err := Build(in.numV, in.edges, opt)
				closePool()
				if err != nil {
					t.Fatalf("%s/opt%d/w%d: parallel Build: %v", in.name, oi, w, err)
				}
				requireGraphsEqual(t, in.name, want, got)
			}
		}
	}
}

// TestBuildParallelErrorParity checks that the pooled validation
// reports the same first out-of-range edge for every pool.
func TestBuildParallelErrorParity(t *testing.T) {
	edges := skewedEdges(500, 3000, 3)
	edges[1733] = Edge{Src: 999, Dst: 0} // first bad edge
	edges[2500] = Edge{Src: 0, Dst: 777} // later bad edge
	opt := DefaultBuildOptions()
	_, seqErr := Build(500, edges, opt)
	if seqErr == nil {
		t.Fatal("nil-pool Build accepted out-of-range edges")
	}
	for _, w := range builderWorkerCounts() {
		p, closePool := builderPool(w)
		opt.Pool = p
		_, parErr := Build(500, edges, opt)
		closePool()
		if parErr == nil || parErr.Error() != seqErr.Error() {
			t.Fatalf("w%d: parallel error = %v, want %v", w, parErr, seqErr)
		}
	}
}

// TestBuildParallelStress runs a larger build under the race detector
// and compares against the nil-pool reference.
func TestBuildParallelStress(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	const numV, m = 50_000, 400_000
	edges := skewedEdges(numV, m, 42)
	opt := DefaultBuildOptions()
	want, err := Build(numV, edges, opt)
	if err != nil {
		t.Fatal(err)
	}
	p := sched.NewPool(8)
	defer p.Close()
	opt.Pool = p
	for round := 0; round < 3; round++ {
		got, err := Build(numV, edges, opt)
		if err != nil {
			t.Fatal(err)
		}
		requireGraphsEqual(t, "stress", want, got)
	}
}
