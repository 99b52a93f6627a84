package spmv

import (
	"math"
	"testing"

	"ihtl/internal/cache"
	"ihtl/internal/gen"
	"ihtl/internal/graph"
	"ihtl/internal/sched"
	"ihtl/internal/xrand"
)

var testPool = sched.NewPool(4)

// referenceStep computes dst[v] = Σ src[u] over in-neighbours with a
// trivial sequential loop.
func referenceStep(g *graph.Graph, src []float64) []float64 {
	dst := make([]float64, g.NumV)
	for v := 0; v < g.NumV; v++ {
		sum := 0.0
		for _, u := range g.In(graph.VID(v)) {
			sum += src[u]
		}
		dst[v] = sum
	}
	return dst
}

func randomVec(seed uint64, n int) []float64 {
	rng := xrand.New(seed)
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.Float64()*2 - 0.5
	}
	return v
}

func maxAbsDiff(a, b []float64) float64 {
	m := 0.0
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

func allDirections() []Direction {
	return []Direction{Pull, PushAtomic, PushBuffered, PushPartitioned}
}

func TestAllDirectionsMatchReference(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"paper": graph.PaperExample(),
		"star":  graph.Star(100),
		"cycle": graph.Cycle(57),
		"k6":    graph.Complete(6),
	}
	if rm, err := gen.RMAT(gen.DefaultRMAT(10, 8, 1)); err == nil {
		graphs["rmat"] = rm
	} else {
		t.Fatal(err)
	}
	for name, g := range graphs {
		src := randomVec(42, g.NumV)
		want := referenceStep(g, src)
		for _, dir := range allDirections() {
			e, err := NewEngine(g, testPool, dir, Options{})
			if err != nil {
				t.Fatalf("%s/%v: %v", name, dir, err)
			}
			dst := make([]float64, g.NumV)
			e.Step(src, dst)
			if d := maxAbsDiff(want, dst); d > 1e-9 {
				t.Errorf("%s/%v: max diff %g from reference", name, dir, d)
			}
		}
	}
}

func TestStepIsRepeatable(t *testing.T) {
	g, err := gen.RMAT(gen.DefaultRMAT(9, 6, 5))
	if err != nil {
		t.Fatal(err)
	}
	src := randomVec(7, g.NumV)
	for _, dir := range allDirections() {
		e, _ := NewEngine(g, testPool, dir, Options{})
		a := make([]float64, g.NumV)
		b := make([]float64, g.NumV)
		e.Step(src, a)
		e.Step(src, b)
		// Pull is exactly deterministic; push variants may reorder
		// float additions between runs, so allow tiny drift.
		if d := maxAbsDiff(a, b); d > 1e-9 {
			t.Errorf("%v: two Steps differ by %g", dir, d)
		}
	}
}

func TestStepOverwritesPreviousDst(t *testing.T) {
	g := graph.Star(10)
	src := randomVec(3, g.NumV)
	for _, dir := range allDirections() {
		e, _ := NewEngine(g, testPool, dir, Options{})
		dst := make([]float64, g.NumV)
		for i := range dst {
			dst[i] = 999 // garbage that must not leak into the result
		}
		e.Step(src, dst)
		want := referenceStep(g, src)
		if d := maxAbsDiff(want, dst); d > 1e-9 {
			t.Errorf("%v: stale dst contents leaked (diff %g)", dir, d)
		}
	}
}

func TestStepPanicsOnBadLengths(t *testing.T) {
	g := graph.Star(10)
	e, _ := NewEngine(g, testPool, Pull, Options{})
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for short vector")
		}
	}()
	e.Step(make([]float64, 3), make([]float64, g.NumV))
}

func TestNewEngineErrors(t *testing.T) {
	if _, err := NewEngine(nil, testPool, Pull, Options{}); err == nil {
		t.Error("nil graph accepted")
	}
	if _, err := NewEngine(graph.Star(3), nil, Pull, Options{}); err == nil {
		t.Error("nil pool accepted")
	}
	if _, err := NewEngine(graph.Star(3), testPool, Direction(99), Options{}); err == nil {
		t.Error("bad direction accepted")
	}
}

func TestDirectionString(t *testing.T) {
	for _, d := range allDirections() {
		if d.String() == "" {
			t.Error("empty direction name")
		}
	}
	if Direction(12).String() == "" {
		t.Error("unknown direction should format")
	}
}

func TestAtomicAddFloat64(t *testing.T) {
	var x float64
	done := make(chan struct{})
	for w := 0; w < 8; w++ {
		go func() {
			for i := 0; i < 10000; i++ {
				AtomicAddFloat64(&x, 1)
			}
			done <- struct{}{}
		}()
	}
	for w := 0; w < 8; w++ {
		<-done
	}
	if x != 80000 {
		t.Fatalf("atomic adds lost updates: %v", x)
	}
}

func TestPushPartitionsStructure(t *testing.T) {
	g, err := gen.RMAT(gen.DefaultRMAT(9, 8, 2))
	if err != nil {
		t.Fatal(err)
	}
	pp := BuildPushPartitions(g, 7)
	if pp.NumParts() != 7 {
		t.Fatalf("NumParts = %d", pp.NumParts())
	}
	// Every edge appears exactly once across partitions, with
	// destinations inside the partition's range.
	var total int64
	bounds := sched.EdgeBalancedParts(g.InIndex, 7)
	for p, part := range pp.Parts {
		lo, hi := graph.VID(bounds[p]), graph.VID(bounds[p+1])
		for i, u := range part.Srcs {
			if i > 0 && part.Srcs[i-1] >= u {
				t.Fatal("partition sources not strictly sorted")
			}
			for j := part.Index[i]; j < part.Index[i+1]; j++ {
				d := part.Dsts[j]
				if d < lo || d >= hi {
					t.Fatalf("partition %d: destination %d outside [%d,%d)", p, d, lo, hi)
				}
				if !g.HasEdge(u, d) {
					t.Fatalf("phantom edge %d->%d", u, d)
				}
				total++
			}
		}
	}
	if total != g.NumE {
		t.Fatalf("partitions contain %d edges, want %d", total, g.NumE)
	}
	if pp.TopologyBytes() <= 0 {
		t.Fatal("TopologyBytes not positive")
	}
}

func TestQuickSortVIDs(t *testing.T) {
	rng := xrand.New(8)
	for _, n := range []int{0, 1, 2, 23, 24, 100, 5000} {
		v := make([]graph.VID, n)
		for i := range v {
			v[i] = graph.VID(rng.Intn(1000))
		}
		quickSortVIDs(v)
		for i := 1; i < n; i++ {
			if v[i-1] > v[i] {
				t.Fatalf("n=%d: not sorted at %d", n, i)
			}
		}
	}
}

// cacheTestConfig is a small hierarchy (2 KB L1 / 32 KB L2 / 256 KB
// L3) sized so that test graphs of ~10^4-10^5 vertices stand in the
// same capacity regime as the paper's billion-edge graphs on a 1 MB
// L2 / 22 MB L3 machine.
func cacheTestConfig() cache.Config {
	return cache.Config{
		LineSize: 64,
		Levels: []cache.LevelConfig{
			{SizeBytes: 2 << 10, Ways: 8},
			{SizeBytes: 32 << 10, Ways: 16},
			{SizeBytes: 256 << 10, Ways: 8},
		},
	}
}

func TestSimulatePullDegreeBuckets(t *testing.T) {
	g, err := gen.RMAT(gen.DefaultRMAT(12, 8, 4))
	if err != nil {
		t.Fatal(err)
	}
	stats, buckets := SimulatePull(g, cacheTestConfig(), true)
	if stats.Loads == 0 || len(buckets) == 0 {
		t.Fatal("simulation produced no data")
	}
	var vertices int
	for _, b := range buckets {
		vertices += b.Vertices
		if b.Misses > b.Accesses {
			t.Fatalf("bucket [%d,%d): misses %d > accesses %d", b.DegreeLo, b.DegreeHi, b.Misses, b.Accesses)
		}
	}
	// Every vertex with in-degree >= 1 must be attributed.
	withIn := 0
	for v := 0; v < g.NumV; v++ {
		if g.InDegree(graph.VID(v)) > 0 {
			withIn++
		}
	}
	if vertices != withIn {
		t.Fatalf("buckets attribute %d vertices, want %d", vertices, withIn)
	}
	// The Figure-1 phenomenon: the highest-degree buckets miss more
	// than the lowest on a power-law graph with a small cache.
	first := buckets[0]
	last := buckets[len(buckets)-1]
	for i := len(buckets) - 1; i >= 0; i-- {
		if buckets[i].Vertices > 0 {
			last = buckets[i]
			break
		}
	}
	if last.MissRate() <= first.MissRate() {
		t.Fatalf("hub bucket miss rate %.3f not above low-degree %.3f",
			last.MissRate(), first.MissRate())
	}
}

func TestSimStatsAccounting(t *testing.T) {
	g := graph.PaperExample()
	stats, _ := SimulatePull(g, cacheTestConfig(), false)
	// 8 index reads (2 lines touched... implementation detail), at
	// least one load per edge for nbr + one per edge for data, one
	// store per vertex.
	if stats.Stores != uint64(g.NumV) {
		t.Fatalf("stores = %d, want %d", stats.Stores, g.NumV)
	}
	if stats.Loads < 2*uint64(g.NumE) {
		t.Fatalf("loads = %d, want >= %d", stats.Loads, 2*g.NumE)
	}
}
