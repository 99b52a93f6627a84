package analytics

import (
	"fmt"
	"math"
	"testing"

	"ihtl/internal/core"
	"ihtl/internal/graph"
	"ihtl/internal/spmv"
	"ihtl/internal/xrand"
)

// referencePPR is a slow, obviously-correct sequential personalized
// PageRank from a single source, mirroring RunPersonalizedPageRankCtx's
// update rule (including source-directed dangling redistribution).
func referencePPR(g *graph.Graph, source, iters int, damping float64, redistribute bool) []float64 {
	n := g.NumV
	ranks := make([]float64, n)
	ranks[source] = 1
	for it := 0; it < iters; it++ {
		dangling := 0.0
		if redistribute {
			for v := 0; v < n; v++ {
				if g.OutDegree(graph.VID(v)) == 0 {
					dangling += ranks[v]
				}
			}
		}
		next := make([]float64, n)
		for v := 0; v < n; v++ {
			sum := 0.0
			for _, u := range g.In(graph.VID(v)) {
				sum += ranks[u] / float64(g.OutDegree(u))
			}
			next[v] = damping * sum
		}
		next[source] += (1 - damping) + damping*dangling
		ranks = next
	}
	return ranks
}

func pprSources(g *graph.Graph, count int) []int {
	// Pick vertices with outgoing edges, spread across the ID range.
	var srcs []int
	for v := 0; v < g.NumV && len(srcs) < count; v += 1 + g.NumV/(3*count) {
		if g.OutDegree(graph.VID(v)) > 0 {
			srcs = append(srcs, v)
		}
	}
	return srcs
}

// pprLane copies lane j of r's interleaved ranks into out, allocating
// it when nil.
func pprLane(r PPRResult, j int, out []float64) []float64 {
	if out == nil {
		out = make([]float64, len(r.Ranks)/r.K)
	}
	for v := range out {
		out[v] = r.Ranks[v*r.K+j]
	}
	return out
}

// TestPPRMatchesReference pins the batched run against K independent
// sequential references on the spmv baselines.
func TestPPRMatchesReference(t *testing.T) {
	g := mustRMAT(t, 9, 8, 41)
	sources := pprSources(g, 4)
	for _, redistribute := range []bool{false, true} {
		opts := PageRankOptions{MaxIters: 20, Tol: -1, RedistributeDangling: redistribute}
		for _, dir := range []spmv.Direction{spmv.Pull, spmv.PushBuffered} {
			e, err := spmv.NewEngine(g, testPool, dir, spmv.Options{})
			if err != nil {
				t.Fatal(err)
			}
			res, err := RunPersonalizedPageRankCtx(nil, e, outDegrees(g), testPool, sources, opts)
			if err != nil {
				t.Fatal(err)
			}
			if res.Iters != 20 || res.K != len(sources) {
				t.Fatalf("%v: ran %d iters K=%d", dir, res.Iters, res.K)
			}
			var lane []float64
			for j, s := range sources {
				want := referencePPR(g, s, 20, 0.85, redistribute)
				lane = pprLane(res, j, lane)
				for v := range want {
					if math.Abs(lane[v]-want[v]) > 1e-10 {
						t.Fatalf("%v redistribute=%v: lane %d rank[%d] = %g, want %g",
							dir, redistribute, j, v, lane[v], want[v])
					}
				}
			}
		}
	}
}

// TestPPRBatchedMatchesScalarRuns pins the K-lane batched run
// bit-for-bit against K separate single-source runs on the Pull
// engine, whose per-destination accumulation order is deterministic:
// amortising the edge stream over lanes must not change a single bit
// of any lane.
func TestPPRBatchedMatchesScalarRuns(t *testing.T) {
	g := mustRMAT(t, 9, 8, 43)
	sources := pprSources(g, 3)
	e, err := spmv.NewEngine(g, testPool, spmv.Pull, spmv.Options{})
	if err != nil {
		t.Fatal(err)
	}
	opts := PageRankOptions{MaxIters: 15, Tol: -1, RedistributeDangling: true}
	batched, err := RunPersonalizedPageRankCtx(nil, e, outDegrees(g), testPool, sources, opts)
	if err != nil {
		t.Fatal(err)
	}
	var lane []float64
	for j, s := range sources {
		single, err := RunPersonalizedPageRankCtx(nil, e, outDegrees(g), testPool, []int{s}, opts)
		if err != nil {
			t.Fatal(err)
		}
		lane = pprLane(batched, j, lane)
		for v := range single.Ranks {
			if math.Float64bits(lane[v]) != math.Float64bits(single.Ranks[v]) {
				t.Fatalf("lane %d rank[%d] = %v, single-source run got %v",
					j, v, lane[v], single.Ranks[v])
			}
		}
		if batched.Deltas[j] != single.Deltas[0] {
			t.Fatalf("lane %d delta %v != single-source delta %v",
				j, batched.Deltas[j], single.Deltas[0])
		}
	}
}

// TestPPRWorkspaceReuse runs one workspace through widths 4, 2, 4 with
// different sources and options: every run must equal, bit for bit, the
// run on fresh arrays, so nothing of a run outlives it in the workspace
// (the Pull engine's accumulation order is deterministic).
func TestPPRWorkspaceReuse(t *testing.T) {
	g := mustRMAT(t, 9, 8, 53)
	e, err := spmv.NewEngine(g, testPool, spmv.Pull, spmv.Options{})
	if err != nil {
		t.Fatal(err)
	}
	deg := outDegrees(g)
	all := pprSources(g, 6)
	var ws PPRWorkspace
	for i, tc := range []struct {
		sources []int
		opts    PageRankOptions
	}{
		{all[:4], PageRankOptions{MaxIters: 12, Tol: -1, RedistributeDangling: true}},
		{all[4:], PageRankOptions{MaxIters: 3, Tol: -1}},
		{all[1:5], PageRankOptions{MaxIters: 12, Tol: -1}},
	} {
		got, err := ws.Run(nil, e, deg, testPool, tc.sources, tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		want, err := RunPersonalizedPageRankCtx(nil, e, deg, testPool, tc.sources, tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		if got.K != want.K || got.Iters != want.Iters || len(got.Ranks) != len(want.Ranks) {
			t.Fatalf("run %d: K=%d iters=%d len=%d, fresh run K=%d iters=%d len=%d",
				i, got.K, got.Iters, len(got.Ranks), want.K, want.Iters, len(want.Ranks))
		}
		for x := range want.Ranks {
			if math.Float64bits(got.Ranks[x]) != math.Float64bits(want.Ranks[x]) {
				t.Fatalf("run %d: ranks[%d] = %v on the reused workspace, %v on fresh arrays", i, x, got.Ranks[x], want.Ranks[x])
			}
		}
		for j := range want.Deltas {
			if got.Deltas[j] != want.Deltas[j] {
				t.Fatalf("run %d: delta[%d] = %v, fresh run %v", i, j, got.Deltas[j], want.Deltas[j])
			}
		}
	}
}

// TestPPRViaIHTLEngine checks the fused batched epilogue path against
// the Pull baseline within float tolerance (the iHTL merge order is
// schedule-dependent on real-valued data, so parity is numeric, not
// bitwise).
func TestPPRViaIHTLEngine(t *testing.T) {
	g := mustRMAT(t, 10, 8, 47)
	sources := pprSources(g, 4)

	pe, err := spmv.NewEngine(g, testPool, spmv.Pull, spmv.Options{})
	if err != nil {
		t.Fatal(err)
	}
	opts := PageRankOptions{MaxIters: 15, Tol: -1, RedistributeDangling: true}
	want, err := RunPersonalizedPageRankCtx(nil, pe, outDegrees(g), testPool, sources, opts)
	if err != nil {
		t.Fatal(err)
	}

	ih, err := core.Build(g, core.Params{HubsPerBlock: 64}.ForBatch(len(sources)))
	if err != nil {
		t.Fatal(err)
	}
	e, err := core.NewEngine(ih, testPool)
	if err != nil {
		t.Fatal(err)
	}
	deg := make([]int, g.NumV)
	for nv := 0; nv < g.NumV; nv++ {
		deg[nv] = g.OutDegree(ih.OldID[nv])
	}
	newSources := make([]int, len(sources))
	for j, s := range sources {
		newSources[j] = int(ih.NewID[s])
	}
	res, err := RunPersonalizedPageRankCtx(nil, e, deg, testPool, newSources, opts)
	if err != nil {
		t.Fatal(err)
	}
	wantLane := make([]float64, g.NumV)
	gotNew := make([]float64, g.NumV)
	gotOld := make([]float64, g.NumV)
	for j := range sources {
		pprLane(want, j, wantLane)
		pprLane(res, j, gotNew)
		ih.PermuteToOld(gotNew, gotOld)
		for v := range wantLane {
			if math.Abs(gotOld[v]-wantLane[v]) > 1e-10 {
				t.Fatalf("lane %d rank[%d] = %g, want %g", j, v, gotOld[v], wantLane[v])
			}
		}
	}
}

// TestPPRSanity checks structural properties: with dangling mass
// redistributed each lane conserves its unit of rank, the source
// carries the largest rank, and vertices unreachable from the source
// stay at exactly zero.
func TestPPRSanity(t *testing.T) {
	// Two components: a 4-cycle 0→1→2→3→0 and an isolated pair 4→5→4.
	g := graph.MustFromEdges(6, []graph.Edge{
		{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 3}, {Src: 3, Dst: 0},
		{Src: 4, Dst: 5}, {Src: 5, Dst: 4},
	})
	e, err := spmv.NewEngine(g, testPool, spmv.Pull, spmv.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunPersonalizedPageRankCtx(nil, e, outDegrees(g), testPool, []int{0},
		PageRankOptions{MaxIters: 60, Tol: -1, RedistributeDangling: true})
	if err != nil {
		t.Fatal(err)
	}
	lane := pprLane(res, 0, nil)
	mass := 0.0
	for v, r := range lane {
		mass += r
		if r > lane[0] && v != 0 {
			t.Errorf("vertex %d outranks the source: %g > %g", v, r, lane[0])
		}
	}
	if math.Abs(mass-1) > 1e-9 {
		t.Errorf("rank mass = %g, want 1", mass)
	}
	if lane[4] != 0 || lane[5] != 0 {
		t.Errorf("unreachable component has rank (%g, %g), want exactly 0", lane[4], lane[5])
	}
}

func TestPPRErrors(t *testing.T) {
	g := mustRMAT(t, 6, 4, 3)
	e, err := spmv.NewEngine(g, testPool, spmv.Pull, spmv.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunPersonalizedPageRankCtx(nil, e, outDegrees(g), testPool, nil, PageRankOptions{}); err == nil {
		t.Error("no sources: want error")
	}
	if _, err := RunPersonalizedPageRankCtx(nil, e, make([]int, 3), testPool, []int{0}, PageRankOptions{}); err == nil {
		t.Error("short outDeg: want error")
	}
	if _, err := RunPersonalizedPageRankCtx(nil, e, outDegrees(g), testPool, []int{g.NumV}, PageRankOptions{}); err == nil {
		t.Error("out-of-range source: want error")
	}
}

// TestPPRSweepTeleportPairs pins the sparse teleport against the dense
// n×K vector it replaced: for every cut of the vertex range in two — so
// that each source row falls first, last and inside a range — the sweep
// over K (row, mass) pairs stores the bits of nv = d·sums + base. The
// sources hold a duplicate, the first and the last vertex, and one lane
// is frozen (its teleport zeroed, as RunPPRLanes leaves it).
func TestPPRSweepTeleportPairs(t *testing.T) {
	const n, k, d = 13, 4, 0.85
	sources := []int{5, 0, 5, n - 1}
	teleport := []float64{0.15, 0.25, 0, 0.4}
	outDeg := make([]int, n)
	invDeg := make([]float64, n)
	for v := range outDeg {
		if outDeg[v] = v % 4; outDeg[v] > 0 {
			invDeg[v] = 1 / float64(outDeg[v])
		}
	}
	fill := func() (ranks, sums []float64) {
		ranks, sums = make([]float64, n*k), make([]float64, n*k)
		for i := range ranks {
			ranks[i] = float64(i%7) / 9
			sums[i] = float64(i%5) / 3
		}
		return ranks, sums
	}
	base := make([]float64, n*k)
	for j, s := range sources {
		base[s*k+j] = teleport[j]
	}
	for cut := 0; cut <= n; cut++ {
		wantRanks, sums := fill()
		wantContrib := make([]float64, n*k)
		wantDelta, wantDangl := make([]float64, 2*k), make([]float64, 2*k)
		for v := 0; v < n; v++ {
			part := 0
			if v >= cut {
				part = k
			}
			for j := 0; j < k; j++ {
				idx := v*k + j
				nv := d*sums[idx] + base[idx]
				wantDelta[part+j] += math.Abs(nv - wantRanks[idx])
				wantRanks[idx] = nv
				wantContrib[idx] = nv * invDeg[v]
				if outDeg[v] == 0 {
					wantDangl[part+j] += nv
				}
			}
		}

		ranks, sums := fill()
		sw := pprSweep{k: k, damping: d, redistribute: true,
			ranks: ranks, sums: sums, contrib: make([]float64, n*k), invDeg: invDeg, outDeg: outDeg,
			sources: sources, teleport: teleport, srcRows: distinctAscending(sources)}
		delta, dangl := make([]float64, 2*k), make([]float64, 2*k)
		sw.rows(0, cut, delta[:k], dangl[:k])
		sw.rows(cut, n, delta[k:], dangl[k:])
		for name, pair := range map[string][2][]float64{
			"ranks": {ranks, wantRanks}, "contrib": {sw.contrib, wantContrib},
			"delta": {delta, wantDelta}, "dangling": {dangl, wantDangl},
		} {
			if !bitsEqual(pair[0], pair[1]) {
				t.Fatalf("cut at %d: %s = %v, dense teleport vector gives %v", cut, name, pair[0], pair[1])
			}
		}
	}
}

// BenchmarkPPRSweep times PPR's row op — the plain rows of the sweep,
// nv = d·sums with its delta, rank and contribution — over the 16 k rows
// of the small-resident graph (R-MAT 14) at 4 and 8 lanes, under the Go
// twin and, where the CPU and build have it, the AVX2 body: ns per
// row-lane.
func BenchmarkPPRSweep(b *testing.B) {
	const n = 1 << 14
	defer func(on bool) { pprRowAsm = on }(pprRowAsm)
	arms := []string{"twin"}
	if pprRowAsm {
		arms = append(arms, "avx2")
	}
	rng := xrand.New(38)
	for _, k := range []int{4, 8} {
		sw := pprSweep{k: k, damping: 0.85, sums: make([]float64, n*k), ranks: make([]float64, n*k),
			contrib: make([]float64, n*k), invDeg: make([]float64, n)}
		for i := range sw.sums {
			sw.sums[i] = rng.Float64() / n
		}
		for v := range sw.invDeg {
			sw.invDeg[v] = 1 / float64(1+rng.Intn(32))
		}
		delta := make([]float64, k)
		for _, arm := range arms {
			b.Run(fmt.Sprintf("k=%d/%s", k, arm), func(b *testing.B) {
				pprRowAsm = arm == "avx2"
				for i := 0; i < b.N; i++ {
					sw.plainRows(0, n, delta, nil)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n*k), "ns/row-lane")
			})
		}
	}
}
