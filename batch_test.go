package ihtl_test

import (
	"cmp"
	"math"
	"slices"
	"testing"

	"ihtl"
	"ihtl/internal/analytics"
	"ihtl/internal/core"
	"ihtl/internal/gen"
	"ihtl/internal/spmv"
)

func TestPublicAPIBatchFlow(t *testing.T) {
	g, err := ihtl.GenerateRMAT(10, 8, 42)
	if err != nil {
		t.Fatal(err)
	}
	pool := ihtl.NewPool(4)
	defer pool.Close()

	const k = 4
	eng, err := ihtl.NewBatchEngine(g, pool, ihtl.Params{HubsPerBlock: 256}, k)
	if err != nil {
		t.Fatal(err)
	}
	ih := eng.IHTL()

	// Pack K copies of the same dense vector; every lane of the batched
	// step must then equal one scalar Step.
	dense := make([]float64, g.NumV)
	for v := range dense {
		dense[v] = float64(v % 7)
	}
	src := ihtl.NewBatch(g.NumV, k)
	srcNew := ihtl.NewBatch(g.NumV, k)
	for j := 0; j < k; j++ {
		src.SetLane(j, dense)
	}
	src.PermuteToNew(ih, srcNew)

	dst := ihtl.NewBatch(g.NumV, k)
	eng.StepBatch(srcNew, dst)
	dstOld := ihtl.NewBatch(g.NumV, k)
	dst.PermuteToOld(ih, dstOld)

	denseNew := make([]float64, g.NumV)
	want := make([]float64, g.NumV)
	wantOld := make([]float64, g.NumV)
	ih.PermuteToNew(dense, denseNew)
	eng.Step(denseNew, want)
	ih.PermuteToOld(want, wantOld)

	lane := make([]float64, g.NumV)
	for j := 0; j < k; j++ {
		dstOld.Lane(j, lane)
		for v := range lane {
			if math.Float64bits(lane[v]) != math.Float64bits(wantOld[v]) {
				t.Fatalf("lane %d vertex %d: batched %v != scalar %v", j, v, lane[v], wantOld[v])
			}
		}
	}

	// Accessors.
	src.Set(3, 1, 42)
	if src.At(3, 1) != 42 {
		t.Fatal("Batch Set/At broken")
	}
}

func TestPublicAPIPersonalizedPageRank(t *testing.T) {
	g, err := ihtl.GenerateRMAT(10, 8, 7)
	if err != nil {
		t.Fatal(err)
	}
	pool := ihtl.NewPool(4)
	defer pool.Close()

	sources := []ihtl.VID{1, 17, 300}
	eng, err := ihtl.NewBatchEngine(g, pool, ihtl.Params{HubsPerBlock: 256}, len(sources))
	if err != nil {
		t.Fatal(err)
	}
	opt := ihtl.PageRankOptions{MaxIters: 15, Tol: -1, RedistributeDangling: true}
	ranks, err := ihtl.PersonalizedPageRank(eng, pool, sources, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(ranks) != len(sources) {
		t.Fatalf("got %d rank vectors, want %d", len(ranks), len(sources))
	}
	for j, s := range sources {
		mass := 0.0
		for v, r := range ranks[j] {
			if r < 0 {
				t.Fatalf("lane %d: negative rank at %d", j, v)
			}
			mass += r
		}
		if mass > 1+1e-9 || mass <= 0 {
			t.Fatalf("lane %d: rank mass %g outside (0, 1]", j, mass)
		}
		if ranks[j][s] == 0 {
			t.Fatalf("lane %d: source %d has zero rank", j, s)
		}
	}

	if _, err := ihtl.PersonalizedPageRank(eng, pool, []ihtl.VID{ihtl.VID(g.NumV)}, opt); err == nil {
		t.Fatal("out-of-range source: want error")
	}

	// The engine keeps the run's arrays for its next call: results
	// already returned are the caller's and stay as they were, and a
	// repeat after a call of another width reads the same.
	first := make([][]float64, len(ranks))
	for j := range ranks {
		first[j] = append([]float64(nil), ranks[j]...)
	}
	if _, err := ihtl.PersonalizedPageRank(eng, pool, sources[1:2], opt); err != nil {
		t.Fatal(err)
	}
	again, err := ihtl.PersonalizedPageRank(eng, pool, sources, opt)
	if err != nil {
		t.Fatal(err)
	}
	for j := range first {
		for v := range first[j] {
			if ranks[j][v] != first[j][v] {
				t.Fatalf("lane %d: rank[%d] of the first call changed from %g to %g under later calls", j, v, first[j][v], ranks[j][v])
			}
			if d := again[j][v] - first[j][v]; d > 1e-12 || d < -1e-12 {
				t.Fatalf("lane %d: rank[%d] = %g on the repeat, %g on the first call", j, v, again[j][v], first[j][v])
			}
		}
	}

	// Without a pool the element-wise passes (the wipe of the kept
	// arrays, the un-interleave into original IDs) run on the caller.
	serial, err := ihtl.PersonalizedPageRank(eng, nil, sources, opt)
	if err != nil {
		t.Fatal(err)
	}
	for j := range first {
		for v := range first[j] {
			if d := serial[j][v] - first[j][v]; d > 1e-12 || d < -1e-12 {
				t.Fatalf("lane %d: rank[%d] = %g without a pool, %g with one", j, v, serial[j][v], first[j][v])
			}
		}
	}
}

// denseStepper hides an engine's active-row entry, so the analytics
// driver steps it densely from the first iteration to the last.
type denseStepper struct{ spmv.Stepper }

// TestPublicAPIPPRActiveRowsUnpermute runs ppr8 — eight sources, ten
// iterations — on the web analog at 200 k pages, from sources spread
// over the vertex range, a run that ends in the active-row mode, and
// from the eight highest out-degrees (the benchmark's choice), a run
// that leaves it before its ninth iteration here. In both,
// PersonalizedPageRank's lanes — un-permuted only on the rows the run
// names in the first, in full in the second — must be bit for bit a
// dense run's un-permuted in full. The same run through the analytics
// driver must report those rows (Rows set, or nil for the run that
// left the mode) and hold all +0.0 outside them. The engines' static
// flipped split makes the two runs' sums reproducible at all.
func TestPublicAPIPPRActiveRowsUnpermute(t *testing.T) {
	cfg := gen.DefaultWeb(200_000, 1002)
	cfg.MeanOutDegree = 6 // the benchmark's web-sparse shape
	g, err := gen.Web(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pool := ihtl.NewPool(2)
	defer pool.Close()
	eng, err := ihtl.NewEngineOpts(nil, g, pool, ihtl.Params{}, ihtl.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ih := eng.IHTL()
	if len(ih.Blocks) == 0 {
		t.Fatal("the web analog built no flipped block")
	}
	ce, err := core.NewEngine(ih, pool)
	if err != nil {
		t.Fatal(err)
	}
	const k = 8
	n := g.NumV
	spread := make([]ihtl.VID, k)
	for j := range spread {
		spread[j] = ihtl.VID(j*n/k + 1)
	}
	top := make([]ihtl.VID, n)
	for v := range top {
		top[v] = ihtl.VID(v)
	}
	slices.SortFunc(top, func(a, b ihtl.VID) int {
		return cmp.Or(cmp.Compare(g.OutDegree(b), g.OutDegree(a)), cmp.Compare(a, b))
	})
	opt := ihtl.PageRankOptions{MaxIters: 10, Tol: -1}
	for _, c := range []struct {
		name      string
		sources   []ihtl.VID
		endActive bool
	}{{"spread", spread, true}, {"top-out-degree", top[:k], false}} {
		lanes, err := ihtl.PersonalizedPageRank(eng, pool, c.sources, opt)
		if err != nil {
			t.Fatal(err)
		}
		srcNew := make([]int, k)
		for j, s := range c.sources {
			srcNew[j] = int(ih.NewID[s])
		}
		var ws analytics.PPRWorkspace
		res, err := ws.Run(nil, ce, ih.OutDegrees(), pool, srcNew, opt)
		if err != nil {
			t.Fatal(err)
		}
		if (res.Rows != nil) != c.endActive {
			t.Fatalf("%s: Rows set = %v, want a run that ends in the active-row mode = %v", c.name, res.Rows != nil, c.endActive)
		}
		if res.Rows != nil {
			if rows := res.Rows.Count(); rows == 0 || rows > n/8 {
				t.Fatalf("%s: the run ended with %d of %d rows ranked", c.name, rows, n)
			}
			for nv := 0; nv < n; nv++ {
				if res.Rows.Has(nv) {
					continue
				}
				for j, x := range res.Ranks[nv*k : nv*k+k] {
					if math.Float64bits(x) != 0 {
						t.Fatalf("%s: row %d lane %d = %v outside Rows", c.name, nv, j, x)
					}
				}
			}
		}

		dense, err := analytics.RunPersonalizedPageRankCtx(nil, denseStepper{ce}, ih.OutDegrees(), pool, srcNew, opt)
		if err != nil {
			t.Fatal(err)
		}
		if dense.Rows != nil {
			t.Fatalf("%s: a dense run reported active rows", c.name)
		}
		for v := 0; v < n; v++ {
			nv := int(ih.NewID[v])
			for j := 0; j < k; j++ {
				if got, want := lanes[j][v], dense.Ranks[nv*k+j]; math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s: lane %d vertex %d = %v, dense run %v", c.name, j, v, got, want)
				}
			}
		}
	}
}
