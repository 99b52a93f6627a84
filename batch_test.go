package ihtl_test

import (
	"math"
	"testing"

	"ihtl"
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
