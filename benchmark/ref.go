package main

import (
	"math"
	"sync"

	"ihtl"
)

// Frozen references. Everything here runs on the ORIGINAL graph's CSC
// arrays with plain loops and shares no code with the engines, so a
// change to any layer is checked against something it cannot have
// touched. Each output row is summed by one loop in one order, so the
// row split across goroutines does not change a single bit.

// refSweepRows computes dst[v] = Σ src[u] over the in-neighbours u of
// v for rows [lo, hi): the sequential CSC pull sweep.
func refSweepRows(g *ihtl.Graph, src, dst []float64, lo, hi int) {
	for v := lo; v < hi; v++ {
		var sum float64
		for _, u := range g.InNbrs[g.InIndex[v]:g.InIndex[v+1]] {
			sum += src[u]
		}
		dst[v] = sum
	}
}

// refSweep runs refSweepRows over all rows on `workers` goroutines.
func refSweep(g *ihtl.Graph, src, dst []float64, workers int) {
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := g.NumV*w/workers, g.NumV*(w+1)/workers
		wg.Add(1)
		go func() {
			defer wg.Done()
			refSweepRows(g, src, dst, lo, hi)
		}()
	}
	wg.Wait()
}

const refDamping = 0.85 // the analytics default

// refPageRank iterates PR(v) = (1-d)/n + d·Σ PR(u)/deg⁺(u) from the
// uniform vector until the L1 change drops below tol or maxIters.
func refPageRank(g *ihtl.Graph, tol float64, maxIters, workers int) (ranks []float64, iters int) {
	n := g.NumV
	ranks = make([]float64, n)
	contrib, sums := make([]float64, n), make([]float64, n)
	for v := range ranks {
		ranks[v] = 1 / float64(n)
	}
	for iters < maxIters {
		refContrib(g, ranks, contrib)
		refSweep(g, contrib, sums, workers)
		var delta float64
		for v := range ranks {
			nv := (1-refDamping)/float64(n) + refDamping*sums[v]
			delta += math.Abs(nv - ranks[v])
			ranks[v] = nv
		}
		iters++
		if delta < tol {
			break
		}
	}
	return ranks, iters
}

// refPPR runs `iters` iterations of personalized PageRank from source:
// PR(v) = d·Σ PR(u)/deg⁺(u) + (1-d)·[v = source], from the unit vector.
func refPPR(g *ihtl.Graph, source ihtl.VID, iters, workers int) []float64 {
	n := g.NumV
	ranks := make([]float64, n)
	contrib, sums := make([]float64, n), make([]float64, n)
	ranks[source] = 1
	for i := 0; i < iters; i++ {
		refContrib(g, ranks, contrib)
		refSweep(g, contrib, sums, workers)
		for v := range ranks {
			ranks[v] = refDamping * sums[v]
		}
		ranks[source] += 1 - refDamping
	}
	return ranks
}

func refContrib(g *ihtl.Graph, ranks, contrib []float64) {
	for v := range ranks {
		contrib[v] = 0
		if d := g.OutIndex[v+1] - g.OutIndex[v]; d > 0 {
			contrib[v] = ranks[v] / float64(d)
		}
	}
}

// maxRelErr is the largest per-element |got-want| / |want|; where want
// is 0 (a row without in-edges) the absolute error stands in.
func maxRelErr(got, want []float64) float64 {
	var worst float64
	for i, w := range want {
		err := math.Abs(got[i] - w)
		if w != 0 {
			err /= math.Abs(w)
		}
		worst = math.Max(worst, err)
	}
	return worst
}

func l1Dist(a, b []float64) float64 {
	var d float64
	for i := range a {
		d += math.Abs(a[i] - b[i])
	}
	return d
}
