package spmv

import (
	"ihtl/internal/cache"
	"ihtl/internal/graph"
)

// Simulation replays the memory reference stream of one SpMV
// iteration against a simulated cache hierarchy (see internal/cache
// for why a simulator stands in for PAPI). The trace models exactly
// the arrays the real kernel touches:
//
//	pull:  stream InIndex (8 B/vertex) and InNbrs (4 B/edge),
//	       random-read srcData[u] (8 B), stream-write dstData[v];
//	push:  stream OutIndex and OutNbrs, sequential-read srcData[v],
//	       random-write dstData[u].
//
// Traces are single-threaded: the locality phenomenon under study is
// per-core capacity, and a deterministic single-stream trace makes
// the experiments reproducible.

// VertexBytes is the simulated per-vertex data size; the paper uses
// 8-byte PageRank values (§4.1).
const VertexBytes = 8

// SimStats aggregates the result of one simulated iteration.
type SimStats struct {
	Loads, Stores uint64
	L2            cache.LevelStats
	L3            cache.LevelStats
	LLCMissRate   float64
}

// DegreeMissBucket is one point of the Figure 1 curve, aggregating
// the vertices whose in-degree falls in [DegreeLo, DegreeHi):
// Accesses counts the memory accesses (loads+stores) issued while
// processing those vertices' in-edges, Misses the LLC misses among
// them, so MissRate is "LLC misses per memory access" — the
// conditional miss rate of Figure 1.
type DegreeMissBucket struct {
	DegreeLo, DegreeHi int
	Vertices           int
	Accesses           uint64
	Misses             uint64
}

// MissRate returns the bucket's miss rate (0 when empty).
func (b DegreeMissBucket) MissRate() float64 {
	if b.Accesses == 0 {
		return 0
	}
	return float64(b.Misses) / float64(b.Accesses)
}

// SimulatePull replays a pull-direction SpMV iteration. When
// byDegree is true it also attributes the misses of the random
// source-data reads to log2 in-degree buckets (Figure 1).
func SimulatePull(g *graph.Graph, cfg cache.Config, byDegree bool) (SimStats, []DegreeMissBucket) {
	h := cache.NewHierarchy(cfg)
	var as cache.AddressSpace
	inIndex := as.Alloc(g.NumV+1, 8)
	inNbrs := as.Alloc(int(g.NumE), 4)
	srcData := as.Alloc(g.NumV, VertexBytes)
	dstData := as.Alloc(g.NumV, VertexBytes)

	llc := h.LastLevel()
	var buckets []DegreeMissBucket
	bucketOf := func(deg int) int {
		b := 0
		for d := deg; d > 1; d >>= 1 {
			b++
		}
		return b
	}
	if byDegree {
		buckets = make([]DegreeMissBucket, 0, 32)
	}

	snapshot := func() (uint64, uint64) {
		loads, stores := h.MemoryAccesses()
		return loads + stores, h.Stats(llc).Misses
	}
	for v := 0; v < g.NumV; v++ {
		h.ReadRange(inIndex.Addr(v), 16) // index[v], index[v+1]
		lo, hi := g.InIndex[v], g.InIndex[v+1]
		deg := int(hi - lo)

		var beforeAcc, beforeMiss uint64
		if byDegree {
			beforeAcc, beforeMiss = snapshot()
		}
		for i := lo; i < hi; i++ {
			h.ReadRange(inNbrs.Addr(int(i)), 4)    // neighbour ID (streamed)
			h.Read(srcData.Addr(int(g.InNbrs[i]))) // random source read
		}
		if byDegree && deg > 0 {
			afterAcc, afterMiss := snapshot()
			b := bucketOf(deg)
			for len(buckets) <= b {
				lo2 := 1 << uint(len(buckets))
				buckets = append(buckets, DegreeMissBucket{DegreeLo: lo2, DegreeHi: lo2 * 2})
			}
			buckets[b].Vertices++
			buckets[b].Accesses += afterAcc - beforeAcc
			buckets[b].Misses += afterMiss - beforeMiss
		}
		h.Write(dstData.Addr(v))
	}
	return collectStats(h), buckets
}

func collectStats(h *cache.Hierarchy) SimStats {
	loads, stores := h.MemoryAccesses()
	s := SimStats{
		Loads:  loads,
		Stores: stores,
		L2:     h.Stats(cache.L2),
		L3:     h.Stats(cache.L3),
	}
	s.LLCMissRate = h.Stats(h.LastLevel()).MissRate()
	return s
}
