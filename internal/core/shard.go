package core

// Sharded iHTL construction: the original vertex range is cut into N
// contiguous shards, each shard's INTERNAL edges build a private iHTL
// graph (own hub selection, flipped blocks, sparse block and degree
// buckets — so each shard's per-phase destination working set is sized
// to ITS vertex range, not the whole graph's), and the cross-shard
// edges are routed into one push-direction exchange CSR in the sharded
// ID space. The exchange is drained at step time with exactly the
// propagation-blocked (pb) bin/drain discipline of sparse.go, which is
// what makes sharded execution deterministic by construction; see
// sharded.go for the runtime and DESIGN.md §15 for the argument.
//
// Shard ownership is by SOURCE: an edge u→v with u in shard s is
// either local (v also in s's range, traversed by s's own engine) or
// cross (routed through the exchange). Every edge is traversed exactly
// once per step either way, preserving the paper's per-edge-cost
// frame.
//
// Sharded ID space. Shard s owns the ORIGINAL vertex range
// [Bounds[s], Bounds[s+1]); its private iHTL build relabels those ns
// vertices into a local [0, ns) hub-first order, and the sharded
// GLOBAL ID of a vertex is Bounds[s] + localNewID. Shard ranges are
// therefore contiguous and identical in both original and sharded
// spaces, and a shard's engine steps directly on the subvector
// [Bounds[s], Bounds[s+1]) of the global vectors — no copies.

import (
	"context"
	"fmt"
	"slices"
	"sort"

	"ihtl/internal/graph"
	"ihtl/internal/sched"
)

// ShardedIHTL is a built sharded iHTL graph: the shard plan, one
// private IHTL per shard, the global relabeling, and the cross-shard
// exchange topology.
type ShardedIHTL struct {
	// NumV, NumE mirror the original graph.
	NumV int
	NumE int64
	// Bounds are the NumShards+1 contiguous vertex-range boundaries,
	// edge-balanced over total (in+out) degree. Identical in original
	// and sharded ID space.
	Bounds []int
	// Shards are the per-shard iHTL graphs, each over its local
	// [0, ns) ID space.
	Shards []*IHTL
	// XIndex/XRows are the cross-shard exchange topology as ONE push
	// CSR in sharded-global ID space: XRows[XIndex[u]:XIndex[u+1]] are
	// the sharded-global destination rows of source u's cross-shard
	// edges, sorted ascending per source. Worker-count-independent and
	// serialisable; the per-(chunk, bucket) segment state derived from
	// it lives in the engine (see xState in sharded.go).
	XIndex []int64
	XRows  []uint32
	// NewID maps original vertex IDs to sharded-global IDs; OldID is
	// the inverse.
	NewID, OldID []graph.VID
	// HubsPerBlock is the maximum resolved B across shards; the
	// exchange sizes its destination buckets from it, mirroring the
	// pb kernel's §3.4 cache budget.
	HubsPerBlock int
}

// NumShards returns the number of shards.
func (sg *ShardedIHTL) NumShards() int { return len(sg.Shards) }

// LocalEdges returns the number of edges internal to some shard.
func (sg *ShardedIHTL) LocalEdges() int64 {
	var n int64
	for _, ih := range sg.Shards {
		n += ih.NumE
	}
	return n
}

// CrossEdges returns the number of cross-shard edges the exchange
// carries.
func (sg *ShardedIHTL) CrossEdges() int64 { return int64(len(sg.XRows)) }

// BuildSharded cuts g into nshards vertex-range shards and builds each
// shard's private iHTL graph plus the cross-shard exchange topology.
// The per-shard iHTL builds run across the pool's workers; a nil pool
// builds sequentially.
func BuildSharded(g *graph.Graph, p Params, pool *sched.Pool, nshards int) (*ShardedIHTL, error) {
	return BuildShardedCtx(nil, g, p, pool, nshards)
}

// BuildShardedCtx is BuildSharded with cancellation and panic
// isolation per BuildWithCtx's contract, checked between shards and
// inside each shard's build.
func BuildShardedCtx(ctx context.Context, g *graph.Graph, p Params, pool *sched.Pool, nshards int) (*ShardedIHTL, error) {
	if g == nil {
		return nil, fmt.Errorf("core: nil graph")
	}
	if nshards < 1 {
		return nil, fmt.Errorf("core: shard count %d < 1", nshards)
	}
	if nshards > g.NumV && g.NumV > 0 {
		nshards = g.NumV
	}
	sg := &ShardedIHTL{NumV: g.NumV, NumE: g.NumE}
	sg.Bounds = shardBounds(g, nshards)
	sg.Shards = make([]*IHTL, nshards)
	sg.NewID = make([]graph.VID, g.NumV)
	sg.OldID = make([]graph.VID, g.NumV)
	for s := 0; s < nshards; s++ {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		lo, hi := sg.Bounds[s], sg.Bounds[s+1]
		lg := extractShardGraph(g, lo, hi)
		// The resident rule (Params.resident) sees lg.NumV: a shard's Step
		// reads and writes only its own subvector, so that range — not the
		// whole graph's — is what has to fit the cache.
		ih, err := BuildWithCtx(ctx, lg, p, pool)
		if err != nil {
			return nil, fmt.Errorf("core: shard %d build: %w", s, err)
		}
		sg.Shards[s] = ih
		if ih.HubsPerBlock > sg.HubsPerBlock {
			sg.HubsPerBlock = ih.HubsPerBlock
		}
		for v := lo; v < hi; v++ {
			sg.NewID[v] = graph.VID(lo) + ih.NewID[v-lo]
		}
		for i := lo; i < hi; i++ {
			sg.OldID[i] = graph.VID(lo) + ih.OldID[i-lo]
		}
	}
	sg.buildExchange(g)
	if got := sg.LocalEdges() + sg.CrossEdges(); got != g.NumE {
		return nil, fmt.Errorf("core: sharded edge routing lost edges: local+cross %d != %d", got, g.NumE)
	}
	return sg, nil
}

// shardBounds cuts [0, NumV) into nshards contiguous ranges balanced
// by total (in+out) degree — the per-vertex traversal work a shard
// owns, local and cross edges alike.
func shardBounds(g *graph.Graph, nshards int) []int {
	deg := make([]int64, g.NumV+1)
	for v := 0; v < g.NumV; v++ {
		deg[v+1] = deg[v] + int64(g.OutDegree(graph.VID(v))+g.InDegree(graph.VID(v)))
	}
	return sched.EdgeBalancedParts(deg, nshards)
}

// extractShardGraph builds the subgraph of g induced by the vertex
// range [lo, hi), reindexed to [0, hi-lo). Zero-degree local vertices
// are KEPT (unlike graph.Build's compaction): the shard must cover its
// whole vertex range so the global vectors slice cleanly. Filtering a
// sorted adjacency row and subtracting lo preserves its order, so the
// local rows stay sorted.
func extractShardGraph(g *graph.Graph, lo, hi int) *graph.Graph {
	ns := hi - lo
	lg := &graph.Graph{NumV: ns}
	lg.OutIndex = make([]int64, ns+1)
	lg.InIndex = make([]int64, ns+1)
	for v := lo; v < hi; v++ {
		out, in := 0, 0
		for _, d := range g.Out(graph.VID(v)) {
			if int(d) >= lo && int(d) < hi {
				out++
			}
		}
		for _, s := range g.In(graph.VID(v)) {
			if int(s) >= lo && int(s) < hi {
				in++
			}
		}
		lg.OutIndex[v-lo+1] = lg.OutIndex[v-lo] + int64(out)
		lg.InIndex[v-lo+1] = lg.InIndex[v-lo] + int64(in)
	}
	lg.NumE = lg.OutIndex[ns]
	lg.OutNbrs = make([]graph.VID, lg.OutIndex[ns])
	lg.InNbrs = make([]graph.VID, lg.InIndex[ns])
	oc, ic := 0, 0
	for v := lo; v < hi; v++ {
		for _, d := range g.Out(graph.VID(v)) {
			if int(d) >= lo && int(d) < hi {
				lg.OutNbrs[oc] = d - graph.VID(lo)
				oc++
			}
		}
		for _, s := range g.In(graph.VID(v)) {
			if int(s) >= lo && int(s) < hi {
				lg.InNbrs[ic] = s - graph.VID(lo)
				ic++
			}
		}
	}
	return lg
}

// buildExchange routes every cross-shard edge into the exchange CSR:
// one push row per sharded-global source, destinations mapped to
// sharded-global IDs and sorted ascending per source. Iterating
// sources in sharded-global order makes the step-time bin sweep read
// src sequentially, like the pb kernel's transposed CSR.
func (sg *ShardedIHTL) buildExchange(g *graph.Graph) {
	n := sg.NumV
	sg.XIndex = make([]int64, n+1)
	for u := 0; u < n; u++ {
		orig := sg.OldID[u]
		s := sg.ShardOf(u)
		lo, hi := sg.Bounds[s], sg.Bounds[s+1]
		cnt := 0
		for _, d := range g.Out(orig) {
			if int(d) < lo || int(d) >= hi {
				cnt++
			}
		}
		sg.XIndex[u+1] = sg.XIndex[u] + int64(cnt)
	}
	sg.XRows = make([]uint32, sg.XIndex[n])
	for u := 0; u < n; u++ {
		orig := sg.OldID[u]
		s := sg.ShardOf(u)
		lo, hi := sg.Bounds[s], sg.Bounds[s+1]
		c := sg.XIndex[u]
		for _, d := range g.Out(orig) {
			if int(d) < lo || int(d) >= hi {
				sg.XRows[c] = uint32(sg.NewID[d])
				c++
			}
		}
		slices.Sort(sg.XRows[sg.XIndex[u]:sg.XIndex[u+1]])
	}
}

// ShardOf returns the shard owning sharded-global (equivalently,
// original) vertex ID v.
func (sg *ShardedIHTL) ShardOf(v int) int {
	// Index of the first upper boundary strictly above v.
	return sort.SearchInts(sg.Bounds[1:], v+1)
}

// PermuteToNew scatters a vector indexed by original IDs into
// sharded-global ID order: out[NewID[v]] = in[v].
func (sg *ShardedIHTL) PermuteToNew(in, out []float64) {
	if len(in) != sg.NumV || len(out) != sg.NumV {
		panic("core: vector length mismatch")
	}
	for v, nv := range sg.NewID {
		out[nv] = in[v]
	}
}

// PermuteToOld is the inverse of PermuteToNew: out[v] = in[NewID[v]].
func (sg *ShardedIHTL) PermuteToOld(in, out []float64) {
	if len(in) != sg.NumV || len(out) != sg.NumV {
		panic("core: vector length mismatch")
	}
	for v, nv := range sg.NewID {
		out[v] = in[nv]
	}
}

// PermuteToNewBatch scatters K interleaved vectors indexed by original
// IDs into sharded-global ID order, like IHTL.PermuteToNewBatch.
func (sg *ShardedIHTL) PermuteToNewBatch(in, out []float64, k int) {
	if len(in) != sg.NumV*k || len(out) != sg.NumV*k {
		panic("core: batch vector length mismatch")
	}
	for v, nv := range sg.NewID {
		copy(out[int(nv)*k:int(nv)*k+k], in[v*k:v*k+k])
	}
}

// PermuteToOldBatch is the inverse of PermuteToNewBatch.
func (sg *ShardedIHTL) PermuteToOldBatch(in, out []float64, k int) {
	if len(in) != sg.NumV*k || len(out) != sg.NumV*k {
		panic("core: batch vector length mismatch")
	}
	for v, nv := range sg.NewID {
		copy(out[v*k:v*k+k], in[int(nv)*k:int(nv)*k+k])
	}
}
