package graph

import (
	"context"
	"errors"
	"fmt"

	"ihtl/internal/faultinject"
	"ihtl/internal/sched"
)

// BuildOptions controls how an edge list is turned into a Graph.
type BuildOptions struct {
	// Dedup removes duplicate (src,dst) pairs. The paper's datasets
	// are simple graphs, so this defaults to on in Build.
	Dedup bool
	// DropSelfLoops removes (v,v) edges.
	DropSelfLoops bool
	// RemoveZeroDegree compacts away vertices with neither in- nor
	// out-edges and renumbers the rest, as the paper does ("counted
	// after removing zero degree vertices because of their
	// destructive effect").
	RemoveZeroDegree bool
	// Pool is the worker pool to parallelise the build with. A nil
	// Pool is one worker: the build opens a private one-worker pool.
	// The output is bit-for-bit the same for every worker count.
	Pool *sched.Pool
}

// DefaultBuildOptions mirror the paper's dataset preparation.
func DefaultBuildOptions() BuildOptions {
	return BuildOptions{Dedup: true, DropSelfLoops: false, RemoveZeroDegree: true}
}

// FromEdges builds a Graph over vertex IDs [0, numV) from the given
// edge list using the default options, returning an error on
// out-of-range IDs. It is shorthand for Build with
// DefaultBuildOptions; the panicking form for known-valid fixture
// edges is MustFromEdges.
func FromEdges(numV int, edges []Edge) (*Graph, error) {
	return Build(numV, edges, DefaultBuildOptions())
}

// Build constructs the dual CSR/CSC representation from an edge list
// in O(V + E) time with no comparison sort anywhere: the edge list is
// bucketed by source, and two transpositions put every list in order.
// Transposing visits rows in ascending order, so each transposed list
// comes out ascending with duplicates adjacent — CSR → CSC sorts the
// in-lists, one dedup pass removes the duplicates, and CSC → CSR hands
// back out-lists that are ascending and already duplicate-free. The
// input slice is not modified. Every pass runs across the pool's
// workers over contiguous ascending parts, which makes the output the
// same for every worker count (sched.ScatterByKey).
func Build(numV int, edges []Edge, opt BuildOptions) (*Graph, error) {
	return BuildCtx(nil, numV, edges, opt)
}

// errBuildAborted is the placeholder error of a phase check that
// observed the pool's abort flag; the deferred region close replaces
// it with the underlying cause (ctx.Err() or a *sched.PanicError).
var errBuildAborted = errors.New("graph: build aborted")

// BuildCtx is Build with cancellation and panic isolation: the whole
// multi-pass pipeline runs inside one fallible pool region, so
// cancelling ctx stops in-flight passes at their next chunk claim and
// returns ctx.Err() between phases, and a panic in any pool worker
// comes back as a *sched.PanicError instead of crashing the process.
// ctx may be nil (no cancellation). A nil opt.Pool runs the same passes
// on a private one-worker pool, closed before BuildCtx returns, with
// the same failure contract.
func BuildCtx(ctx context.Context, numV int, edges []Edge, opt BuildOptions) (g *Graph, err error) {
	if numV < 0 || numV >= 1<<32 {
		return nil, fmt.Errorf("graph: vertex count %d out of range", numV)
	}
	pool := opt.Pool
	if pool == nil {
		pool = sched.NewPool(1)
		defer pool.Close()
	}
	end, err := pool.Fallible(ctx)
	if err != nil {
		return nil, err
	}
	defer func() {
		if rerr := end(); rerr != nil {
			g, err = nil, rerr
		}
	}()
	check := func() error {
		if pool.Aborted() {
			return errBuildAborted
		}
		if ctx != nil {
			return ctx.Err()
		}
		return nil
	}
	if bad := validateEdges(numV, edges, pool); bad >= 0 {
		e := edges[bad]
		return nil, fmt.Errorf("graph: edge %d (%d->%d) out of range [0,%d)", bad, e.Src, e.Dst, numV)
	}
	if err := check(); err != nil {
		return nil, err
	}
	if opt.DropSelfLoops {
		edges = dropSelfLoops(edges, pool)
		if err := check(); err != nil {
			return nil, err
		}
	}

	g = &Graph{NumV: numV}
	index, nbrs := bucketBySource(numV, edges, pool)
	if err := check(); err != nil {
		return nil, err
	}
	g.InIndex, g.InNbrs = transposeAdjacency(index, nbrs, pool)
	if err := check(); err != nil {
		return nil, err
	}
	if opt.Dedup {
		g.InIndex, g.InNbrs = dedupAdjacency(g.InIndex, g.InNbrs, pool)
		if err := check(); err != nil {
			return nil, err
		}
	}
	g.OutIndex, g.OutNbrs = transposeAdjacency(g.InIndex, g.InNbrs, pool)
	if err := check(); err != nil {
		return nil, err
	}
	g.NumE = g.OutIndex[numV]

	if opt.RemoveZeroDegree {
		g = compactZeroDegree(g, pool)
	}
	return g, nil
}

// validateEdges returns the index of the first out-of-range edge, or
// -1 when all edges are valid. The reduction keeps the earliest bad
// index, so the error names the same edge for every worker count.
func validateEdges(numV int, edges []Edge, pool *sched.Pool) int {
	bad := make([]int, pool.Workers())
	for i := range bad {
		bad[i] = -1
	}
	pool.ForStatic(len(edges), func(w, lo, hi int) {
		bad[w] = firstBadEdge(numV, edges[lo:hi], lo)
	})
	first := -1
	for _, b := range bad {
		if b >= 0 && (first < 0 || b < first) {
			first = b
		}
	}
	return first
}

//ihtl:noalloc
func firstBadEdge(numV int, edges []Edge, base int) int {
	for i, e := range edges {
		if int(e.Src) >= numV || int(e.Dst) >= numV {
			return base + i
		}
	}
	return -1
}

// dropSelfLoops filters (v,v) edges, preserving edge order: a stable
// per-worker count/prefix/fill.
func dropSelfLoops(edges []Edge, pool *sched.Pool) []Edge {
	w := pool.Workers()
	counts := make([]int64, w+1)
	pool.ForStatic(len(edges), func(worker, lo, hi int) {
		counts[worker+1] = countNonLoops(edges[lo:hi])
	})
	for i := 0; i < w; i++ {
		counts[i+1] += counts[i]
	}
	kept := make([]Edge, counts[w])
	pool.ForStatic(len(edges), func(worker, lo, hi int) {
		fillNonLoops(edges[lo:hi], kept[counts[worker]:counts[worker+1]])
	})
	return kept
}

//ihtl:noalloc
func countNonLoops(edges []Edge) int64 {
	var n int64
	for _, e := range edges {
		if e.Src != e.Dst {
			n++
		}
	}
	return n
}

//ihtl:noalloc
func fillNonLoops(edges []Edge, out []Edge) {
	i := 0
	for _, e := range edges {
		if e.Src != e.Dst {
			out[i] = e
			i++
		}
	}
}

// bucketBySource groups the edge list into one row of destinations per
// source, each row in input order.
func bucketBySource(numV int, edges []Edge, pool *sched.Pool) ([]int64, []VID) {
	nparts := pool.Workers()
	return sched.ScatterByKey(pool, numV, nparts, func(_, part int, cursor []int64, out []VID) {
		faultinject.Fire(faultinject.SiteBuildTranspose)
		lo, hi := sched.SplitRange(len(edges), nparts, part)
		scatterEdges(edges[lo:hi], cursor, out)
	})
}

// transposeAdjacency turns the rows of (index, nbrs) into columns: row
// r's entry c becomes entry r of list c. Rows are visited ascending
// over edge-balanced row parts, so every list of the result is
// ascending (equal entries adjacent) whatever order the rows held.
func transposeAdjacency(index []int64, nbrs []VID, pool *sched.Pool) ([]int64, []VID) {
	bounds := sched.EdgeBalancedParts(index, pool.Workers())
	return sched.ScatterByKey(pool, len(index)-1, len(bounds)-1, func(_, part int, cursor []int64, out []VID) {
		faultinject.Fire(faultinject.SiteBuildTranspose)
		sched.ScatterRows(index, nbrs, bounds[part], bounds[part+1], cursor, out)
	})
}

// scatterEdges is the sched.ScatterByKey walk of bucketBySource: a nil
// out counts, a non-nil out places.
//
//ihtl:noalloc
func scatterEdges(edges []Edge, cursor []int64, out []VID) {
	for _, e := range edges {
		c := cursor[e.Src]
		if out != nil {
			out[c] = e.Dst
		}
		cursor[e.Src] = c + 1
	}
}

// dedupAdjacency removes consecutive duplicates from each ascending
// neighbour list, rebuilding the offset array: it counts unique
// neighbours per vertex, prefix-sums, and fills a fresh value array
// (in-place compaction is not safe when another worker may still be
// reading the overwritten range).
func dedupAdjacency(index []int64, nbrs []VID, pool *sched.Pool) ([]int64, []VID) {
	n := len(index) - 1
	newIndex := make([]int64, n+1)
	pool.ForSteal(n, 256, func(_, lo, hi int) {
		for v := lo; v < hi; v++ {
			newIndex[v+1] = countUnique(nbrs[index[v]:index[v+1]])
		}
	})
	sched.PrefixSum(pool, newIndex)
	out := make([]VID, newIndex[n])
	pool.ForSteal(n, 256, func(_, lo, hi int) {
		for v := lo; v < hi; v++ {
			fillUnique(nbrs[index[v]:index[v+1]], out[newIndex[v]:newIndex[v+1]])
		}
	})
	return newIndex, out
}

//ihtl:noalloc
func countUnique(sorted []VID) int64 {
	var n int64
	for i := range sorted {
		if i == 0 || sorted[i] != sorted[i-1] {
			n++
		}
	}
	return n
}

//ihtl:noalloc
func fillUnique(sorted []VID, out []VID) {
	w := 0
	for i := range sorted {
		if i == 0 || sorted[i] != sorted[i-1] {
			out[w] = sorted[i]
			w++
		}
	}
}

// compactZeroDegree removes vertices with no edges at all and
// renumbers the remaining vertices, preserving their relative order.
func compactZeroDegree(g *Graph, pool *sched.Pool) *Graph {
	w := pool.Workers()
	counts := make([]int64, w+1)
	pool.ForStatic(g.NumV, func(worker, lo, hi int) {
		var c int64
		for v := lo; v < hi; v++ {
			if g.OutIndex[v+1] > g.OutIndex[v] || g.InIndex[v+1] > g.InIndex[v] {
				c++
			}
		}
		counts[worker+1] = c
	})
	for i := 0; i < w; i++ {
		counts[i+1] += counts[i]
	}
	kept := int(counts[w])
	if kept == g.NumV {
		return g
	}
	remap := make([]VID, g.NumV)
	oldOf := make([]VID, kept)
	pool.ForStatic(g.NumV, func(worker, lo, hi int) {
		next := counts[worker]
		for v := lo; v < hi; v++ {
			if g.OutIndex[v+1] > g.OutIndex[v] || g.InIndex[v+1] > g.InIndex[v] {
				remap[v] = VID(next)
				oldOf[next] = VID(v)
				next++
			} else {
				remap[v] = ^VID(0)
			}
		}
	})
	ng := &Graph{
		NumV:     kept,
		NumE:     g.NumE,
		OutIndex: make([]int64, kept+1),
		OutNbrs:  make([]VID, g.NumE),
		InIndex:  make([]int64, kept+1),
		InNbrs:   make([]VID, g.NumE),
	}
	outIndex, inIndex := ng.OutIndex, ng.InIndex
	pool.ForStatic(kept, func(_, lo, hi int) {
		for u := lo; u < hi; u++ {
			v := oldOf[u]
			outIndex[u+1] = g.OutIndex[v+1] - g.OutIndex[v]
			inIndex[u+1] = g.InIndex[v+1] - g.InIndex[v]
		}
	})
	sched.PrefixSum(pool, ng.OutIndex)
	sched.PrefixSum(pool, ng.InIndex)
	pool.ForSteal(kept, 256, func(_, lo, hi int) {
		for u := lo; u < hi; u++ {
			v := oldOf[u]
			remapCopy(ng.OutNbrs[ng.OutIndex[u]:ng.OutIndex[u+1]], g.OutNbrs[g.OutIndex[v]:g.OutIndex[v+1]], remap)
			remapCopy(ng.InNbrs[ng.InIndex[u]:ng.InIndex[u+1]], g.InNbrs[g.InIndex[v]:g.InIndex[v+1]], remap)
		}
	})
	return ng
}

//ihtl:noalloc
func remapCopy(dst, src, remap []VID) {
	for i, u := range src {
		dst[i] = remap[u]
	}
}
