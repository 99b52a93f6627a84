package sched

import "sort"

// EdgeBalancedParts splits the vertex range [0, len(index)-1) into
// nparts contiguous ranges with approximately equal numbers of edges,
// where index is a CSR/CSC offset array (index[v+1]-index[v] is the
// degree of v). This is the GraphGrind partitioning used to
// load-balance pull traversal: vertex counts may differ wildly between
// parts, but edge counts — and therefore work — are even.
//
// The returned slice has nparts+1 vertex boundaries, with bounds[0]==0
// and bounds[nparts]==len(index)-1.
func EdgeBalancedParts(index []int64, nparts int) []int {
	n := len(index) - 1
	if n < 0 {
		panic("sched: empty index array")
	}
	if nparts < 1 {
		panic("sched: nparts must be >= 1")
	}
	total := index[n]
	bounds := make([]int, nparts+1)
	bounds[nparts] = n
	for p := 1; p < nparts; p++ {
		target := index[0] + total*int64(p)/int64(nparts)
		// First vertex whose offset reaches the target.
		v := sort.Search(n, func(i int) bool { return index[i] >= target })
		if v < bounds[p-1] {
			v = bounds[p-1]
		}
		bounds[p] = v
	}
	return bounds
}

// EdgeBalancedPartsList is EdgeBalancedParts over an arbitrary ROW
// LIST instead of the full vertex range: rows are indices into the
// CSR/CSC offset array index, and the list is split into nparts
// contiguous sub-lists with approximately equal total edge counts.
// The degree-aware sparse schedule uses it to cut the heavy-row list
// into stealable parts whose work is balanced by edges, not rows —
// a handful of mega-degree rows otherwise serialise behind one worker;
// the iHTL build uses it to cut a relabelled vertex range (rows =
// original IDs in new-ID order) into the parts of a transposition.
//
// The returned slice has nparts+1 list positions, with bounds[0]==0
// and bounds[nparts]==len(rows).
func EdgeBalancedPartsList[R int32 | uint32](index []int64, rows []R, nparts int) []int {
	if nparts < 1 {
		panic("sched: nparts must be >= 1")
	}
	n := len(rows)
	prefix := make([]int64, n+1)
	for i, r := range rows {
		prefix[i+1] = prefix[i] + index[r+1] - index[r]
	}
	total := prefix[n]
	bounds := make([]int, nparts+1)
	bounds[nparts] = n
	for p := 1; p < nparts; p++ {
		target := total * int64(p) / int64(nparts)
		v := sort.Search(n, func(i int) bool { return prefix[i] >= target })
		if v < bounds[p-1] {
			v = bounds[p-1]
		}
		bounds[p] = v
	}
	return bounds
}

// VertexBalancedParts splits [0, n) into nparts contiguous ranges of
// near-equal vertex counts, returning nparts+1 boundaries.
func VertexBalancedParts(n, nparts int) []int {
	if nparts < 1 {
		panic("sched: nparts must be >= 1")
	}
	bounds := make([]int, nparts+1)
	for p := 0; p <= nparts; p++ {
		lo, _ := splitRange(n, nparts, min(p, nparts-1))
		if p == nparts {
			bounds[p] = n
		} else {
			bounds[p] = lo
		}
	}
	return bounds
}

// PartEdges reports the number of edges covered by part p of the given
// boundaries over the offset array index.
func PartEdges(index []int64, bounds []int, p int) int64 {
	return index[bounds[p+1]] - index[bounds[p]]
}
