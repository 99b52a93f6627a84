package order

import (
	"cmp"
	"container/heap"
	"slices"

	"ihtl/internal/graph"
)

// VEBO implements the Vertex- and Edge-Balanced Ordering of Sun,
// Vandierendonck & Nikolopoulos (reference [36] of the paper, whose
// implementation partitions work "by vertex and edge partitioning"):
// vertices are distributed over P partitions so that every partition
// holds both an equal share of vertices AND an equal share of
// in-edges, then renumbered partition by partition. A pull engine
// over contiguous partitions of a VEBO-ordered graph is load-balanced
// in both dimensions, which plain edge-balanced splitting of a skewed
// graph cannot guarantee (a hub-heavy range may hold almost no
// vertices).
//
// The core is the published greedy: process vertices in decreasing
// in-degree, always placing into the partition with the fewest edges
// so far; vertex-count balance is restored by capping partitions at
// ⌈|V|/P⌉ members. Zero-degree-in vertices fill remaining slots.
type VEBO struct {
	// P is the partition count; 0 selects 16.
	P int
}

// Name implements Algorithm.
func (VEBO) Name() string { return "vebo" }

// veboPart is a partition in the least-edges min-heap.
type veboPart struct {
	id    int
	edges int64
	count int
}

type veboHeap []*veboPart

func (h veboHeap) Len() int { return len(h) }
func (h veboHeap) Less(i, j int) bool {
	if h[i].edges != h[j].edges {
		return h[i].edges < h[j].edges
	}
	return h[i].id < h[j].id
}
func (h veboHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *veboHeap) Push(x any)   { *h = append(*h, x.(*veboPart)) }
func (h *veboHeap) Pop() any {
	old := *h
	n := len(old)
	p := old[n-1]
	*h = old[:n-1]
	return p
}

// Permutation implements Algorithm.
func (v VEBO) Permutation(g *graph.Graph) []graph.VID {
	perm := make([]graph.VID, g.NumV)
	next := 0
	for _, ms := range v.assign(g) {
		for _, u := range ms {
			perm[u] = graph.VID(next)
			next++
		}
	}
	return perm
}

// assign runs the greedy and returns each partition's members in
// placement order.
func (v VEBO) assign(g *graph.Graph) [][]graph.VID {
	n := g.NumV
	if n == 0 {
		return nil
	}
	p := v.P
	if p <= 0 {
		p = 16
	}
	if p > n {
		p = n
	}
	capacity := (n + p - 1) / p

	// Decreasing in-degree order (ties by ID for determinism).
	ids := make([]graph.VID, n)
	for i := range ids {
		ids[i] = graph.VID(i)
	}
	slices.SortFunc(ids, func(a, b graph.VID) int {
		if c := cmp.Compare(g.InDegree(b), g.InDegree(a)); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})

	parts := make([]*veboPart, p)
	members := make([][]graph.VID, p)
	h := make(veboHeap, p)
	for i := 0; i < p; i++ {
		parts[i] = &veboPart{id: i}
		h[i] = parts[i]
	}
	heap.Init(&h)

	var full []*veboPart
	for _, u := range ids {
		// Take the least-loaded open partition.
		pt := heap.Pop(&h).(*veboPart)
		pt.edges += int64(g.InDegree(u))
		pt.count++
		members[pt.id] = append(members[pt.id], u)
		if pt.count < capacity {
			heap.Push(&h, pt)
		} else {
			full = append(full, pt)
		}
		if h.Len() == 0 {
			// All partitions at capacity (only possible on the last
			// few vertices when n is not a multiple of p): reopen.
			for _, f := range full {
				heap.Push(&h, f)
			}
			full = nil
		}
	}

	return members
}
