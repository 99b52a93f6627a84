// Package order implements the locality-optimizing graph relabeling
// algorithms the paper evaluates iHTL against (§4.5, Figures 1 and 8):
// SlashBurn (Lim, Kang & Faloutsos, TKDE'14), GOrder (Wei et al.,
// SIGMOD'16) and Rabbit-Order (Arai et al., IPDPS'16), plus degree
// sorting as the simplest baseline. Each produces a permutation that
// can be applied with graph.Relabel before running any pull engine.
//
// The implementations are from-scratch Go versions of the published
// algorithms. They keep the algorithmic cores (hub removal +
// connected components; windowed greedy score maximisation;
// hierarchical community aggregation with DFS numbering) and therefore
// also reproduce the paper's preprocessing-cost ordering: GOrder ≫
// SlashBurn ≈ Rabbit-Order ≫ iHTL.
package order

import (
	"cmp"
	"slices"

	"ihtl/internal/graph"
)

// Algorithm is a vertex-relabeling algorithm: Permutation returns
// newID such that vertex v of g is renamed newID[v].
type Algorithm interface {
	Name() string
	Permutation(g *graph.Graph) []graph.VID
}

// DegreeSort orders vertices by descending degree (hubs first), the
// frequency-based ordering the paper notes "other locality optimizing
// algorithms apply ... throughout" (§5.4).
type DegreeSort struct {
	// Kind 0 sorts by in-degree, 1 by out-degree, 2 by total.
	Kind int
}

// Name implements Algorithm.
func (d DegreeSort) Name() string { return "degree-sort" }

// Permutation implements Algorithm.
func (d DegreeSort) Permutation(g *graph.Graph) []graph.VID {
	deg := func(v graph.VID) int {
		switch d.Kind {
		case 0:
			return g.InDegree(v)
		case 1:
			return g.OutDegree(v)
		default:
			return g.Degree(v)
		}
	}
	ids := make([]graph.VID, g.NumV)
	for v := range ids {
		ids[v] = graph.VID(v)
	}
	slices.SortFunc(ids, func(a, b graph.VID) int {
		if c := cmp.Compare(deg(b), deg(a)); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	perm := make([]graph.VID, g.NumV)
	for rank, v := range ids {
		perm[v] = graph.VID(rank)
	}
	return perm
}

// unionFind is a standard path-halving union-find used by SlashBurn
// and Rabbit-Order.
type unionFind struct {
	parent []int32
	size   []int32
}

func newUnionFind(n int) *unionFind {
	u := &unionFind{parent: make([]int32, n), size: make([]int32, n)}
	for i := range u.parent {
		u.parent[i] = int32(i)
		u.size[i] = 1
	}
	return u
}

func (u *unionFind) find(x int32) int32 {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]]
		x = u.parent[x]
	}
	return x
}

func (u *unionFind) union(a, b int32) {
	ra, rb := u.find(a), u.find(b)
	if ra == rb {
		return
	}
	if u.size[ra] < u.size[rb] {
		ra, rb = rb, ra
	}
	u.parent[rb] = ra
	u.size[ra] += u.size[rb]
}
