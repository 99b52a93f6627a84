package graph

import (
	"fmt"
	"slices"
)

// Relabel returns a new graph in which every vertex v of g is renamed
// to newID[v]. newID must be a permutation of [0, NumV); Relabel
// returns an error otherwise. Neighbour lists of the result are
// re-sorted so the output satisfies the Graph invariants.
//
// Relabeling is the core operation behind both iHTL graph construction
// and the baseline reordering algorithms (SlashBurn, GOrder,
// Rabbit-Order).
func Relabel(g *Graph, newID []VID) (*Graph, error) {
	if len(newID) != g.NumV {
		return nil, fmt.Errorf("graph: permutation length %d != NumV %d", len(newID), g.NumV)
	}
	seen := make([]bool, g.NumV)
	for v, id := range newID {
		if int(id) >= g.NumV {
			return nil, fmt.Errorf("graph: newID[%d]=%d out of range", v, id)
		}
		if seen[id] {
			return nil, fmt.Errorf("graph: newID is not a permutation (duplicate %d)", id)
		}
		seen[id] = true
	}

	ng := &Graph{
		NumV:     g.NumV,
		NumE:     g.NumE,
		OutIndex: make([]int64, g.NumV+1),
		OutNbrs:  make([]VID, g.NumE),
		InIndex:  make([]int64, g.NumV+1),
		InNbrs:   make([]VID, g.NumE),
	}
	// Degrees under new labels.
	for v := 0; v < g.NumV; v++ {
		nv := newID[v]
		ng.OutIndex[nv+1] = g.OutIndex[v+1] - g.OutIndex[v]
		ng.InIndex[nv+1] = g.InIndex[v+1] - g.InIndex[v]
	}
	for v := 0; v < g.NumV; v++ {
		ng.OutIndex[v+1] += ng.OutIndex[v]
		ng.InIndex[v+1] += ng.InIndex[v]
	}
	for v := 0; v < g.NumV; v++ {
		nv := newID[v]
		dst := ng.OutNbrs[ng.OutIndex[nv]:ng.OutIndex[nv+1]]
		for i, u := range g.Out(VID(v)) {
			dst[i] = newID[u]
		}
		slices.Sort(dst)
		din := ng.InNbrs[ng.InIndex[nv]:ng.InIndex[nv+1]]
		for i, u := range g.In(VID(v)) {
			din[i] = newID[u]
		}
		slices.Sort(din)
	}
	return ng, nil
}

// IdentityPerm returns the identity permutation over n vertices.
func IdentityPerm(n int) []VID {
	p := make([]VID, n)
	for i := range p {
		p[i] = VID(i)
	}
	return p
}
