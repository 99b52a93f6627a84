package graph

import (
	"testing"

	"ihtl/internal/xrand"
)

func randomGraph(seed uint64, n, m int) *Graph {
	rng := xrand.New(seed)
	edges := make([]Edge, m)
	for i := range edges {
		edges[i] = Edge{VID(rng.Intn(n)), VID(rng.Intn(n))}
	}
	g, err := Build(n, edges, BuildOptions{Dedup: true})
	if err != nil {
		panic(err)
	}
	return g
}

func randomPerm(seed uint64, n int) []VID {
	rng := xrand.New(seed)
	p := make([]VID, n)
	for i, v := range rng.Perm(n) {
		p[i] = VID(v)
	}
	return p
}

func TestRelabelPreservesStructure(t *testing.T) {
	g := randomGraph(1, 200, 2000)
	perm := randomPerm(2, g.NumV)
	ng, err := Relabel(g, perm)
	if err != nil {
		t.Fatal(err)
	}
	if err := ng.Validate(); err != nil {
		t.Fatal(err)
	}
	if ng.NumV != g.NumV || ng.NumE != g.NumE {
		t.Fatal("relabel changed counts")
	}
	// Edge (u,v) exists iff (perm[u],perm[v]) exists.
	for v := 0; v < g.NumV; v++ {
		for _, u := range g.Out(VID(v)) {
			if !ng.HasEdge(perm[v], perm[u]) {
				t.Fatalf("edge %d->%d lost under relabel", v, u)
			}
		}
	}
	// Degrees transported.
	for v := 0; v < g.NumV; v++ {
		if g.InDegree(VID(v)) != ng.InDegree(perm[v]) {
			t.Fatalf("in-degree of %d not preserved", v)
		}
	}
}

func TestRelabelIdentity(t *testing.T) {
	g := PaperExample()
	ng, err := Relabel(g, IdentityPerm(g.NumV))
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.NumV; v++ {
		a, b := g.Out(VID(v)), ng.Out(VID(v))
		if len(a) != len(b) {
			t.Fatal("identity relabel changed adjacency")
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatal("identity relabel changed adjacency")
			}
		}
	}
}

func TestRelabelRejectsBadPerm(t *testing.T) {
	g := PaperExample()
	if _, err := Relabel(g, make([]VID, 3)); err == nil {
		t.Error("short permutation accepted")
	}
	p := IdentityPerm(g.NumV)
	p[0] = 1 // duplicate
	if _, err := Relabel(g, p); err == nil {
		t.Error("non-permutation accepted")
	}
	p = IdentityPerm(g.NumV)
	p[0] = VID(g.NumV)
	if _, err := Relabel(g, p); err == nil {
		t.Error("out-of-range permutation accepted")
	}
}

func TestRelabelRoundTrip(t *testing.T) {
	g := randomGraph(3, 100, 700)
	perm := randomPerm(4, g.NumV)
	ng, err := Relabel(g, perm)
	if err != nil {
		t.Fatal(err)
	}
	inv := make([]VID, len(perm))
	for v, w := range perm {
		inv[w] = VID(v)
	}
	back, err := Relabel(ng, inv)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.NumV; v++ {
		a, b := g.Out(VID(v)), back.Out(VID(v))
		if len(a) != len(b) {
			t.Fatalf("round trip broke vertex %d", v)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("round trip broke vertex %d", v)
			}
		}
	}
}
