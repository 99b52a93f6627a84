package graph

// MustFromEdges is FromEdges for known-valid fixture and test edge
// lists: it panics on a build error instead of returning it. Library
// code paths handling user input must use Build/FromEdges, whose
// errors are returned.
func MustFromEdges(numV int, edges []Edge) *Graph {
	g, err := FromEdges(numV, edges)
	if err != nil {
		panic(err)
	}
	return g
}

// PaperExample returns the 8-vertex example graph of the paper's
// Figure 2.(a)/Figure 5, reconstructed (0-indexed) from the facts
// stated in §2.3 and Figure 4:
//
//   - in-hubs are vertices #3 and #7 (0-indexed 2 and 6) with
//     in-degrees 5 and 4;
//   - the in-neighbours of #3 are {2,5,6,7,8} (paper numbering);
//   - VWEH resolves to {2,5,6,8} and FV to {1,4} (Figure 4);
//   - the pull timeline starts with cache [1,7] after processing
//     vertices 1 and 2, fixing in(1)={7} and in(2)={1};
//   - row out-degrees of Figure 5 are 1,2,1,1,2,4,2,1 (14 edges).
//
// Used by unit tests that verify iHTL construction against the
// paper's worked example.
func PaperExample() *Graph {
	edges := []Edge{
		{0, 1},         // #1 -> #2
		{1, 2}, {1, 6}, // #2 -> #3, #7
		{2, 6},         // #3 -> #7
		{3, 4},         // #4 -> #5
		{4, 2}, {4, 6}, // #5 -> #3, #7
		{5, 2}, {5, 6}, {5, 4}, {5, 7}, // #6 -> #3, #7, #5, #8
		{6, 2}, {6, 0}, // #7 -> #3, #1
		{7, 2}, // #8 -> #3
	}
	g, err := Build(8, edges, BuildOptions{Dedup: true})
	if err != nil {
		panic(err)
	}
	return g
}

// Path returns a directed path 0 -> 1 -> ... -> n-1.
//
//ihtl:allow-dead test fixture shared by the packages' tests
func Path(n int) *Graph {
	edges := make([]Edge, 0, n-1)
	for i := 0; i+1 < n; i++ {
		edges = append(edges, Edge{VID(i), VID(i + 1)})
	}
	return MustFromEdges(n, edges)
}

// Cycle returns a directed cycle over n vertices.
//
//ihtl:allow-dead test fixture shared by the packages' tests
func Cycle(n int) *Graph {
	edges := make([]Edge, 0, n)
	for i := 0; i < n; i++ {
		edges = append(edges, Edge{VID(i), VID((i + 1) % n)})
	}
	return MustFromEdges(n, edges)
}

// Star returns a graph where vertices 1..n-1 all point at vertex 0 —
// the extreme in-hub case.
//
//ihtl:allow-dead test fixture shared by the packages' tests
func Star(n int) *Graph {
	edges := make([]Edge, 0, n-1)
	for i := 1; i < n; i++ {
		edges = append(edges, Edge{VID(i), 0})
	}
	return MustFromEdges(n, edges)
}

// Complete returns the complete directed graph on n vertices
// (no self loops).
//
//ihtl:allow-dead test fixture shared by the packages' tests
func Complete(n int) *Graph {
	edges := make([]Edge, 0, n*(n-1))
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				edges = append(edges, Edge{VID(i), VID(j)})
			}
		}
	}
	return MustFromEdges(n, edges)
}
