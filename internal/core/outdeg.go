package core

// OutDegrees recomputes the out-degree of every vertex in iHTL
// (stepping) ID space from the resident topology alone, so drivers
// that need out-degrees — PageRank's contribution scaling, dangling
// detection — can run over a graph deserialised from an engine file
// without the original graph.Graph at hand.
//
// Every edge appears exactly once across the flipped blocks and the
// sparse block (the paper's partition invariant), so summing source
// occurrences over both reproduces the original out-degrees exactly:
// flipped blocks index per push source (the run length IS the edge
// count), while the sparse block stores sources grouped by destination
// and is scanned once.
func (ih *IHTL) OutDegrees() []int {
	deg := make([]int, ih.NumV)
	nps := ih.NumPushSources()
	for bi := range ih.Blocks {
		idx := ih.Blocks[bi].Index
		for s := 0; s+1 < len(idx) && s < nps; s++ {
			deg[s] += int(idx[s+1] - idx[s])
		}
	}
	for _, u := range ih.Sparse.Srcs {
		deg[u]++
	}
	return deg
}
