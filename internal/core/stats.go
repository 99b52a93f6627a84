package core

import (
	"fmt"

	"ihtl/internal/graph"
)

// GraphStats reports the Table 5 "Graph Statistics" columns plus the
// Table 4 topology accounting for a built iHTL graph.
type GraphStats struct {
	// NumBlocks is "#FB".
	NumBlocks int
	// VWEHFrac is |VWEH| / |V| ("VWEH" column).
	VWEHFrac float64
	// MinHubDegree is the smallest in-degree among hubs.
	MinHubDegree int
	// FlippedEdgeFrac is the fraction of edges in flipped blocks
	// ("FB Edges").
	FlippedEdgeFrac float64
	// NumHubs and HubFrac characterise the hub set.
	NumHubs int
	HubFrac float64
	// Resident says why a graph has no block: the build flipped nothing
	// because VertexDataBytes (NumV × Params.VertexBytes) fits
	// CacheBytes, the cache a derived B is sized from. A raw v2 engine
	// file is the file of such a graph, so one opened from it is
	// resident again (its Params are not stored: the two sizes are then
	// at the default vertex size, CacheBytes = B × 8); false for a graph
	// loaded from any other file.
	Resident        bool
	VertexDataBytes int64
	CacheBytes      int64
	// TopologyBytes is the iHTL topology footprint; CSCBytes the
	// plain CSC baseline (Table 4).
	TopologyBytes int64
	CSCBytes      int64
	// OverheadFrac is TopologyBytes/CSCBytes - 1 (Table 4's
	// "iHTL Overhead %").
	OverheadFrac float64
}

// BlockShape is one block's row-length shape — what decides how a flat
// engine walks it (edgemajor.go) — and the layout that shape selects.
type BlockShape struct {
	// Name is "flipped[i]" or "sparse".
	Name string
	// Rows is the length of the block's index: push sources of a
	// flipped block, destinations of the sparse block.
	Rows  int
	Edges int64
	// MeanRowLen is Edges/Rows; EmptyRowFrac the share of rows with no
	// edge in this block.
	MeanRowLen   float64
	EmptyRowFrac float64
	// Layout is what a default flat engine picks for this shape.
	Layout BlockLayout
}

func blockShape(name string, index []int64) BlockShape {
	s := BlockShape{Name: name, Layout: pickLayout(index)}
	if len(index) < 2 {
		return s
	}
	s.Rows = len(index) - 1
	s.Edges = index[s.Rows]
	empty := 0
	for r := 0; r < s.Rows; r++ {
		if index[r] == index[r+1] {
			empty++
		}
	}
	s.MeanRowLen = float64(s.Edges) / float64(s.Rows)
	s.EmptyRowFrac = float64(empty) / float64(s.Rows)
	return s
}

// BlockShapes returns the shape of every flipped block, in order, then
// of the sparse block.
func (ih *IHTL) BlockShapes() []BlockShape {
	shapes := make([]BlockShape, 0, len(ih.Blocks)+1)
	for b := range ih.Blocks {
		shapes = append(shapes, blockShape(fmt.Sprintf("flipped[%d]", b), ih.Blocks[b].Index))
	}
	return append(shapes, blockShape("sparse", ih.Sparse.Index))
}

// Stats computes the structural statistics of ih; g must be the graph
// ih was built from (used only for the CSC baseline size).
func (ih *IHTL) Stats(g *graph.Graph) GraphStats {
	s := GraphStats{
		NumBlocks:    len(ih.Blocks),
		MinHubDegree: ih.MinHubDegree,
		NumHubs:      ih.NumHubs,

		Resident:        ih.resident,
		VertexDataBytes: int64(ih.NumV) * int64(ih.params.VertexBytes),
		CacheBytes:      int64(ih.params.CacheBytes),
	}
	if ih.NumV > 0 {
		s.VWEHFrac = float64(ih.NumVWEH) / float64(ih.NumV)
		s.HubFrac = float64(ih.NumHubs) / float64(ih.NumV)
	}
	if ih.NumE > 0 {
		s.FlippedEdgeFrac = float64(ih.FlippedEdges()) / float64(ih.NumE)
	}
	s.TopologyBytes = ih.TopologyBytes()
	_, s.CSCBytes = g.TopologyBytes()
	if s.CSCBytes > 0 {
		s.OverheadFrac = float64(s.TopologyBytes)/float64(s.CSCBytes) - 1
	}
	return s
}

// TopologyBytes returns the memory footprint of the iHTL topology
// (Table 4): per flipped block an index array over all push sources
// (8 B each) plus 4 B per edge; the sparse block's index and source
// arrays; and the two relabeling arrays are excluded, matching the
// paper's comparison of adjacency topology data only.
func (ih *IHTL) TopologyBytes() int64 {
	var b int64
	for i := range ih.Blocks {
		fb := &ih.Blocks[i]
		b += int64(len(fb.Index))*8 + int64(len(fb.Dsts))*4
	}
	b += int64(len(ih.Sparse.Index))*8 + int64(len(ih.Sparse.Srcs))*4
	return b
}

// ExecBreakdown reports the Table 5 "Exec. Breakdown" columns derived
// from an Engine's accumulated Breakdown.
type ExecBreakdown struct {
	// FlippedTimeFrac is "FB Time": time share of the push phase.
	FlippedTimeFrac float64
	// MergeTimeFrac is "Buffer Merging".
	MergeTimeFrac float64
	// FlippedSpeed is "FB Speed": flipped edge share divided by
	// flipped time share — > 1 means a flipped-block edge processes
	// faster than the graph average.
	FlippedSpeed float64
}

// ExecStats combines a structural edge share with a time breakdown.
func (ih *IHTL) ExecStats(b Breakdown) ExecBreakdown {
	var e ExecBreakdown
	e.FlippedTimeFrac = b.FlippedFrac()
	e.MergeTimeFrac = b.MergeFrac()
	if ih.NumE > 0 && e.FlippedTimeFrac > 0 {
		edgeFrac := float64(ih.FlippedEdges()) / float64(ih.NumE)
		// Charge the merge to the flipped phase: it exists only
		// because of buffering.
		timeFrac := e.FlippedTimeFrac + e.MergeTimeFrac
		if timeFrac > 0 {
			e.FlippedSpeed = edgeFrac / timeFrac
		}
	}
	return e
}
