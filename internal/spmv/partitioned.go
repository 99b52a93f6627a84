package spmv

import (
	"ihtl/internal/graph"
	"ihtl/internal/sched"
)

// PushPartitions is the GraphGrind-style destination-partitioned
// representation (paper reference [35]): edges are grouped into
// partitions by destination range so that concurrent threads
// processing different partitions can push without synchronisation —
// all writes of partition p land in its own destination range.
//
// Each partition stores its own CSR over the *sources*, which
// replicates the source index array per partition — the same topology
// growth that Table 4 reports for iHTL's flipped blocks.
type PushPartitions struct {
	// Parts holds one sub-CSR per partition.
	Parts []PartCSR
}

// PartCSR is the edge set of one partition in CSR-by-source form,
// compacted to the sources that actually have edges into the
// partition.
type PartCSR struct {
	// Srcs lists the source vertices with at least one edge into the
	// partition's destination range.
	Srcs []graph.VID
	// Index has len(Srcs)+1 offsets into Dsts.
	Index []int64
	// Dsts lists destinations, grouped by source.
	Dsts []graph.VID
}

// NumParts returns the partition count.
func (pp *PushPartitions) NumParts() int { return len(pp.Parts) }

// TopologyBytes returns the memory footprint of the partitioned
// topology (8 bytes per index entry, 4 per vertex ID).
func (pp *PushPartitions) TopologyBytes() int64 {
	var b int64
	for _, p := range pp.Parts {
		b += int64(len(p.Srcs))*4 + int64(len(p.Index))*8 + int64(len(p.Dsts))*4
	}
	return b
}

// BuildPushPartitions splits g's edges into nparts destination ranges
// balanced by in-edge count.
func BuildPushPartitions(g *graph.Graph, nparts int) *PushPartitions {
	if nparts < 1 {
		nparts = 1
	}
	bounds := sched.EdgeBalancedParts(g.InIndex, nparts)
	pp := &PushPartitions{Parts: make([]PartCSR, nparts)}
	for p := 0; p < nparts; p++ {
		lo, hi := graph.VID(bounds[p]), graph.VID(bounds[p+1])
		part := &pp.Parts[p]
		// One pass over the destination range's in-edges counts
		// per-source degrees; sources arrive sorted per destination
		// but we need grouping by source, so count then fill.
		deg := make(map[graph.VID]int)
		for v := lo; v < hi; v++ {
			for _, u := range g.In(v) {
				deg[u]++
			}
		}
		part.Srcs = make([]graph.VID, 0, len(deg))
		for u := range deg {
			part.Srcs = append(part.Srcs, u)
		}
		sortVIDs(part.Srcs)
		slot := make(map[graph.VID]int, len(deg))
		part.Index = make([]int64, len(part.Srcs)+1)
		for i, u := range part.Srcs {
			slot[u] = i
			part.Index[i+1] = part.Index[i] + int64(deg[u])
		}
		part.Dsts = make([]graph.VID, part.Index[len(part.Srcs)])
		cursor := make([]int64, len(part.Srcs))
		copy(cursor, part.Index[:len(part.Srcs)])
		for v := lo; v < hi; v++ {
			for _, u := range g.In(v) {
				s := slot[u]
				part.Dsts[cursor[s]] = v
				cursor[s]++
			}
		}
	}
	return pp
}

func sortVIDs(v []graph.VID) {
	// Insertion sort is quadratic; use sort.Slice via a local import
	// indirection-free helper.
	quickSortVIDs(v)
}

func quickSortVIDs(v []graph.VID) {
	if len(v) < 24 {
		for i := 1; i < len(v); i++ {
			for j := i; j > 0 && v[j] < v[j-1]; j-- {
				v[j], v[j-1] = v[j-1], v[j]
			}
		}
		return
	}
	pivot := v[len(v)/2]
	left, right := 0, len(v)-1
	for left <= right {
		for v[left] < pivot {
			left++
		}
		for v[right] > pivot {
			right--
		}
		if left <= right {
			v[left], v[right] = v[right], v[left]
			left++
			right--
		}
	}
	quickSortVIDs(v[:right+1])
	quickSortVIDs(v[left:])
}

// partWorker pushes within destination partitions: threads claim whole
// partitions, so no write synchronisation is needed.
//
//ihtl:noalloc
func (e *Engine) partWorker(w, lo, hi int) {
	src, dst := e.curSrc, e.curDst
	pp := e.parts
	for p := lo; p < hi; p++ {
		part := &pp.Parts[p]
		for i, u := range part.Srcs {
			x := src[u]
			if SkipZero(x) {
				continue
			}
			for j := part.Index[i]; j < part.Index[i+1]; j++ {
				dst[part.Dsts[j]] += x
			}
		}
	}
}
