package core

import "ihtl/internal/spmv"

// topologyStreamBytes returns the modelled topology bytes one scalar
// Step streams from memory: each block's CSR/CSC (8-byte index
// entries, 4-byte vertex IDs) — or, for a block walked edge-major, the
// vertex IDs and the half-byte-per-edge adv stream and NOT the index
// (the kernels read two index entries per task, which are not
// charged). It is the half of BytesPerStep the layout changes.
func (e *Engine) topologyStreamBytes() int64 {
	ih := e.ih
	var total int64
	for b := range ih.Blocks {
		fb := &ih.Blocks[b]
		if e.flipAdv[b] != nil {
			total += 4*fb.NumEdges() + int64(len(e.flipAdv[b]))
		} else {
			nsrc := int64(len(fb.Index) - 1)
			total += 8*(nsrc+1) + 4*fb.NumEdges()
		}
	}
	sp := &ih.Sparse
	n := int64(ih.NumV) - int64(sp.DestLo)
	if n <= 0 {
		return total
	}
	Es := sp.NumEdges()
	if e.sparseAdv != nil {
		total += 4*Es + int64(len(e.sparseAdv))
	} else {
		total += 8*(n+1) + 4*Es
	}
	return total
}

// BytesPerStep returns the modelled bytes one scalar Step touches: the
// topology stream under the blocks' layouts, one vertex-data access
// per topology access, and the hub-buffer merge traffic per worker.
// The model matches spmv.Engine.BytesPerStep — flat topology index
// entries are 8 bytes, vertex IDs 4, vertex data spmv.VertexBytes — so
// the step report's bytes_per_edge column is comparable across
// baseline and iHTL kernels.
func (e *Engine) BytesPerStep() int64 {
	ih := e.ih
	const vb = int64(spmv.VertexBytes)
	W := int64(e.pool.Workers())
	total := e.topologyStreamBytes()

	// Flipped blocks: one sequential src read per block source, one
	// buffered write per edge, and the countdown-gated merge (W buffer
	// reads + 1 dst write per hub of the block, plus the clears of the
	// dirtied buffer ranges).
	for b := range ih.Blocks {
		blk := &ih.Blocks[b]
		nsrc := int64(len(blk.Index) - 1)
		edges := blk.NumEdges()
		hubs := int64(ih.HubsPerBlock)
		if rem := int64(ih.NumHubs) - int64(b)*hubs; rem < hubs {
			hubs = rem
		}
		if e.flipAdv[b] != nil {
			total += vb * edges // one (mostly repeated) src read per edge
		} else {
			total += vb * nsrc // sequential src reads
		}
		total += vb * edges            // cache-resident buffer updates
		total += (2*W + 1) * vb * hubs // clear + merge reads + dst write
	}

	// Sparse block: the pull.
	sp := &ih.Sparse
	n := int64(ih.NumV) - int64(sp.DestLo)
	if n <= 0 {
		return total
	}
	Es := sp.NumEdges()
	total += vb * Es // random src reads
	total += vb * n  // dst writes
	if e.sparseAdv != nil {
		// Edge-major clears the rows (charged above as the write),
		// then accumulates per edge into the cache-resident chunk.
		total += vb * Es
	}
	return total
}
