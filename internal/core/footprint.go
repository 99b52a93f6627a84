package core

import "ihtl/internal/spmv"

// topologyStreamBytes returns the modelled topology bytes one scalar
// Step streams from memory, under the engine's encoding. Flat engines
// stream each block's CSR/CSC (8-byte index entries, 4-byte vertex
// IDs) — or, for a block walked edge-major, the vertex IDs and the
// half-byte-per-edge adv stream and NOT the index (the kernels read two
// index entries per task; only the heavy rows' entries are charged);
// varint engines stream the encoded chunks (data plus chunk
// tables) and, on the sparse side, the per-row byte offsets; they
// decode into registers, so there is no scratch to account for. The
// propagation-blocked kernel runs from its own transposed arrays under
// either encoding.
func (e *Engine) topologyStreamBytes() int64 {
	ih := e.ih
	var total int64
	for b := range ih.Blocks {
		fb := &ih.Blocks[b]
		switch {
		case e.varint:
			total += fb.Enc.EncodedBytes()
		case e.flipAdv[b] != nil:
			total += 4*fb.NumEdges() + int64(len(e.flipAdv[b]))
		default:
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
	if e.sparseKernel == SparsePB {
		if e.pb != nil {
			total += 8*int64(len(e.pb.pushIndex)) + 4*Es // transposed CSR
		}
		return total
	}
	switch {
	case e.varint:
		total += int64(len(sp.Enc.Data)) // packed rows
		total += 8 * n                   // per-row byte offsets
		total += 8 * (n + 1)             // row degrees come from Index
	case e.sparseAdv != nil:
		total += 4*Es + int64(len(e.sparseAdv))
		if e.sparseKernel == SparsePullDegree {
			total += 2 * 8 * int64(len(sp.Heavy)) // the heavy path's row bounds
		}
	default:
		total += 8*(n+1) + 4*Es
	}
	total += 4 * int64(len(sp.Heavy))
	return total
}

// BytesPerStep returns the modelled bytes one scalar Step touches: the
// topology stream under the engine's encoding, one vertex-data access
// per topology access, and the hub-buffer merge traffic per worker.
// The model matches spmv.Engine.BytesPerStep — flat topology index
// entries are 8 bytes, vertex IDs 4, vertex data spmv.VertexBytes — so
// the step report's bytes_per_edge column is comparable across
// baseline and iHTL kernels and across encodings.
func (e *Engine) BytesPerStep() int64 {
	ih := e.ih
	const vb = int64(spmv.VertexBytes)
	W := int64(e.nworkers)
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

	// Sparse block, by kernel.
	sp := &ih.Sparse
	n := int64(ih.NumV) - int64(sp.DestLo)
	if n <= 0 {
		return total
	}
	Es := sp.NumEdges()
	switch e.sparseKernel {
	case SparsePB:
		if e.pb == nil {
			return total
		}
		segs := int64(len(e.pb.binCur))
		total += vb * int64(ih.NumV) // sequential src sweep
		total += 2 * 12 * Es         // bin writes + drain reads
		total += 2 * 8 * segs        // cursor staging + reads
		total += 2 * vb * n          // dst clear + accumulate
	default:
		total += vb * Es // random src reads
		total += vb * n  // dst writes
		if e.sparseAdv != nil {
			// Edge-major clears the rows (charged above as the write),
			// then accumulates per edge into the cache-resident chunk.
			// The few heavy rows still sum in a register; charging them
			// per edge too keeps the model a function of sizes alone.
			total += vb * Es
		}
	}
	return total
}

// TopologyBytesPerStep returns only the topology-stream half of
// BytesPerStep — the bytes the encoding actually changes.
// BenchmarkBlockEncoding and the encoding tests read their B/edge
// from this: vertex-data traffic is identical under both
// encodings, so including it would dilute the compression ratio
// into an apples-to-oranges number.
func (e *Engine) TopologyBytesPerStep() int64 { return e.topologyStreamBytes() }

// ResidentTopologyBytes returns the bytes of topology the engine needs
// resident in memory to run: always the per-block index arrays (the
// schedulers read per-row edge counts under either encoding), plus the
// flat adjacency or the encoded chunks with the sparse row offsets,
// plus the adv streams of the blocks walked edge-major, the degree
// buckets and the propagation-blocked kernel's transposed arrays when
// configured. Vertex data and hub buffers are
// excluded — they scale with NumV, not with the topology
// representation this measures.
func (e *Engine) ResidentTopologyBytes() int64 {
	ih := e.ih
	var total int64
	for b := range ih.Blocks {
		fb := &ih.Blocks[b]
		total += 8 * int64(len(fb.Index))
		if e.varint {
			total += fb.Enc.EncodedBytes()
		} else {
			total += 4 * fb.NumEdges()
		}
	}
	sp := &ih.Sparse
	total += 8 * int64(len(sp.Index))
	n := int64(ih.NumV) - int64(sp.DestLo)
	if n > 0 {
		if e.varint {
			total += sp.Enc.EncodedBytes()
			total += 8 * int64(len(e.sparseRowOff))
		} else {
			total += 4 * sp.NumEdges()
		}
	}
	total += 4 * int64(len(sp.Heavy))
	for _, adv := range e.flipAdv {
		total += int64(len(adv))
	}
	total += int64(len(e.sparseAdv))
	if e.pb != nil {
		total += 8 * int64(len(e.pb.pushIndex))
		total += 4 * int64(len(e.pb.pushRows))
		total += 12 * int64(len(e.pb.binRows)) // binRows + binVals
		total += 8 * int64(len(e.pb.binOff)+len(e.pb.binCur))
	}
	return total
}
