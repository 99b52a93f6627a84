package core

// The sparse-block kernel: the pull of Algorithm 3 l.8-10. It walks
// Sparse.Srcs with random reads into src over uniform edge-balanced row
// ranges (sparseBounds), claimed by range stealing inside the fused
// dispatch, and sums each row's sources in ascending order (Sparse.Srcs
// is sorted per row) — so its bits are a function of the topology alone.
//
// The pull needs no degree-aware schedule: hubs are a prefix of the
// descending in-degree ranking (selectHubs), so no sparse row is longer
// than the smallest hub's in-degree, and edge-balanced ranges of whole
// rows keep the workers level (DESIGN.md §12).

import (
	"time"

	"ihtl/internal/faultinject"
	"ihtl/internal/unchecked"
)

// SparseKernel named a sparse-block kernel of an Engine.
//
// Deprecated: the pull is the only sparse kernel, and
// EngineOptions.SparseKernel is read by no code.
type SparseKernel int

const (
	// SparsePull is the paper's pull kernel, the one every engine runs.
	//
	// Deprecated: see SparseKernel.
	SparsePull SparseKernel = iota
	// SparsePB named the propagation-blocked kernel, removed
	// (DESIGN.md §12).
	//
	// Deprecated: see SparseKernel.
	SparsePB
)

// sparseWorker runs worker w's share of the sparse pull inside the
// fused dispatch and records its sparse busy time: it claims the
// uniform edge-balanced parts by range stealing and hands each to its
// width switch (sparse_batch.go), which gives a one-lane dense step to
// the scalar part body here. On a streamed step each part is also an
// epilogue slot whose rows nothing else writes, final once pulled: the
// worker scans and finishes it there, while they are still in its
// cache.
//
//ihtl:noalloc
func (e *Engine) sparseWorker(w int, src, dst []float64) {
	t0 := time.Now()
	if len(e.sparseBounds) > 1 {
		streamed := e.streamed
		for !e.pool.Aborted() {
			lo, hi, ok := e.sparseSched.Next(w, 1)
			if !ok {
				break
			}
			faultinject.Fire(faultinject.SiteSparsePart)
			for p := lo; p < hi; p++ {
				e.sparsePullPartBatch(p, src, dst)
				if streamed {
					e.finishSlot(w, p)
				}
			}
		}
	}
	e.clocks[w].sparse += time.Since(t0)
}

// sparsePullPart pulls part p of the uniform schedule one lane wide:
// rows [sparseBounds[p], sparseBounds[p+1]) of the sparse block.
//
//ihtl:noalloc
//ihtl:nobce
//ihtl:noescape
func (e *Engine) sparsePullPart(p int, src, dst []float64) {
	sp := &e.ih.Sparse
	base := sp.DestLo
	lo, hi := unchecked.At(e.sparseBounds, p), unchecked.At(e.sparseBounds, p+1)
	if e.sparseAdv != nil {
		pullRowsEdgeMajor(sp, e.sparseAdv, lo, hi, unchecked.At(e.partPrev, p), src, dst)
		return
	}
	idx, srcs := sp.Index, sp.Srcs
	for i := lo; i < hi; i++ {
		sum := 0.0
		end := unchecked.At(idx, i+1)
		for j := unchecked.At(idx, i); j < end; j++ {
			sum += unchecked.At(src, int(unchecked.At(srcs, int(j))))
		}
		unchecked.SetAt(dst, base+i, sum)
	}
}

// pullRowsEdgeMajor pulls sparse rows [lo, hi) over the adv stream:
// clear a chunk of dst, accumulate the chunk's edges into it — two to
// a byte of adv — repeat. prev is the row of the edge before Index[lo].
// Every row of the range is written (an empty row keeps the cleared
// +0.0, the CSR kernel's empty sum), so the range must hold no row
// another path owns. The pairs go through pullEdgePairs or its
// prefetching assembly (pullPrefetch picks); the edges they leave — one
// on a byte's second nibble, an escape, a chunk's odd last edge — are
// taken here, one at a time.
//
//ihtl:noalloc
//ihtl:nobce
//ihtl:noescape
func pullRowsEdgeMajor(sp *SparseBlock, adv []uint8, lo, hi, prev int, src, dst []float64) {
	idx, srcs := sp.Index, sp.Srcs
	rows := unchecked.SliceAt(dst, sp.DestLo, len(idx)-1)
	dist := pullPrefetch
	r := prev
	j := int(unchecked.At(idx, lo))
	for c := lo; c < hi; c += pullChunkRows {
		cEnd := min(c+pullChunkRows, hi)
		clear(unchecked.SliceAt(rows, c, cEnd-c))
		end := int(unchecked.At(idx, cEnd))
		for j < end {
			if j&1 == 0 {
				if dist > 0 {
					j, r = pullEdgePairsAsm(adv, srcs, src, rows, j, end, r, dist)
				} else {
					j, r = pullEdgePairs(adv, srcs, src, rows, j, end, r)
				}
				if j == end {
					break
				}
			}
			r = advance(idx, j, r, advAt(adv, j))
			unchecked.AddAt(rows, r, unchecked.At(src, int(unchecked.At(srcs, j))))
			j++
		}
	}
}
