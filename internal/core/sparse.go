package core

// Sparse-block kernel variants. The baseline pull (Algorithm 3 l.8-10)
// walks Sparse.Srcs with random reads into src over uniform
// edge-balanced row ranges. One locality-aware alternative lives here,
// selectable per engine through EngineOptions.SparseKernel:
//
//   - SparsePB is propagation blocking (Balaji & Lucia): phase 1 (bin)
//     sweeps the sparse edges in SOURCE order — sequential reads of
//     src — appending (row, contribution) pairs into per-chunk
//     destination-range buckets sized from the §3.4 cache budget;
//     phase 2 (drain) claims whole buckets and reduces them into dst
//     with perfect destination locality and no atomics. Both phases
//     replace the pull kernel's random src reads with two streaming
//     passes over cache-sized working sets.
//
// The pull needs no degree-aware schedule: hubs are a prefix of the
// descending in-degree ranking (selectHubs), so no sparse row is longer
// than the smallest hub's in-degree, and edge-balanced ranges of whole
// rows keep the workers level (DESIGN.md §12).
//
// Bit-for-bit determinism with pull is preserved by construction. The
// pull kernel accumulates each row's sources in ascending order
// (Sparse.Srcs is sorted per row). The PB kernel reproduces exactly
// that order: sources are cut into fixed edge-balanced chunks, every
// (chunk, bucket) pair owns a precomputed segment of the bin arrays,
// the bin sweep appends in ascending source order within its chunk,
// and the drain replays a bucket's segments in ascending chunk order —
// so each row's contributions arrive ascending by source no matter
// which workers claimed which chunks. Skipping +0.0 sources
// (spmv.SkipZero) is bit-transparent because a partial sum seeded with
// +0.0 can never be -0.0, and x + (+0.0) == x for every other x.

import (
	"fmt"
	"time"

	"ihtl/internal/faultinject"
	"ihtl/internal/sched"
	"ihtl/internal/spmv"
	"ihtl/internal/unchecked"
)

// SparseKernel selects the sparse-block kernel of an Engine.
type SparseKernel int

const (
	// SparsePull is the paper's pull kernel over uniform edge-balanced
	// row ranges, the default.
	SparsePull SparseKernel = iota
	// SparsePB is the two-phase propagation-blocked kernel (bin into
	// cache-sized destination buckets, then drain).
	SparsePB
)

func (k SparseKernel) String() string {
	switch k {
	case SparsePull:
		return "pull"
	case SparsePB:
		return "pb"
	default:
		return fmt.Sprintf("SparseKernel(%d)", int(k))
	}
}

// ParseSparseKernel parses the -sparse flag values.
func ParseSparseKernel(s string) (SparseKernel, error) {
	switch s {
	case "pull", "":
		return SparsePull, nil
	case "pb":
		return SparsePB, nil
	default:
		return 0, fmt.Errorf("core: unknown sparse kernel %q (want pull or pb)", s)
	}
}

// pbState is the preallocated state of the propagation-blocked sparse
// kernel. All arrays are sized exactly at engine construction; a Step
// touches them without allocating.
type pbState struct {
	// Rows per destination bucket is 1 << shift: the §3.4 cache budget
	// (CacheBytes/VertexBytes rows, i.e. the resolved HubsPerBlock)
	// rounded down to a power of two so the bin inner loop buckets by
	// shift instead of division.
	shift      uint
	numBuckets int
	numChunks  int

	// pushIndex/pushRows are the sparse block transposed to a push CSR
	// over ALL sources: pushRows[pushIndex[s]:pushIndex[s+1]] are the
	// sparse rows (relative to DestLo) that source s feeds, in
	// ascending row order.
	pushIndex []int64
	pushRows  []uint32
	// chunkBounds are numChunks+1 edge-balanced source boundaries; a
	// bin worker claims whole chunks.
	chunkBounds []int

	// binOff holds the numBuckets*numChunks+1 segment offsets of the
	// bin arrays, bucket-major (segment of chunk c, bucket b is
	// b*numChunks+c) so a drained bucket reads contiguous memory.
	// Capacities are exact edge counts; binCur is the running cursor —
	// sources skipped as +0.0 leave tail slots unused, so the drain
	// reads up to the cursor, not the next offset.
	binOff []int64
	binCur []int64
	// binRows are the binned rows; binVals their contributions, k lanes
	// a slot (slot p's at [p*k, (p+1)*k)), resized to the step's width by
	// setWidth — the one width-dependent array here.
	binRows []uint32
	binVals []float64
}

// buildPB transposes the sparse block and sizes the bin segments.
// Returns nil when the block has no rows.
func buildPB(ih *IHTL, workers int) *pbState {
	sp := &ih.Sparse
	n := ih.NumV - sp.DestLo
	if n <= 0 {
		return nil
	}
	// The transpose below needs the flat source array. When only the
	// encoded form is resident (a v2 varint load), decode it
	// transiently — the pbState's own push arrays replace it, so the
	// flat array is garbage right after construction.
	srcs := sp.Srcs
	if srcs == nil && sp.Enc != nil {
		srcs = decodeFlat(sp.Enc)
	}
	pb := &pbState{}
	rows := ih.HubsPerBlock
	if rows < 256 {
		rows = 256
	}
	for (1 << (pb.shift + 1)) <= rows {
		pb.shift++
	}
	pb.numBuckets = (n + (1 << pb.shift) - 1) >> pb.shift
	pb.numChunks = workers * 4

	pb.pushIndex = make([]int64, ih.NumV+1)
	for _, s := range srcs {
		pb.pushIndex[s+1]++
	}
	for v := 0; v < ih.NumV; v++ {
		pb.pushIndex[v+1] += pb.pushIndex[v]
	}
	pb.pushRows = make([]uint32, len(srcs))
	cur := make([]int64, ih.NumV)
	copy(cur, pb.pushIndex[:ih.NumV])
	// Row-ascending fill: each source's run comes out in ascending row
	// order, which the bin sweep preserves.
	for i := 0; i < n; i++ {
		for j := sp.Index[i]; j < sp.Index[i+1]; j++ {
			s := srcs[j]
			pb.pushRows[cur[s]] = uint32(i)
			cur[s]++
		}
	}
	pb.chunkBounds = sched.EdgeBalancedParts(pb.pushIndex, pb.numChunks)

	C, B := pb.numChunks, pb.numBuckets
	pb.binOff = make([]int64, B*C+1)
	for c := 0; c < C; c++ {
		for e := pb.pushIndex[pb.chunkBounds[c]]; e < pb.pushIndex[pb.chunkBounds[c+1]]; e++ {
			b := int(pb.pushRows[e]) >> pb.shift
			pb.binOff[b*C+c+1]++
		}
	}
	for i := 0; i < B*C; i++ {
		pb.binOff[i+1] += pb.binOff[i]
	}
	pb.binCur = make([]int64, B*C)
	pb.binRows = make([]uint32, len(srcs))
	return pb
}

// initSparseKernel builds the configured kernel's schedule state.
// Called once from NewEngineOpts. The pull claims the uniform parts
// (sparseBounds) and needs nothing more.
func (e *Engine) initSparseKernel(kernel SparseKernel) {
	e.sparseKernel = kernel
	ih := e.ih
	if kernel != SparsePB || ih.NumV-ih.Sparse.DestLo <= 0 {
		return
	}
	w := e.pool.Workers()
	e.pb = buildPB(ih, w)
	e.auxSched = sched.NewStealScheduler(w)
	e.binBarrier = sched.NewBarrier(w)
}

// resetSparseScheds re-arms the schedulers the configured sparse
// kernel claims from, at the top of each fused Step.
//
//ihtl:noalloc
func (e *Engine) resetSparseScheds() {
	if e.sparseKernel == SparsePB {
		if e.pb != nil {
			e.sparseSched.Reset(e.pb.numChunks)
			e.auxSched.Reset(e.pb.numBuckets)
		}
	} else if n := len(e.sparseBounds) - 1; n > 0 {
		e.sparseSched.Reset(n)
	}
}

// sparseWorker runs worker w's share of the configured sparse kernel
// inside the fused dispatch and records its phase clocks: sparse busy
// time for the pull, separate bin/drain busy time for the propagation-
// blocked kernel. The claim loops below serve every width:
// each claimed part goes to its *Batch switch (sparse_batch.go), which
// hands a one-lane dense step to the scalar part body here.
//
//ihtl:noalloc
func (e *Engine) sparseWorker(w int, src, dst []float64) {
	clk := &e.clocks[w]
	if e.sparseKernel != SparsePB {
		t0 := time.Now()
		e.sparsePullWorker(w, src, dst)
		clk.sparse += time.Since(t0)
		return
	}
	if e.pb == nil {
		return
	}
	t0 := time.Now()
	e.pbBinWorker(w, src)
	t1 := time.Now()
	clk.bin += t1.Sub(t0)
	// The drain may read any chunk's cursors and bin slots, so every
	// worker must finish binning first. The barrier's atomic RMW total
	// order publishes the plain cursor writes.
	if !e.binBarrier.WaitAbort(e.pool) {
		return
	}
	t2 := time.Now()
	e.pbDrainWorker(w, dst)
	clk.drain += time.Since(t2)
}

// sparsePullWorker drains the baseline pull via range stealing over
// the uniform edge-balanced partitions. On a streamed step each part is
// also an epilogue slot whose rows nothing else writes, final once
// pulled: the worker scans and finishes it there, while they are still
// in its cache.
//
//ihtl:noalloc
func (e *Engine) sparsePullWorker(w int, src, dst []float64) {
	nparts := len(e.sparseBounds) - 1
	if nparts <= 0 {
		return
	}
	streamed := e.streamed
	for !e.pool.Aborted() {
		lo, hi, ok := e.sparseSched.Next(w, 1)
		if !ok {
			return
		}
		faultinject.Fire(faultinject.SiteSparsePart)
		for p := lo; p < hi; p++ {
			e.sparsePullPartBatch(&e.batch, p, src, dst)
			if streamed {
				e.finishSlot(w, p)
			}
		}
	}
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
	if e.varint {
		for i := lo; i < hi; i++ {
			unchecked.SetAt(dst, base+i, e.sparseRowSumEnc(i, src))
		}
		return
	}
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

// pbBinWorker claims source chunks and bins their contributions into
// per-(chunk, bucket) segments.
//
//ihtl:noalloc
func (e *Engine) pbBinWorker(w int, src []float64) {
	for !e.pool.Aborted() {
		lo, hi, ok := e.sparseSched.Next(w, 1)
		if !ok {
			return
		}
		faultinject.Fire(faultinject.SiteSparseBin)
		for c := lo; c < hi; c++ {
			e.pbBinChunkBatch(&e.batch, c, src)
		}
	}
}

// pbBinChunk bins chunk c: stage the chunk's bucket cursors, then
// sweep its sources in ascending order appending (row, x) pairs. The
// sweep reads src SEQUENTIALLY (the transposed CSR is source-major)
// and each append lands at a bucket cursor — the random scatter of the
// pull kernel becomes a bounded set of sequential segment writes.
//
//ihtl:noalloc
//ihtl:nobce
//ihtl:noescape
func (e *Engine) pbBinChunk(c int, src []float64) {
	pb := e.pb
	C := pb.numChunks
	binCur, binOff := pb.binCur, pb.binOff
	for b := 0; b < pb.numBuckets; b++ {
		unchecked.SetAt(binCur, b*C+c, unchecked.At(binOff, b*C+c))
	}
	shift := pb.shift
	pushIndex, pushRows := pb.pushIndex, pb.pushRows
	binRows, binVals := pb.binRows, pb.binVals
	sLo, sHi := unchecked.At(pb.chunkBounds, c), unchecked.At(pb.chunkBounds, c+1)
	for s := sLo; s < sHi; s++ {
		x := unchecked.At(src, s)
		if spmv.SkipZero(x) {
			continue
		}
		end := unchecked.At(pushIndex, s+1)
		for i := unchecked.At(pushIndex, s); i < end; i++ {
			row := unchecked.At(pushRows, int(i))
			seg := int(row>>shift)*C + c
			p := unchecked.At(binCur, seg)
			unchecked.SetAt(binRows, int(p), row)
			unchecked.SetAt(binVals, int(p), x)
			unchecked.SetAt(binCur, seg, p+1)
		}
	}
}

// pbDrainWorker claims whole destination buckets and reduces them.
//
//ihtl:noalloc
func (e *Engine) pbDrainWorker(w int, dst []float64) {
	for !e.pool.Aborted() {
		lo, hi, ok := e.auxSched.Next(w, 1)
		if !ok {
			return
		}
		faultinject.Fire(faultinject.SiteSparseDrain)
		for b := lo; b < hi; b++ {
			e.pbDrainBucketBatch(&e.batch, b, dst)
		}
	}
}

// pbDrainBucket zeroes bucket b's row range and replays its segments
// in ascending chunk order, accumulating into dst. The bucket's rows
// fit the §3.4 cache budget, so every add hits a resident line; no
// other worker touches these rows, so no atomics. Replaying chunks in
// ascending order restores the global ascending-source accumulation
// order of the pull kernel.
//
//ihtl:noalloc
//ihtl:nobce
//ihtl:noescape
func (e *Engine) pbDrainBucket(b int, dst []float64) {
	pb := e.pb
	sp := &e.ih.Sparse
	n := e.ih.NumV - sp.DestLo
	rowLo := b << pb.shift
	rowHi := rowLo + (1 << pb.shift)
	if rowHi > n {
		rowHi = n
	}
	base := sp.DestLo
	// clear keeps the runtime memclr; the slice bounds are clamped
	// above, so the one check here is the deliberate residue.
	clear(dst[base+rowLo : base+rowHi]) //ihtl:allow-boundscheck clamped range; clear() is the runtime memclr
	C := pb.numChunks
	binOff, binCur := pb.binOff, pb.binCur
	binRows, binVals := pb.binRows, pb.binVals
	for c := 0; c < C; c++ {
		seg := b*C + c
		end := unchecked.At(binCur, seg)
		for p := unchecked.At(binOff, seg); p < end; p++ {
			unchecked.AddAt(dst, base+int(unchecked.At(binRows, int(p))), unchecked.At(binVals, int(p)))
		}
	}
}
