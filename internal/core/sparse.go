package core

// Sparse-block kernel variants. The baseline pull (Algorithm 3 l.8-10)
// walks Sparse.Srcs with random reads into src over uniform
// edge-balanced row ranges. Two locality-aware alternatives live here,
// selectable per engine through EngineOptions.SparseKernel:
//
//   - SparsePullDegree keeps the pull loop but schedules rows by
//     degree: the heavy rows (precomputed at build, SparseBlock.Heavy)
//     are claimed over edge-balanced LIST parts so one mega-row cannot
//     serialise behind a single worker, and the remaining short rows
//     batch into coarse chunks that amortise claim overhead.
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
	// SparseAuto resolves to the repository default (the kernel that
	// measured fastest on the recorded benchmark machine).
	SparseAuto SparseKernel = iota
	// SparsePull is the paper's pull kernel over uniform edge-balanced
	// row ranges.
	SparsePull
	// SparsePullDegree is the pull kernel under degree-aware row
	// scheduling: heavy rows stolen over edge-balanced list parts,
	// short rows batched into coarse chunks.
	SparsePullDegree
	// SparsePB is the two-phase propagation-blocked kernel (bin into
	// cache-sized destination buckets, then drain).
	SparsePB
)

func (k SparseKernel) String() string {
	switch k {
	case SparseAuto:
		return "auto"
	case SparsePull:
		return "pull"
	case SparsePullDegree:
		return "pull-degree"
	case SparsePB:
		return "pb"
	default:
		return fmt.Sprintf("SparseKernel(%d)", int(k))
	}
}

// ParseSparseKernel parses the -sparse flag values.
func ParseSparseKernel(s string) (SparseKernel, error) {
	switch s {
	case "auto", "":
		return SparseAuto, nil
	case "pull":
		return SparsePull, nil
	case "pull-degree":
		return SparsePullDegree, nil
	case "pb":
		return SparsePB, nil
	default:
		return 0, fmt.Errorf("core: unknown sparse kernel %q (want auto, pull, pull-degree or pb)", s)
	}
}

// defaultSparseKernel is what SparseAuto resolves to on a graph with a
// flipped block (on one without, it is SparsePull: see
// initSparseKernel): the degree-aware
// pull schedule. It won the three-way ablation when it was added
// (results/BENCH_step.json: sparse phase -12 % vs uniform pull on the sk
// web graph, -28 % on the skewed twtrmpi social graph, ties elsewhere —
// one vCPU, every graph LLC-resident), and the benchmark's two-worker,
// beyond-L2 rows have not unseated it. With the prefetching edge-major
// pull, which only its light parts run, it reads 7-12 % lower sparse
// busy time than the uniform pull on both beyond-L2 shapes (the web
// graph's ranges overlapping; without the prefetch the uniform pull was
// 7-9 % lower), so the two are still within noise of each other
// (DESIGN.md §12), and pull-degree is the one that keeps a mega-row
// from serialising behind one worker. The propagation-blocked kernel's
// extra 12 B/edge of pair traffic loses on every recorded row
// (core.step_pb_ns_per_edge) — it needs a bandwidth-bound host, which
// none of the records has been.
const defaultSparseKernel = SparsePullDegree

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

// initSparseKernel resolves the configured kernel and builds its
// schedule state. Called once from NewEngineOpts.
//
// SparseAuto is the uniform pull on a graph with no flipped block: its
// parts are the epilogue slots a streamed step can finish as it pulls them
// (initSlots) — the degree schedule's light parts are final only once
// every heavy part is — and it steps as fast or faster there on its own
// (DESIGN.md §18, "The kernel and the epilogue").
func (e *Engine) initSparseKernel(kernel SparseKernel) {
	if kernel == SparseAuto {
		kernel = defaultSparseKernel
		if len(e.ih.Blocks) == 0 {
			kernel = SparsePull
		}
	}
	e.sparseKernel = kernel
	ih := e.ih
	n := ih.NumV - ih.Sparse.DestLo
	if n <= 0 {
		return
	}
	w := e.nworkers
	switch kernel {
	case SparsePullDegree:
		sp := &ih.Sparse
		ih.EnsureDegreeBuckets()
		if len(sp.Heavy) > 0 {
			e.heavyBounds = sched.EdgeBalancedPartsList(sp.Index, sp.Heavy, w*4)
		}
		// Coarse chunks over the light rows: heavy rows contribute no
		// edges to the balance (the claim loop skips them), so parts
		// carry equal LIGHT work.
		lidx := make([]int64, n+1)
		for i := 0; i < n; i++ {
			d := sp.Index[i+1] - sp.Index[i]
			if d >= sp.HeavyDeg {
				d = 0
			}
			lidx[i+1] = lidx[i] + d
		}
		e.lightBounds = sched.EdgeBalancedParts(lidx, w*2)
		e.auxSched = sched.NewStealScheduler(w)
	case SparsePB:
		e.pb = buildPB(ih, w)
		e.auxSched = sched.NewStealScheduler(w)
		e.binBarrier = sched.NewBarrier(w)
	}
}

// resetSparseScheds re-arms the schedulers the configured sparse
// kernel claims from, at the top of each fused Step.
//
//ihtl:noalloc
func (e *Engine) resetSparseScheds() {
	switch e.sparseKernel {
	case SparsePullDegree:
		if n := len(e.lightBounds) - 1; n > 0 {
			e.sparseSched.Reset(n)
		}
		if n := len(e.heavyBounds) - 1; n > 0 {
			e.auxSched.Reset(n)
		}
	case SparsePB:
		if e.pb != nil {
			e.sparseSched.Reset(e.pb.numChunks)
			e.auxSched.Reset(e.pb.numBuckets)
		}
	default:
		if n := len(e.sparseBounds) - 1; n > 0 {
			e.sparseSched.Reset(n)
		}
	}
}

// sparseWorker runs worker w's share of the configured sparse kernel
// inside the fused dispatch and records its phase clocks: sparse busy
// time for the pull kernels, separate bin/drain busy time for the
// propagation-blocked kernel. The claim loops below serve every width:
// each claimed part goes to its *Batch switch (sparse_batch.go), which
// hands a one-lane dense step to the scalar part body here.
//
//ihtl:noalloc
func (e *Engine) sparseWorker(w int, src, dst []float64) {
	clk := &e.clocks[w]
	switch e.sparseKernel {
	case SparsePullDegree:
		t0 := time.Now()
		e.sparseHeavyWorker(w, src, dst)
		e.sparseLightWorker(w, src, dst)
		clk.sparse += time.Since(t0)
	case SparsePB:
		if e.pb == nil {
			return
		}
		t0 := time.Now()
		e.pbBinWorker(w, src)
		t1 := time.Now()
		clk.bin += t1.Sub(t0)
		// The drain may read any chunk's cursors and bin slots, so
		// every worker must finish binning first. The barrier's atomic
		// RMW total order publishes the plain cursor writes.
		if !e.binBarrier.WaitAbort(e.pool) {
			return
		}
		t2 := time.Now()
		e.pbDrainWorker(w, dst)
		clk.drain += time.Since(t2)
	default:
		t0 := time.Now()
		e.sparsePullWorker(w, src, dst)
		clk.sparse += time.Since(t0)
	}
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

// sparseHeavyWorker pulls the heavy rows over edge-balanced parts of
// the build-time heavy list. Rows stay whole — splitting one across
// workers would regroup its partial sums and break bit-identity with
// pull — but the LIST is split finely enough (4x workers, balanced by
// edges) that the mega-rows spread across the pool.
//
//ihtl:noalloc
func (e *Engine) sparseHeavyWorker(w int, src, dst []float64) {
	nparts := len(e.heavyBounds) - 1
	if nparts <= 0 {
		return
	}
	for !e.pool.Aborted() {
		lo, hi, ok := e.auxSched.Next(w, 1)
		if !ok {
			return
		}
		faultinject.Fire(faultinject.SiteSparsePart)
		for p := lo; p < hi; p++ {
			e.sparseHeavyPartBatch(&e.batch, p, src, dst)
		}
	}
}

//ihtl:noalloc
//ihtl:nobce
//ihtl:noescape
func (e *Engine) sparseHeavyPart(p int, src, dst []float64) {
	sp := &e.ih.Sparse
	base := sp.DestLo
	heavy := sp.Heavy
	qLo, qHi := unchecked.At(e.heavyBounds, p), unchecked.At(e.heavyBounds, p+1)
	if e.varint {
		for q := qLo; q < qHi; q++ {
			i := int(unchecked.At(heavy, q))
			unchecked.SetAt(dst, base+i, e.sparseRowSumEnc(i, src))
		}
		return
	}
	idx, srcs := sp.Index, sp.Srcs
	for q := qLo; q < qHi; q++ {
		i := int(unchecked.At(heavy, q))
		sum := 0.0
		end := unchecked.At(idx, i+1)
		for j := unchecked.At(idx, i); j < end; j++ {
			sum += unchecked.At(src, int(unchecked.At(srcs, int(j))))
		}
		unchecked.SetAt(dst, base+i, sum)
	}
}

// sparseLightWorker pulls the short rows in coarse chunks, skipping
// the heavy rows the list schedule owns.
//
//ihtl:noalloc
func (e *Engine) sparseLightWorker(w int, src, dst []float64) {
	nparts := len(e.lightBounds) - 1
	if nparts <= 0 {
		return
	}
	for !e.pool.Aborted() {
		lo, hi, ok := e.sparseSched.Next(w, 1)
		if !ok {
			return
		}
		faultinject.Fire(faultinject.SiteSparsePart)
		for p := lo; p < hi; p++ {
			e.sparseLightPartBatch(&e.batch, p, src, dst)
		}
	}
}

//ihtl:noalloc
//ihtl:nobce
//ihtl:noescape
func (e *Engine) sparseLightPart(p int, src, dst []float64) {
	sp := &e.ih.Sparse
	heavy := sp.HeavyDeg
	base := sp.DestLo
	idx := sp.Index
	iLo, iHi := unchecked.At(e.lightBounds, p), unchecked.At(e.lightBounds, p+1)
	if e.varint {
		for i := iLo; i < iHi; i++ {
			if unchecked.At(idx, i+1)-unchecked.At(idx, i) >= heavy {
				continue
			}
			unchecked.SetAt(dst, base+i, e.sparseRowSumEnc(i, src))
		}
		return
	}
	if e.sparseAdv != nil {
		e.sparseLightPartEdgeMajor(p, iLo, iHi, src, dst)
		return
	}
	srcs := sp.Srcs
	for i := iLo; i < iHi; i++ {
		lo, end := unchecked.At(idx, i), unchecked.At(idx, i+1)
		if end-lo >= heavy {
			continue
		}
		sum := 0.0
		for j := lo; j < end; j++ {
			sum += unchecked.At(src, int(unchecked.At(srcs, int(j))))
		}
		unchecked.SetAt(dst, base+i, sum)
	}
}

// sparseLightPartEdgeMajor is the light part over the adv stream. The
// heavy rows stay on the heavy path (they are long, and another worker
// may be writing them): the part is cut at each one, every run of light
// rows between two cuts goes through the flat loop, and the heavy row
// is stepped over — it is never empty (HeavyDeg >= 1), so it is itself
// the row of the edge before the next run's first.
//
//ihtl:noalloc
//ihtl:nobce
//ihtl:noescape
func (e *Engine) sparseLightPartEdgeMajor(p, iLo, iHi int, src, dst []float64) {
	sp := &e.ih.Sparse
	heavy := sp.Heavy
	prev := unchecked.At(e.partPrev, p)
	for q := unchecked.At(e.partHeavy, p); iLo < iHi; q++ {
		cut := iHi
		if q < len(heavy) {
			cut = min(cut, int(unchecked.At(heavy, q)))
		}
		pullRowsEdgeMajor(sp, e.sparseAdv, iLo, cut, prev, src, dst)
		prev, iLo = cut, cut+1
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
