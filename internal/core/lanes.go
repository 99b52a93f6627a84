package core

import (
	"ihtl/internal/compress"
	"ihtl/internal/graph"
	"ihtl/internal/spmv"
	"ihtl/internal/unchecked"
)

// Register-resident lane kernels: the K-lane push and pull for the
// (width, topology) pairs the benchmark puts traffic on — 8 lanes over
// flat topology (the ppr8 rung on the default engine), 4 lanes over
// packed gap rows (the daemon's Lanes on a mapped packed engine) and the
// 4-lane pull over flat rows (the daemon's Lanes on a raw file, which
// has no flipped block to push). With K a
// compile-time constant a source row's lanes are loaded into locals
// once per row, a hub's lanes are updated through an array pointer at
// constant offsets, and a pulled row is summed in locals stored once —
// where the run-time-K loop spends a loop trip and a reload of x on
// every lane of every edge. The locals must be scalars (the compiler
// keeps no [N]float64 in registers) and 8 of them plus temporaries fill
// the 16 XMM registers, so wider rows stay generic. Lanes are
// independent and each keeps its order of additions and its +0.0
// start: bit-for-bit the generic loop. DESIGN.md §8 has the counts.
// Engine.pushTaskBatch and Engine.pullRowLanes are the only callers;
// every other pair (the flat 4-lane push and packed 8 among them) runs
// the generic loop until a workload measures it.
//
// The three flat cells (pushTaskFlat8, pullRowFlat8, pullRowFlat4) also
// have an AVX2 body (lanes_amd64.s), a lane row per VADDPD, taken while
// laneAsm is set. The Go bodies here are their twins: what every other
// host and the purego, ihtlchecked and race builds run, and what
// lanes_asm_test.go holds the assembly to, bit for bit. The two 8-lane
// bodies also prefetch the lane row prefetchDist edges ahead when
// the engine's width outgrows the cache (batchState.prefetch, decided by
// Engine.setWidth from NumV·k alone); the plain loop runs otherwise.

// laneAsm selects the assembly lane kernels over their Go twins. It is
// set once per process from the CPU (spmv.HasAVX2, at init in
// lanes_amd64.go) and read by the two switches that pick a kernel,
// never per edge.
var laneAsm bool

// prefetchDist is how many edges ahead every prefetching body fetches
// the value its edge will touch: the scalar push's hub entry
// (pushTaskFlatAsm, pushEdgePairsAsm), the edge-major pull's source value
// (pullEdgePairsAsm) and the 8-lane cells' lane row when the width
// outgrows the cache (Engine.setWidth). Far enough that a miss is in
// flight for the edges between, near enough that the line is still in
// L1 when its edge comes. Chosen from the distance sweeps of
// BenchmarkShortRowKernel and BenchmarkLaneKernel (DESIGN.md §17,
// "Prefetching the pull" and "Prefetching the push"; §8, "Prefetching the
// lanes"): shorter distances leave misses exposed on the beyond-L2
// graphs and 128 reads level with 64, so the knee is taken rather than
// the far end.
const prefetchDist = 64

// pullPrefetch and pushPrefetch pick the bodies of the scalar
// prefetching loops once per call — pullPrefetch the edge-major pull's
// pair loop, pushPrefetch the CSR push and the edge-major push's pair
// loop: a distance D > 0 runs the assembly, which prefetches D edges
// ahead, and 0 runs the Go twin. Both start at scalarAsmDist —
// prefetchDist in a build with the assembly (edgemajor_amd64.s;
// PREFETCHT0 and ADDSD are baseline amd64, so there is no CPU check), 0
// in every other. ForceGoTwins moves them between the two, and the
// distance sweeps of BenchmarkShortRowKernel set each directly.
var pullPrefetch, pushPrefetch = scalarAsmDist, scalarAsmDist

// ForceGoTwins makes every kernel with an assembly body — the flat lane
// cells and the scalar prefetching loops — run its Go twin (on), or
// returns them to the per-process choice (!on), and reports whether
// this build and CPU run any assembly body at all. It is the hook that
// lets tests run both arms on one host; call it only between steps.
// The 8-lane cells' prefetch distance is each engine's, decided per
// width from the footprint (Engine.setWidth); the twins ignore it, so it
// is left alone here.
func ForceGoTwins(on bool) (asm bool) {
	avx2 := spmv.HasAVX2()
	laneAsm = avx2 && !on
	pullPrefetch, pushPrefetch = scalarAsmDist, scalarAsmDist
	if on {
		pullPrefetch, pushPrefetch = 0, 0
	}
	return avx2 || scalarAsmDist > 0
}

// pushTaskFlat8 is pushTaskFlatBatch at k = 8.
//
//ihtl:noalloc
//ihtl:nobce
//ihtl:noescape
func pushTaskFlat8(bt *blockTask, fb *FlippedBlock, src, buf []float64) {
	idx, dsts := fb.Index, fb.Dsts
	for s := bt.lo; s < bt.hi; s++ {
		xs := unchecked.Lanes8At(src, s*8)
		if spmv.SkipZeroLanes(xs[:]) {
			continue
		}
		x0, x1, x2, x3, x4, x5, x6, x7 := xs[0], xs[1], xs[2], xs[3], xs[4], xs[5], xs[6], xs[7]
		end := unchecked.At(idx, s+1)
		for i := unchecked.At(idx, s); i < end; i++ {
			d := unchecked.Lanes8At(buf, int(unchecked.At(dsts, int(i)))*8)
			d[0] += x0
			d[1] += x1
			d[2] += x2
			d[3] += x3
			d[4] += x4
			d[5] += x5
			d[6] += x6
			d[7] += x7
		}
	}
}

// pushTaskEnc4 is pushTaskEncBatch at k = 4.
//
//ihtl:noalloc
//ihtl:nobce
//ihtl:noescape
func pushTaskEnc4(bt *blockTask, fb *FlippedBlock, src, buf []float64) {
	data := fb.Enc.Data
	pos := int(unchecked.At(fb.Enc.ByteOff, bt.chunk))
	for s := bt.lo; s < bt.hi; s++ {
		deg, width, mask, p := compress.RowHeader(data, pos)
		pos = p + deg*width
		xs := unchecked.Lanes4At(src, s*4)
		if spmv.SkipZeroLanes(xs[:]) {
			continue
		}
		x0, x1, x2, x3 := xs[0], xs[1], xs[2], xs[3]
		prev := uint32(0)
		for ; p < pos; p += width {
			prev += unchecked.Load32(data, p) & mask
			d := unchecked.Lanes4At(buf, int(prev)*4)
			d[0] += x0
			d[1] += x1
			d[2] += x2
			d[3] += x3
		}
	}
}

// pullRowFlat8 stores into out the lane sums of the src rows named by
// srcs[lo:hi], added in that order from +0.0.
//
//ihtl:noalloc
//ihtl:nobce
//ihtl:noescape
func pullRowFlat8(srcs []graph.VID, lo, hi int64, src []float64, out *[8]float64) {
	var a0, a1, a2, a3, a4, a5, a6, a7 float64
	for jj := lo; jj < hi; jj++ {
		x := unchecked.Lanes8At(src, int(unchecked.At(srcs, int(jj)))*8)
		a0 += x[0]
		a1 += x[1]
		a2 += x[2]
		a3 += x[3]
		a4 += x[4]
		a5 += x[5]
		a6 += x[6]
		a7 += x[7]
	}
	out[0], out[1], out[2], out[3], out[4], out[5], out[6], out[7] = a0, a1, a2, a3, a4, a5, a6, a7
}

// pullRowFlat4 is pullRowFlat8 four lanes wide.
//
//ihtl:noalloc
//ihtl:nobce
//ihtl:noescape
func pullRowFlat4(srcs []graph.VID, lo, hi int64, src []float64, out *[4]float64) {
	var a0, a1, a2, a3 float64
	for jj := lo; jj < hi; jj++ {
		x := unchecked.Lanes4At(src, int(unchecked.At(srcs, int(jj)))*4)
		a0 += x[0]
		a1 += x[1]
		a2 += x[2]
		a3 += x[3]
	}
	out[0], out[1], out[2], out[3] = a0, a1, a2, a3
}

// pullRowEnc4 is pullRowFlat8 four lanes wide over the packed row whose
// header is at byte offset off (every row has one) and whose deg gaps
// follow it, the degree from the resident Index (see sparseRowSumEnc).
//
//ihtl:noalloc
//ihtl:nobce
//ihtl:noescape
func pullRowEnc4(data []byte, off int, deg int64, src []float64, out *[4]float64) {
	var a0, a1, a2, a3 float64
	_, width, mask, p := compress.RowHeader(data, off)
	prev := uint32(0)
	for ; deg > 0; deg-- {
		prev += unchecked.Load32(data, p) & mask
		p += width
		x := unchecked.Lanes4At(src, int(prev)*4)
		a0 += x[0]
		a1 += x[1]
		a2 += x[2]
		a3 += x[3]
	}
	out[0], out[1], out[2], out[3] = a0, a1, a2, a3
}
