//go:build amd64 && linux && !purego && !ihtlchecked && !race

package core

import (
	"fmt"
	"math"
	"syscall"
	"testing"
	"unsafe"

	"ihtl/internal/graph"
	"ihtl/internal/xrand"
)

// The twin differential: each assembly lane kernel against its Go twin,
// called directly over generated rows, bit for bit. Every vector a
// kernel reads or writes ends where a PROT_NONE page begins, so a row
// that ends at the last vertex proves the assembly reads no byte past
// it. The two 8-lane cells run at every prefetch distance of
// prefetchDists: their lookahead reads srcs / dsts dist edges ahead,
// across row and task ends, and the last edge of each names the last
// vertex or hub, so a lookahead read one index past the slice faults.

// guarded returns n zero elements whose backing array ends at a page
// the process may not touch.
func guarded[T any](t *testing.T, n int) []T {
	t.Helper()
	var zero T
	size, page := n*int(unsafe.Sizeof(zero)), syscall.Getpagesize()
	rw := (size + page - 1) / page * page
	mem, err := syscall.Mmap(-1, 0, rw+page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { syscall.Munmap(mem) })
	if err := syscall.Mprotect(mem[rw:], syscall.PROT_NONE); err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		return nil
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&mem[rw-size])), n)
}

// laneValues are the lanes whose bits are fragile: signed zeros,
// infinities, NaN, subnormals. The one NaN is amd64's default NaN, the
// bits Inf - Inf produces, so every NaN a sum can hold is the same: of
// two different NaNs an add keeps its first operand's, and the twins do
// not fix the operand order — pullRowFlat8 reloads its spilled lane 7
// as x + sum where the other lanes add sum + x — so which NaN survives
// is not part of any kernel's contract (see requireSameBits).
var laneValues = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.Float64frombits(0xfff8_0000_0000_0000),
	math.Float64frombits(1), -math.Float64frombits(1), math.Float64frombits(0x000f_ffff_ffff_ffff),
	math.SmallestNonzeroFloat64 * 3, -math.MaxFloat64, math.MaxFloat64,
}

// randomLanes fills x with lanes, one in four from laneValues and the
// rest finite values of mixed sign and magnitude, so sums round and
// their order shows.
func randomLanes(rng *xrand.Xoshiro256, x []float64) {
	for i := range x {
		if rng.Uint64n(4) == 0 {
			x[i] = laneValues[rng.Intn(len(laneValues))]
		} else {
			x[i] = (rng.Float64() - 0.5) * math.Ldexp(1, rng.Intn(80)-40)
		}
	}
}

func requireAVX2(t *testing.T) {
	if !hasAVX2() {
		t.Skip("no AVX2 on this CPU: the Go twins are the only arm")
	}
}

// prefetchDists are the distances the 8-lane cells are held to their
// twins at, over an index slice of edges entries: 0 (the plain loop),
// the shortest lookaheads, the shipped one, one that reaches only the
// first edge's row, and two that reach past the slice from the start.
func prefetchDists(edges int) []int {
	return []int{0, 1, 2, lanePrefetchDist, edges - 1, edges, 1 << 20}
}

func TestLaneAsmPullMatchesTwin(t *testing.T) {
	requireAVX2(t)
	const n = 517
	rng := xrand.New(28)
	for _, k := range []int{4, 8} {
		src := guarded[float64](t, n*k)
		randomLanes(rng, src)
		for v := 0; v < n; v += 7 { // whole rows of +0.0, and of +0.0 but one -0.0
			clear(src[v*k : v*k+k])
			if v%2 == 1 {
				src[v*k+v%k] = math.Copysign(0, -1)
			}
		}
		// Rows of every length up to 70 at random offsets, runs of empty
		// rows among them (a lookahead runs on through them into later
		// rows), rows whose last source is the last vertex, and the last
		// row's last source — the last entry of srcs — the last vertex.
		var bounds [][2]int64
		var ids []graph.VID
		for r := 0; r < 400; r++ {
			deg := rng.Intn(71)
			if r%9 == 0 || r%37 < 3 {
				deg = 0
			}
			if r == 399 {
				deg = 1 + rng.Intn(70)
			}
			lo := int64(len(ids))
			for j := 0; j < deg; j++ {
				ids = append(ids, graph.VID(rng.Intn(n)))
			}
			if deg > 0 && (r%5 == 0 || r == 399) {
				ids[len(ids)-1] = n - 1
			}
			bounds = append(bounds, [2]int64{lo, int64(len(ids))})
		}
		srcs := guarded[graph.VID](t, len(ids))
		copy(srcs, ids)
		out := guarded[float64](t, 2*k) // want, then got: got ends at the guard
		dists := []int{0}               // the 4-lane cell has no prefetching loop
		if k == 8 {
			dists = prefetchDists(len(srcs))
		}
		for _, dist := range dists {
			for r, b := range bounds {
				for i := range out {
					out[i] = -7.5 // every lane must be written, an empty row's too
				}
				if k == 8 {
					pullRowFlat8(srcs, b[0], b[1], src, (*[8]float64)(out[:8]))
					pullRowFlat8AVX2(srcs, b[0], b[1], src, (*[8]float64)(out[8:]), dist)
				} else {
					pullRowFlat4(srcs, b[0], b[1], src, (*[4]float64)(out[:4]))
					pullRowFlat4AVX2(srcs, b[0], b[1], src, (*[4]float64)(out[4:]))
				}
				requireBitIdentical(t, fmt.Sprintf("k%d dist %d row %d (%d sources)", k, dist, r, b[1]-b[0]), out[:k], out[k:])
			}
		}
	}
}

func TestLaneAsmPushMatchesTwin(t *testing.T) {
	requireAVX2(t)
	const sources, hubs = 300, 211
	rng := xrand.New(29)
	src := guarded[float64](t, sources*8)
	randomLanes(rng, src)
	for s := 0; s < sources; s += 5 {
		clear(src[s*8 : s*8+8]) // all +0.0: skipped
		if s%10 == 5 {
			src[s*8+s%8] = math.Copysign(0, -1) // one -0.0 lane: traversed
		}
	}
	// The last source is traversed and its last edge — the last entry of
	// dsts — names the last hub.
	src[(sources-1)*8] = 1
	idx := guarded[int64](t, sources+1)
	var ids []graph.VID
	for s := 0; s < sources; s++ {
		deg := rng.Intn(40)
		if s%11 == 0 {
			deg = 0
		}
		if s == sources-1 {
			deg = 1 + rng.Intn(39)
		}
		for j := 0; j < deg; j++ {
			ids = append(ids, graph.VID(rng.Intn(hubs)))
		}
		if deg > 0 && (s%6 == 0 || s == sources-1) {
			ids[len(ids)-1] = hubs - 1
		}
		idx[s+1] = int64(len(ids))
	}
	fb := &FlippedBlock{Index: idx, Dsts: guarded[graph.VID](t, len(ids))}
	copy(fb.Dsts, ids)
	// A hub lane that holds -0.0 shows whether a +0.0 lane was added to
	// it (-0.0 + +0.0 is +0.0), so the hub rows start from -0.0 and
	// fragile values as well as finite ones.
	start := make([]float64, hubs*8)
	randomLanes(rng, start)
	for i := 0; i < len(start); i += 3 {
		start[i] = math.Copysign(0, -1)
	}
	// Tasks whose lookahead crosses bt.hi into sources the task does not
	// push, and tasks that run to the last source.
	want, got := make([]float64, hubs*8), guarded[float64](t, hubs*8)
	for _, dist := range prefetchDists(len(ids)) {
		for _, task := range [][2]int{{0, sources}, {0, 0}, {17, 17}, {0, 1}, {5, 6}, {10, 11}, {3, 150}, {150, sources}, {sources - 1, sources}, {sources - 3, sources - 1}} {
			copy(want, start)
			copy(got, start)
			pushTaskFlat8(&blockTask{lo: task[0], hi: task[1]}, fb, src, want)
			pushTaskFlat8AVX2(fb.Index, fb.Dsts, task[0], task[1], src, got, dist)
			requireBitIdentical(t, fmt.Sprintf("dist %d, sources [%d, %d)", dist, task[0], task[1]), want, got)
		}
	}
}
