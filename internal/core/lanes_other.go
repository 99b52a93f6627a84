//go:build !amd64 || purego || ihtlchecked || race

package core

import "ihtl/internal/graph"

// No assembly in this build: every flat lane cell (lanes.go) and the
// scalar prefetching loops (pushTaskFlat, pushEdgePairs, pullEdgePairs)
// run their Go twins — on other architectures, and in the purego,
// ihtlchecked and race builds, which check every access the twins make.
// laneAsm cannot be set here and pullPrefetch and pushPrefetch stay 0,
// so the entries below are never called.

// scalarAsmDist is where pullPrefetch and pushPrefetch start: the Go
// twins.
const scalarAsmDist = 0

const (
	noLaneAsm   = "core: no lane assembly in this build"
	noScalarAsm = "core: no scalar prefetching assembly in this build"
)

func pullEdgePairsAsm(adv []uint8, srcs []graph.VID, src, rows []float64, j, end, r, dist int) (int, int) {
	panic(noScalarAsm)
}

func pushEdgePairsAsm(adv []uint8, dsts []graph.VID, src, buf []float64, i, end, s, dist int) (int, int) {
	panic(noScalarAsm)
}

func pushTaskFlatAsm(idx []int64, dsts []graph.VID, lo, hi int, src, buf []float64, dist int) {
	panic(noScalarAsm)
}

func pullRowFlat8AVX2(srcs []graph.VID, lo, hi int64, src []float64, out *[8]float64, dist int) {
	panic(noLaneAsm)
}

func pullRowFlat4AVX2(srcs []graph.VID, lo, hi int64, src []float64, out *[4]float64) {
	panic(noLaneAsm)
}

func pushTaskFlat8AVX2(idx []int64, dsts []graph.VID, lo, hi int, src, buf []float64, dist int) {
	panic(noLaneAsm)
}
