//go:build !amd64 || purego || ihtlchecked || race

package core

import "ihtl/internal/graph"

// No assembly in this build: every flat lane cell (lanes.go) and the
// edge-major pull's pair loop (pullEdgePairs) run their Go twins — on
// other architectures, and in the purego, ihtlchecked and race builds,
// which check every access the twins make. laneAsm cannot be set here
// and pullPrefetch stays 0, so the entries below are never called.

func hasAVX2() bool { return false }

// edgeAsmDist is pullPrefetch's start: the Go twin.
const edgeAsmDist = 0

const noLaneAsm = "core: no lane assembly in this build"

func pullEdgePairsAsm(adv []uint8, srcs []graph.VID, src, rows []float64, j, end, r, dist int) (int, int) {
	panic("core: no edge-major assembly in this build")
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
