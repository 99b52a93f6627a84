//go:build !amd64 || purego || ihtlchecked || race

package core

import "ihtl/internal/graph"

// No lane assembly in this build: every flat lane cell runs its Go twin
// (lanes.go) — on other architectures, and in the purego, ihtlchecked
// and race builds, which check every access the twins make. laneAsm
// cannot be set here, so the entries below are never called.

func hasAVX2() bool { return false }

const noLaneAsm = "core: no lane assembly in this build"

func pullRowFlat8AVX2(srcs []graph.VID, lo, hi int64, src []float64, out *[8]float64) {
	panic(noLaneAsm)
}

func pullRowFlat4AVX2(srcs []graph.VID, lo, hi int64, src []float64, out *[4]float64) {
	panic(noLaneAsm)
}

func pushTaskFlat8AVX2(idx []int64, dsts []graph.VID, lo, hi int, src, buf []float64) {
	panic(noLaneAsm)
}
