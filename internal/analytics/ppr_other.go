//go:build !amd64 || purego || ihtlchecked || race

package analytics

// No assembly in this build: pprSweep.plainRows runs the Go twin pprRows
// at every width — on other architectures, and in the purego,
// ihtlchecked and race builds, which check every access it makes.
// pprRowAsm cannot be set here, so the entries below are never called.

const noRowAsm = "analytics: no PPR row assembly in this build"

func pprRows8AVX2(lo, hi int, d float64, sums, ranks, contrib, invDeg, delta []float64) {
	panic(noRowAsm)
}

func pprRows4AVX2(lo, hi int, d float64, sums, ranks, contrib, invDeg, delta []float64) {
	panic(noRowAsm)
}
