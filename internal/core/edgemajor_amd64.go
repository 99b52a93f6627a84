//go:build !purego && !ihtlchecked && !race

package core

import "ihtl/internal/graph"

// The assembly body of the edge-major pull's pair loop
// (edgemajor_amd64.s). The loop is pullEdgePairs instruction for
// instruction — the same ADDSDs, in the same order, each with the
// accumulator as its first operand — plus two PREFETCHT0s a pair: the
// source values of the edges dist and dist+1 ahead, while that edge is
// still inside srcs. The pull's src reads are random and, past L2,
// misses; a prefetch retires at once, so the misses of the next dist
// edges overlap where the Go loop can keep only what its reorder
// window holds. Go has no prefetch outside the runtime, hence the
// assembly. PREFETCHT0 and ADDSD are baseline amd64: every amd64 CPU
// runs this body, with no CPU check. The purego, ihtlchecked and race
// builds leave this file out (lanes_other.go) and run the twin.

// edgeAsmDist is pullPrefetch's start: the assembly, at the distance the
// sweep chose.
const edgeAsmDist = pullPrefetchDist

// pullEdgePairsAsm is pullEdgePairs, prefetching dist edges ahead.
//
//go:noescape
func pullEdgePairsAsm(adv []uint8, srcs []graph.VID, src, rows []float64, j, end, r, dist int) (int, int)
