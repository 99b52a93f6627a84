//go:build !purego && !ihtlchecked && !race

package core

import "ihtl/internal/graph"

// The scalar prefetching loops in assembly: the edge-major pull's pair
// loop here (edgemajor_amd64.s), the flipped push's two bodies in
// push_amd64.go. Each is its Go twin (pullEdgePairs; pushEdgePairs,
// pushTaskFlat) instruction for instruction — the same ADDSDs, in the
// same order, each with the accumulator (the pull's row, the push's hub
// entry) as its first operand — plus PREFETCHT0s of the value the edge
// dist ahead will touch, while that edge is still inside the index slice
// (srcs, dsts). The pull's src reads are random and, past L2, misses.
// A prefetch retires at once, so the misses of the next dist edges
// overlap where the Go loop can keep only what its reorder window
// holds. Go has no prefetch outside the runtime, hence the assembly.
// PREFETCHT0 and ADDSD are baseline amd64: every amd64 CPU runs these
// bodies, with no CPU check. The purego, ihtlchecked and race builds
// leave these files out (lanes_other.go) and run the twins.

// scalarAsmDist is where pullPrefetch and pushPrefetch start: the
// assembly, at the one prefetch distance.
const scalarAsmDist = prefetchDist

// pullEdgePairsAsm is pullEdgePairs, prefetching dist edges ahead.
//
//go:noescape
func pullEdgePairsAsm(adv []uint8, srcs []graph.VID, src, rows []float64, j, end, r, dist int) (int, int)
