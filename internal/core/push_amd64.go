//go:build !purego && !ihtlchecked && !race

package core

import "ihtl/internal/graph"

// The assembly bodies of the scalar flipped push (push_amd64.s): the
// edge-major pair loop and the CSR task, each its Go twin (pushEdgePairs,
// pushTaskFlat) plus a PREFETCHT0 of the hub entry the edge dist ahead
// adds into. The hub buffer is sized to L2, but it shares L2 with the
// topology and src streams, so its entries miss too (DESIGN.md §17,
// "Prefetching the push"). edgemajor_amd64.go states the rules every
// scalar prefetching body keeps. They live apart from the pull's body
// so that the lane cells of lanes_amd64.s link where they did before.

// pushEdgePairsAsm is pushEdgePairs, prefetching buf's entry of the edges
// dist and dist+1 ahead of each pair.
//
//go:noescape
func pushEdgePairsAsm(adv []uint8, dsts []graph.VID, src, buf []float64, i, end, s, dist int) (int, int)

// pushTaskFlatAsm is pushTaskFlat over sources [lo, hi) of the block
// whose CSR is idx/dsts, prefetching buf's entry of dsts[i+dist] while
// i+dist < len(dsts).
//
//go:noescape
func pushTaskFlatAsm(idx []int64, dsts []graph.VID, lo, hi int, src, buf []float64, dist int)
