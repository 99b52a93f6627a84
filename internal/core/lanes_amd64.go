//go:build !purego && !ihtlchecked && !race

package core

import "ihtl/internal/graph"

// The AVX2 bodies of the three flat lane cells (lanes_amd64.s). Each
// adds a whole lane row per VADDPD — two ymm registers at 8 lanes, one
// at 4 — lane-wise, no FMA, every lane from +0.0 in the Go twin's order
// of additions and with the twin's first operand (the accumulator in
// the pull, the hub's lanes in the push), so the bits are the twin's.
// Every loop head is PCALIGN'd to 32 bytes, so where the linker puts
// the function does not move it. The purego, ihtlchecked and race
// builds leave this file out (lanes_other.go): they run the Go twins,
// whose accesses those builds check. The two 8-lane bodies take the
// engine's lane prefetch distance (batchState.prefetch) as their last
// argument: 0 runs the plain loop, dist > 0 the same loop with a
// PREFETCHT0 of the lane row dist edges ahead — no architectural
// effect, so the bits are the plain loop's.

// hasAVX2 reports whether the CPU has AVX2 and the OS saves the ymm
// state across context switches (cpu_amd64.s).
func hasAVX2() bool

func init() { laneAsm = hasAVX2() }

// pullRowFlat8AVX2 is pullRowFlat8: two ymm accumulators, prefetching
// src's lane row of srcs[j+dist] while j+dist < len(srcs).
//
//go:noescape
func pullRowFlat8AVX2(srcs []graph.VID, lo, hi int64, src []float64, out *[8]float64, dist int)

// pullRowFlat4AVX2 is pullRowFlat4: one ymm accumulator.
//
//go:noescape
func pullRowFlat4AVX2(srcs []graph.VID, lo, hi int64, src []float64, out *[4]float64)

// pushTaskFlat8AVX2 is pushTaskFlat8 over sources [lo, hi) of the block
// whose CSR is idx/dsts: a source whose 64 bytes of lanes are all zero
// is skipped (spmv.SkipZeroLanes), any other is added to each hub row,
// prefetching buf's lane row of dsts[i+dist] while i+dist < len(dsts).
//
//go:noescape
func pushTaskFlat8AVX2(idx []int64, dsts []graph.VID, lo, hi int, src, buf []float64, dist int)
