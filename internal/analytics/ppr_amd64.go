//go:build !purego && !ihtlchecked && !race

package analytics

import "ihtl/internal/spmv"

// The AVX2 bodies of PPR's row op (ppr_amd64.s), taken by
// pprSweep.plainRows at 8 and at 4 lanes. A row's lanes are one ymm
// register at 4 and two at 8: VMULPD by the damping, VSUBPD and a VANDPD
// of the sign bit for the magnitude of the change, a VADDPD into per-lane
// delta accumulators held in registers across the rows, a store of the
// ranks, a VMULPD by the row's broadcast inverse degree and a store of
// the contributions. The body vectorises across lanes, never across
// rows: every lane sees the Go twin's operations (pprRows) in the twin's
// order and with its first operands, and each lane's delta is summed in
// row order, so the bits are the twin's. No FMA. The purego, ihtlchecked
// and race builds leave this file out (ppr_other.go): they run the twin,
// whose accesses those builds check.

func init() { pprRowAsm = spmv.HasAVX2() }

// pprRows8AVX2 is pprRows at k = 8; delta holds at least 8 lanes.
//
//go:noescape
func pprRows8AVX2(lo, hi int, d float64, sums, ranks, contrib, invDeg, delta []float64)

// pprRows4AVX2 is pprRows at k = 4; delta holds at least 4 lanes.
//
//go:noescape
func pprRows4AVX2(lo, hi int, d float64, sums, ranks, contrib, invDeg, delta []float64)
