//go:build !purego && !ihtlchecked && !race

#include "textflag.h"

// The AVX2 bodies of PPR's row op (ppr_amd64.go). Y15 holds the damping
// in every lane, Y14 the mask that clears a sign bit (math.Abs), Y0 and
// Y1 the per-lane deltas. Each operation keeps the first operand of the
// compiled twin's — sums·d, nv − ranks, delta + |nv − ranks|, nv·invDeg
// — which is what decides the result when two NaNs meet; the twin
// differential (ppr_asm_test.go) holds the two to the same bits. Every
// loop head is PCALIGN'd to 32 bytes, so where the linker puts the
// function does not move it.

// func pprRows8AVX2(lo, hi int, d float64, sums, ranks, contrib, invDeg, delta []float64)
TEXT ·pprRows8AVX2(SB), NOSPLIT, $0-144
	MOVQ lo+0(FP), CX
	MOVQ hi+8(FP), DX
	CMPQ CX, DX
	JGE  rows8none
	MOVQ sums_base+24(FP), SI
	MOVQ ranks_base+48(FP), DI
	MOVQ contrib_base+72(FP), R8
	MOVQ invDeg_base+96(FP), R9
	MOVQ delta_base+120(FP), R10
	VBROADCASTSD d+16(FP), Y15
	VPCMPEQQ     Y14, Y14, Y14
	VPSRLQ       $1, Y14, Y14    // 0x7fff_ffff_ffff_ffff in every lane
	VMOVUPD      (R10), Y0
	VMOVUPD      32(R10), Y1
	MOVQ         CX, AX
	SHLQ         $6, AX          // AX = lo·64, the byte offset of row lo
	PCALIGN      $32

rows8row:
	VMOVUPD      (SI)(AX*1), Y2
	VMOVUPD      32(SI)(AX*1), Y3
	VMULPD       Y15, Y2, Y2             // nv = sums·d
	VMULPD       Y15, Y3, Y3
	VSUBPD       (DI)(AX*1), Y2, Y4      // nv − ranks
	VSUBPD       32(DI)(AX*1), Y3, Y5
	VANDPD       Y14, Y4, Y4
	VANDPD       Y14, Y5, Y5
	VADDPD       Y4, Y0, Y0              // delta += |nv − ranks|
	VADDPD       Y5, Y1, Y1
	VMOVUPD      Y2, (DI)(AX*1)
	VMOVUPD      Y3, 32(DI)(AX*1)
	VBROADCASTSD (R9)(CX*8), Y6
	VMULPD       Y6, Y2, Y2              // nv·invDeg[v]
	VMULPD       Y6, Y3, Y3
	VMOVUPD      Y2, (R8)(AX*1)
	VMOVUPD      Y3, 32(R8)(AX*1)
	ADDQ         $64, AX
	INCQ         CX
	CMPQ         CX, DX
	JLT          rows8row

	VMOVUPD Y0, (R10)
	VMOVUPD Y1, 32(R10)
	VZEROUPPER

rows8none:
	RET

// func pprRows4AVX2(lo, hi int, d float64, sums, ranks, contrib, invDeg, delta []float64)
TEXT ·pprRows4AVX2(SB), NOSPLIT, $0-144
	MOVQ lo+0(FP), CX
	MOVQ hi+8(FP), DX
	CMPQ CX, DX
	JGE  rows4none
	MOVQ sums_base+24(FP), SI
	MOVQ ranks_base+48(FP), DI
	MOVQ contrib_base+72(FP), R8
	MOVQ invDeg_base+96(FP), R9
	MOVQ delta_base+120(FP), R10
	VBROADCASTSD d+16(FP), Y15
	VPCMPEQQ     Y14, Y14, Y14
	VPSRLQ       $1, Y14, Y14
	VMOVUPD      (R10), Y0
	MOVQ         CX, AX
	SHLQ         $5, AX          // AX = lo·32
	PCALIGN      $32

rows4row:
	VMOVUPD      (SI)(AX*1), Y2
	VMULPD       Y15, Y2, Y2
	VSUBPD       (DI)(AX*1), Y2, Y4
	VANDPD       Y14, Y4, Y4
	VADDPD       Y4, Y0, Y0
	VMOVUPD      Y2, (DI)(AX*1)
	VBROADCASTSD (R9)(CX*8), Y6
	VMULPD       Y6, Y2, Y2
	VMOVUPD      Y2, (R8)(AX*1)
	ADDQ         $32, AX
	INCQ         CX
	CMPQ         CX, DX
	JLT          rows4row

	VMOVUPD Y0, (R10)
	VZEROUPPER

rows4none:
	RET
