//go:build !purego && !ihtlchecked && !race

#include "textflag.h"

// The AVX2 bodies of the flat lane cells (lanes_amd64.go). A lane row
// is 64 bytes at 8 lanes (two ymm) and 32 at 4 (one ymm); every VADDPD
// keeps the Go twin's first operand — the accumulator in the pull, the
// hub's lanes in the push — which is what decides the result when two
// NaNs meet. The two 8-lane bodies take a prefetch distance: at 0 they
// branch once, at entry, into the plain loop; above 0 into a copy of it
// that first runs a PREFETCHT0 of the lane row dist edges ahead, while
// that edge is still inside srcs / dsts.

// func pullRowFlat8AVX2(srcs []graph.VID, lo, hi int64, src []float64, out *[8]float64, dist int)
TEXT ·pullRowFlat8AVX2(SB), NOSPLIT, $0-80
	MOVQ   srcs_base+0(FP), SI
	MOVQ   lo+24(FP), CX
	MOVQ   hi+32(FP), DX
	MOVQ   src_base+40(FP), DI
	MOVQ   out+64(FP), R8
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	CMPQ   CX, DX
	JGE    pull8done
	MOVQ   dist+72(FP), R10
	TESTQ  R10, R10
	JNZ    pull8fetch
	PCALIGN $32

pull8edge:
	MOVL   (SI)(CX*4), AX
	SHLQ   $6, AX
	VADDPD (DI)(AX*1), Y0, Y0
	VADDPD 32(DI)(AX*1), Y1, Y1
	INCQ   CX
	CMPQ   CX, DX
	JLT    pull8edge

pull8done:
	VMOVUPD Y0, (R8)
	VMOVUPD Y1, 32(R8)
	VZEROUPPER
	RET

pull8fetch:
	MOVQ srcs_len+8(FP), R9
	SUBQ R10, R9                 // R9 = len(srcs)-dist: prefetch while j < R9
	LEAQ (SI)(R10*4), R10        // R10 = &srcs[dist]
	PCALIGN $32

pull8fetchedge:
	CMPQ       CX, R9
	JGE        pull8fetchadd
	MOVL       (R10)(CX*4), AX   // srcs[j+dist]
	SHLQ       $6, AX
	PREFETCHT0 (DI)(AX*1)

pull8fetchadd:
	MOVL   (SI)(CX*4), AX
	SHLQ   $6, AX
	VADDPD (DI)(AX*1), Y0, Y0
	VADDPD 32(DI)(AX*1), Y1, Y1
	INCQ   CX
	CMPQ   CX, DX
	JLT    pull8fetchedge
	JMP    pull8done

// func pullRowFlat4AVX2(srcs []graph.VID, lo, hi int64, src []float64, out *[4]float64)
TEXT ·pullRowFlat4AVX2(SB), NOSPLIT, $0-72
	MOVQ   srcs_base+0(FP), SI
	MOVQ   lo+24(FP), CX
	MOVQ   hi+32(FP), DX
	MOVQ   src_base+40(FP), DI
	MOVQ   out+64(FP), R8
	VXORPD Y0, Y0, Y0
	CMPQ   CX, DX
	JGE    pull4done
	PCALIGN $32

pull4edge:
	MOVL   (SI)(CX*4), AX
	SHLQ   $5, AX
	VADDPD (DI)(AX*1), Y0, Y0
	INCQ   CX
	CMPQ   CX, DX
	JLT    pull4edge

pull4done:
	VMOVUPD Y0, (R8)
	VZEROUPPER
	RET

// func pushTaskFlat8AVX2(idx []int64, dsts []graph.VID, lo, hi int, src, buf []float64, dist int)
TEXT ·pushTaskFlat8AVX2(SB), NOSPLIT, $0-120
	MOVQ idx_base+0(FP), SI
	MOVQ dsts_base+24(FP), BX
	MOVQ lo+48(FP), CX
	MOVQ hi+56(FP), DX
	MOVQ src_base+64(FP), DI
	MOVQ buf_base+88(FP), R8
	CMPQ CX, DX
	JGE  pushdone
	MOVQ CX, R9
	SHLQ $6, R9                  // R9 = the source's lane row, s*64
	MOVQ  dist+112(FP), R12
	TESTQ R12, R12
	JNZ   pushfetch
	PCALIGN $32

pushsource:
	VMOVUPD (DI)(R9*1), Y0
	VMOVUPD 32(DI)(R9*1), Y1
	VPOR    Y0, Y1, Y2
	VPTEST  Y2, Y2
	JZ      pushnext             // all 64 bytes zero: every lane +0.0
	MOVQ    (SI)(CX*8), R10      // idx[s]
	MOVQ    8(SI)(CX*8), R11     // idx[s+1]
	CMPQ    R10, R11
	JGE     pushnext
	PCALIGN $32

pushedge:
	MOVL    (BX)(R10*4), AX
	SHLQ    $6, AX
	VMOVUPD (R8)(AX*1), Y2
	VMOVUPD 32(R8)(AX*1), Y3
	VADDPD  Y0, Y2, Y2
	VADDPD  Y1, Y3, Y3
	VMOVUPD Y2, (R8)(AX*1)
	VMOVUPD Y3, 32(R8)(AX*1)
	INCQ    R10
	CMPQ    R10, R11
	JLT     pushedge

pushnext:
	ADDQ $64, R9
	INCQ CX
	CMPQ CX, DX
	JLT  pushsource

pushdone:
	VZEROUPPER
	RET

pushfetch:
	MOVQ dsts_len+32(FP), R13
	SUBQ R12, R13                // R13 = len(dsts)-dist: prefetch while i < R13
	LEAQ (BX)(R12*4), R12        // R12 = &dsts[dist]

pushfetchsource:
	VMOVUPD (DI)(R9*1), Y0
	VMOVUPD 32(DI)(R9*1), Y1
	VPOR    Y0, Y1, Y2
	VPTEST  Y2, Y2
	JZ      pushfetchnext
	MOVQ    (SI)(CX*8), R10
	MOVQ    8(SI)(CX*8), R11
	CMPQ    R10, R11
	JGE     pushfetchnext
	PCALIGN $32

pushfetchedge:
	CMPQ       R10, R13
	JGE        pushfetchadd
	MOVL       (R12)(R10*4), AX  // dsts[i+dist]
	SHLQ       $6, AX
	PREFETCHT0 (R8)(AX*1)

pushfetchadd:
	MOVL    (BX)(R10*4), AX
	SHLQ    $6, AX
	VMOVUPD (R8)(AX*1), Y2
	VMOVUPD 32(R8)(AX*1), Y3
	VADDPD  Y0, Y2, Y2
	VADDPD  Y1, Y3, Y3
	VMOVUPD Y2, (R8)(AX*1)
	VMOVUPD Y3, 32(R8)(AX*1)
	INCQ    R10
	CMPQ    R10, R11
	JLT     pushfetchedge

pushfetchnext:
	ADDQ $64, R9
	INCQ CX
	CMPQ CX, DX
	JLT  pushfetchsource
	JMP  pushdone
