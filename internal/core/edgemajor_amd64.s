//go:build !purego && !ihtlchecked && !race

#include "textflag.h"

// The scalar prefetching loops (edgemajor_amd64.go): the pull's pair
// loop here, the push's two bodies in push_amd64.s. Every ADDSD keeps
// its Go twin's first operand, the accumulator — the pull's row, the
// push's hub entry — loaded into a register, which is what decides the
// result when two NaNs meet. A PREFETCHT0 has no architectural effect,
// and its index is read only while the edge dist ahead is inside the
// index slice (srcs, dsts): a prefetch cannot fault, the index load can.

// func pullEdgePairsAsm(adv []uint8, srcs []graph.VID, src, rows []float64, j, end, r, dist int) (int, int)
//
// pullEdgePairs (edgemajor.go) with two PREFETCHT0s ahead of each pair.
// Each edge is the twin's: the row moves by the edge's nibble, then
// rows[r] is loaded, src[srcs[j]] added to it by ADDSD — the
// accumulator first, which decides the result when two NaNs meet — and
// stored back. A nibble of 15 is the escape: the loop stops in front of
// that edge and returns it with the row before it, as the twin does.
TEXT ·pullEdgePairsAsm(SB), NOSPLIT, $0-144
	MOVQ adv_base+0(FP), SI
	MOVQ srcs_base+24(FP), BX
	MOVQ srcs_len+32(FP), R9
	MOVQ src_base+48(FP), DI
	MOVQ rows_base+72(FP), R10
	MOVQ j+96(FP), CX
	MOVQ end+104(FP), DX
	MOVQ r+112(FP), R8
	MOVQ dist+120(FP), R11
	SUBQ R11, R9
	DECQ R9                      // R9 = len(srcs)-dist-1: prefetch while j < R9
	LEAQ (BX)(R11*4), R11        // R11 = &srcs[dist]
	DECQ DX                      // DX = end-1: a pair is left while j < DX
	CMPQ CX, DX
	JGE  pairsdone
	PCALIGN $32

pair:
	CMPQ       CX, R9
	JGE        pairadd
	MOVL       (R11)(CX*4), AX   // srcs[j+dist]
	PREFETCHT0 (DI)(AX*8)
	MOVL       4(R11)(CX*4), AX  // srcs[j+dist+1]
	PREFETCHT0 (DI)(AX*8)

pairadd:
	MOVQ    CX, AX
	SHRQ    $1, AX
	MOVBLZX (SI)(AX*1), AX       // adv[j>>1]: edge j's nibble low, edge j+1's high
	MOVL    AX, R12
	ANDL    $15, R12
	CMPL    R12, $15
	JEQ     pairsdone            // escape at edge j: return (j, r)
	ADDQ    R12, R8
	MOVL    (BX)(CX*4), R12
	MOVSD   (R10)(R8*8), X0
	ADDSD   (DI)(R12*8), X0
	MOVSD   X0, (R10)(R8*8)
	SHRL    $4, AX
	CMPL    AX, $15
	JEQ     pairodd              // escape at edge j+1: return (j+1, r)
	ADDQ    AX, R8
	MOVL    4(BX)(CX*4), R12
	MOVSD   (R10)(R8*8), X1
	ADDSD   (DI)(R12*8), X1
	MOVSD   X1, (R10)(R8*8)
	ADDQ    $2, CX
	CMPQ    CX, DX
	JLT     pair
	JMP     pairsdone

pairodd:
	INCQ CX

pairsdone:
	MOVQ CX, ret+128(FP)
	MOVQ R8, ret1+136(FP)
	RET

