//go:build !purego && !ihtlchecked && !race

#include "textflag.h"

// The scalar push's prefetching bodies (push_amd64.go), under the rules
// edgemajor_amd64.s states for every scalar prefetching loop. The CSR
// body's edge loop is PCALIGN'd to 64: its 42 bytes then sit in one
// cache line, and the function's size keeps every symbol linked after
// it at the entry address mod 64 it had before.

// func pushEdgePairsAsm(adv []uint8, dsts []graph.VID, src, buf []float64, i, end, s, dist int) (int, int)
//
// pushEdgePairs (push_flat.go) with two PREFETCHT0s ahead of each pair:
// buf's entries of dsts[i+dist] and dsts[i+dist+1]. Each edge is the
// twin's: the source moves by the edge's nibble, then buf[dsts[i]] is
// loaded, src[s] added to it and stored back. A nibble of 15 is the
// escape: the loop stops in front of that edge and returns it with the
// source before it, as the twin does.
TEXT ·pushEdgePairsAsm(SB), NOSPLIT, $0-144
	MOVQ adv_base+0(FP), SI
	MOVQ dsts_base+24(FP), BX
	MOVQ dsts_len+32(FP), R9
	MOVQ src_base+48(FP), DI
	MOVQ buf_base+72(FP), R10
	MOVQ i+96(FP), CX
	MOVQ end+104(FP), DX
	MOVQ s+112(FP), R8
	MOVQ dist+120(FP), R11
	SUBQ R11, R9
	DECQ R9                      // R9 = len(dsts)-dist-1: prefetch while i < R9
	LEAQ (BX)(R11*4), R11        // R11 = &dsts[dist]
	DECQ DX                      // DX = end-1: a pair is left while i < DX
	CMPQ CX, DX
	JGE  pushpairsdone
	PCALIGN $32

pushpair:
	CMPQ       CX, R9
	JGE        pushpairadd
	MOVL       (R11)(CX*4), AX   // dsts[i+dist]
	PREFETCHT0 (R10)(AX*8)
	MOVL       4(R11)(CX*4), AX  // dsts[i+dist+1]
	PREFETCHT0 (R10)(AX*8)

pushpairadd:
	MOVQ    CX, AX
	SHRQ    $1, AX
	MOVBLZX (SI)(AX*1), AX       // adv[i>>1]: edge i's nibble low, edge i+1's high
	MOVL    AX, R12
	ANDL    $15, R12
	CMPL    R12, $15
	JEQ     pushpairsdone        // escape at edge i: return (i, s)
	ADDQ    R12, R8
	MOVL    (BX)(CX*4), R12
	MOVSD   (R10)(R12*8), X0
	ADDSD   (DI)(R8*8), X0
	MOVSD   X0, (R10)(R12*8)
	SHRL    $4, AX
	CMPL    AX, $15
	JEQ     pushpairodd          // escape at edge i+1: return (i+1, s)
	ADDQ    AX, R8
	MOVL    4(BX)(CX*4), R12
	MOVSD   (R10)(R12*8), X1
	ADDSD   (DI)(R8*8), X1
	MOVSD   X1, (R10)(R12*8)
	ADDQ    $2, CX
	CMPQ    CX, DX
	JLT     pushpair
	JMP     pushpairsdone

pushpairodd:
	INCQ CX

pushpairsdone:
	MOVQ CX, ret+128(FP)
	MOVQ R8, ret1+136(FP)
	RET

// func pushTaskFlatAsm(idx []int64, dsts []graph.VID, lo, hi int, src, buf []float64, dist int)
//
// pushTaskFlat (push_flat.go) with a PREFETCHT0 ahead of each edge:
// buf's entry of dsts[i+dist], whichever row that edge is in. A source
// whose bits are all zero (+0.0, spmv.SkipZero) is skipped; any other,
// -0.0 and NaN included, is added to the hub entry of each of its edges.
TEXT ·pushTaskFlatAsm(SB), NOSPLIT, $0-120
	MOVQ idx_base+0(FP), SI
	MOVQ dsts_base+24(FP), BX
	MOVQ dsts_len+32(FP), R13
	MOVQ lo+48(FP), CX
	MOVQ hi+56(FP), DX
	MOVQ src_base+64(FP), DI
	MOVQ buf_base+88(FP), R8
	MOVQ dist+112(FP), R12
	SUBQ R12, R13                // R13 = len(dsts)-dist: prefetch while i < R13
	LEAQ (BX)(R12*4), R12        // R12 = &dsts[dist]
	CMPQ CX, DX
	JGE  flatdone

flatsource:
	MOVQ  (DI)(CX*8), AX         // src[s]'s bits
	TESTQ AX, AX
	JZ    flatnext               // +0.0: skipped
	MOVQ  AX, X0
	MOVQ  (SI)(CX*8), R10        // idx[s]
	MOVQ  8(SI)(CX*8), R11       // idx[s+1]
	CMPQ  R10, R11
	JGE   flatnext
	PCALIGN $64

flatedge:
	CMPQ       R10, R13
	JGE        flatadd
	MOVL       (R12)(R10*4), AX  // dsts[i+dist]
	PREFETCHT0 (R8)(AX*8)

flatadd:
	MOVL  (BX)(R10*4), AX
	MOVSD (R8)(AX*8), X1
	ADDSD X0, X1
	MOVSD X1, (R8)(AX*8)
	INCQ  R10
	CMPQ  R10, R11
	JLT   flatedge

flatnext:
	INCQ CX
	CMPQ CX, DX
	JLT  flatsource

flatdone:
	RET
