//go:build !purego && !ihtlchecked && !race

#include "textflag.h"

// func HasAVX2() bool
//
// CPUID leaf 1 for OSXSAVE and AVX, leaf 7 for AVX2, then XGETBV (there
// once OSXSAVE is set) for the OS saving the xmm and ymm state.
TEXT ·HasAVX2(SB), NOSPLIT, $0-1
	MOVB  $0, ret+0(FP)
	XORL  AX, AX                 // leaves 0 and 1 take no sub-leaf
	CPUID
	CMPL  AX, $7
	JLT   avx2done               // no leaf 7
	MOVL  $1, AX
	CPUID
	NOTL  CX
	TESTL $0x18000000, CX        // OSXSAVE (bit 27) and AVX (bit 28) both set
	JNZ   avx2done
	MOVL  $7, AX
	XORL  CX, CX
	CPUID
	TESTB $0x20, BL              // AVX2 (leaf 7 EBX bit 5)
	JZ    avx2done
	XORL  CX, CX
	XGETBV
	ANDL  $6, AX                 // XCR0: SSE (bit 1) and AVX (bit 2) state
	CMPL  AX, $6
	SETEQ ret+0(FP)

avx2done:
	RET
