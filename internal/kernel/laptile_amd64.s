//go:build !race

#include "textflag.h"

// AVX2 forms of LapTile's 8- and 4-wide column tiles (lap.go). A row's
// columns and its x_v live in YMM registers (two each for tile 8, one for
// tile 4) and every column sees the IEEE operations of lapRow, the k = 1 row
// loop, in lapRow's order: w·(x_v − x_u), multiply then add — never a fused
// multiply-add — accumulator from +0, ascending entries, then the optional
// r_v − acc, then the optional x_v + (ω·…)·d⁻¹_v. Both functions share one
// signature and one register plan:
//
//	SI adj   DI w   R8 x (column j0)   R9 row stride in bytes   R10 n
//	R12 off  BX row v   R13 hi   R11 v·stride   CX entry cursor   DX row end
//	Y0, Y1 accumulators   Y2 broadcast scalar   Y4, Y5 x_v   Y6, Y7 operands
//
// dst, r and x point at column j0 of row 0; r and dInv may be nil and select
// the mode as in the Go tiles. Every row end is held against nadj and every
// gathered id against n; the first row that fails either is returned with
// nothing of it stored, −1 otherwise.

// LOAD_PLAN fills the registers of the plan above from the arguments, with
// the cursor at the first entry of row lo.
#define LOAD_PLAN \
	MOVQ  x+16(FP), R8     \
	MOVQ  adj+40(FP), SI   \
	MOVQ  w+48(FP), DI     \
	MOVQ  off+56(FP), R12  \
	MOVQ  lo+64(FP), BX    \
	MOVQ  hi+72(FP), R13   \
	MOVQ  k+80(FP), R9     \
	SHLQ  $3, R9           \
	MOVQ  n+88(FP), R10    \
	MOVQ  R9, R11          \
	IMULQ BX, R11          \
	MOVQ  (R12)(BX*8), CX

// func lapTile8AVX2(dst, r, x, dInv *float64, omega float64, adj *int32, w *float64, off *int, lo, hi, k, n, nadj int) (bad int)
TEXT ·lapTile8AVX2(SB), NOSPLIT, $0-112
	LOAD_PLAN

row8:
	CMPQ    BX, R13
	JGE     ok8
	MOVQ    8(R12)(BX*8), DX
	CMPQ    DX, nadj+96(FP)
	JHI     done8
	VMOVUPD (R8)(R11*1), Y4
	VMOVUPD 32(R8)(R11*1), Y5
	VXORPD  X0, X0, X0
	VXORPD  X1, X1, X1
	CMPQ    CX, DX
	JAE     fin8

entry8:
	MOVL         (SI)(CX*4), AX
	CMPQ         AX, R10
	JAE          done8
	VBROADCASTSD (DI)(CX*8), Y2
	IMULQ        R9, AX
	VSUBPD       (R8)(AX*1), Y4, Y6
	VSUBPD       32(R8)(AX*1), Y5, Y7
	VMULPD       Y6, Y2, Y6
	VMULPD       Y7, Y2, Y7
	VADDPD       Y6, Y0, Y0
	VADDPD       Y7, Y1, Y1
	INCQ         CX
	CMPQ         CX, DX
	JB           entry8

fin8:
	MOVQ         r+8(FP), AX
	TESTQ        AX, AX
	JZ           store8
	VMOVUPD      (AX)(R11*1), Y6
	VMOVUPD      32(AX)(R11*1), Y7
	VSUBPD       Y0, Y6, Y0
	VSUBPD       Y1, Y7, Y1
	MOVQ         dInv+24(FP), AX
	TESTQ        AX, AX
	JZ           store8
	VBROADCASTSD omega+32(FP), Y2
	VMULPD       Y0, Y2, Y0
	VMULPD       Y1, Y2, Y1
	VBROADCASTSD (AX)(BX*8), Y2
	VMULPD       Y2, Y0, Y0
	VMULPD       Y2, Y1, Y1
	VADDPD       Y0, Y4, Y0
	VADDPD       Y1, Y5, Y1

store8:
	MOVQ    dst+0(FP), AX
	VMOVUPD Y0, (AX)(R11*1)
	VMOVUPD Y1, 32(AX)(R11*1)
	INCQ    BX
	ADDQ    R9, R11
	JMP     row8

ok8:
	MOVQ $-1, BX

done8:
	VZEROUPPER
	MOVQ BX, bad+104(FP)
	RET

// func lapTile4AVX2(dst, r, x, dInv *float64, omega float64, adj *int32, w *float64, off *int, lo, hi, k, n, nadj int) (bad int)
TEXT ·lapTile4AVX2(SB), NOSPLIT, $0-112
	LOAD_PLAN

row4:
	CMPQ    BX, R13
	JGE     ok4
	MOVQ    8(R12)(BX*8), DX
	CMPQ    DX, nadj+96(FP)
	JHI     done4
	VMOVUPD (R8)(R11*1), Y4
	VXORPD  X0, X0, X0
	CMPQ    CX, DX
	JAE     fin4

entry4:
	MOVL         (SI)(CX*4), AX
	CMPQ         AX, R10
	JAE          done4
	VBROADCASTSD (DI)(CX*8), Y2
	IMULQ        R9, AX
	VSUBPD       (R8)(AX*1), Y4, Y6
	VMULPD       Y6, Y2, Y6
	VADDPD       Y6, Y0, Y0
	INCQ         CX
	CMPQ         CX, DX
	JB           entry4

fin4:
	MOVQ         r+8(FP), AX
	TESTQ        AX, AX
	JZ           store4
	VMOVUPD      (AX)(R11*1), Y6
	VSUBPD       Y0, Y6, Y0
	MOVQ         dInv+24(FP), AX
	TESTQ        AX, AX
	JZ           store4
	VBROADCASTSD omega+32(FP), Y2
	VMULPD       Y0, Y2, Y0
	VBROADCASTSD (AX)(BX*8), Y2
	VMULPD       Y2, Y0, Y0
	VADDPD       Y0, Y4, Y0

store4:
	MOVQ    dst+0(FP), AX
	VMOVUPD Y0, (AX)(R11*1)
	INCQ    BX
	ADDQ    R9, R11
	JMP     row4

ok4:
	MOVQ $-1, BX

done4:
	VZEROUPPER
	MOVQ BX, bad+104(FP)
	RET

// func cpuHasAVX2() bool
//
// AVX2 is usable when CPUID reports it (leaf 7 EBX bit 5) and the OS saves the
// YMM state: leaf 1 ECX bits 27 (OSXSAVE) and 28 (AVX), XCR0 bits 1 and 2.
TEXT ·cpuHasAVX2(SB), NOSPLIT, $0-1
	MOVB  $0, ret+0(FP)
	XORL  AX, AX
	CPUID
	CMPL  AX, $7
	JB    no
	MOVL  $1, AX
	CPUID
	ANDL  $0x18000000, CX
	CMPL  CX, $0x18000000
	JNE   no
	XORL  CX, CX
	XGETBV
	ANDL  $6, AX
	CMPL  AX, $6
	JNE   no
	MOVL  $7, AX
	XORL  CX, CX
	CPUID
	BTL   $5, BX
	JCC   no
	MOVB  $1, ret+0(FP)

no:
	RET
