//go:build !race

#include "textflag.h"

// AVX2 body of the k = 1 row kernels for groups of four consecutive rows of
// one degree d (RowGroups, lap.go). Lane q of a YMM register is row v+q, whose
// entry j sits d·q + j entries past row v's first: the four rows are read
// where the CSR holds them. Per entry-column the four ids are loaded and held
// against n, the four x[u] and the four weights are assembled into one
// register each, and every lane sees lapRow's IEEE operations in lapRow's
// order — w·(x_v − x_u), multiply then add, never a fused multiply-add,
// accumulator from +0, ascending j — then, per mode as the Go loops finish:
// acc, or r_v − acc, or x_v + (ω·(r_v − acc))·d⁻¹_v.
//
//	SI adj cursor (row v, entry j)   DI w cursor   R8 x   R10 n
//	R12 d   R14 4d: one row of adj in bytes, half a row of w   R15 12d
//	BX row v   R13 hi   CX entries left   AX DX R9 R11 the four ids
//	Y0 accumulators   Y1 x_v   Y2–Y5 operands
//
// adj and w point at row lo's first entry; dst, r, x and dInv at row 0; r and
// dInv may be nil and select the mode. The first row of the first group that
// holds an id outside [0, n) is returned with nothing of that group stored,
// −1 otherwise.

// func lapRows4AVX2(dst, r, x, dInv *float64, omega float64, adj *int32, w *float64, lo, hi, d, n int) (bad int)
TEXT ·lapRows4AVX2(SB), NOSPLIT, $0-96
	MOVQ x+16(FP), R8
	MOVQ adj+40(FP), SI
	MOVQ w+48(FP), DI
	MOVQ lo+56(FP), BX
	MOVQ hi+64(FP), R13
	MOVQ d+72(FP), R12
	MOVQ n+80(FP), R10
	MOVQ R12, R14
	SHLQ $2, R14
	LEAQ (R14)(R14*2), R15

group:
	CMPQ    BX, R13
	JGE     ok
	VMOVUPD (R8)(BX*8), Y1
	VXORPD  Y0, Y0, Y0
	MOVQ    R12, CX

entry:
	MOVL        (SI), AX
	MOVL        (SI)(R14*1), DX
	MOVL        (SI)(R14*2), R9
	MOVL        (SI)(R15*1), R11
	CMPQ        AX, R10
	JAE         done
	CMPQ        DX, R10
	JAE         done
	CMPQ        R9, R10
	JAE         done
	CMPQ        R11, R10
	JAE         done
	VMOVSD      (R8)(AX*8), X2
	VMOVHPD     (R8)(DX*8), X2, X2
	VMOVSD      (R8)(R9*8), X3
	VMOVHPD     (R8)(R11*8), X3, X3
	VINSERTF128 $1, X3, Y2, Y2
	VMOVSD      (DI), X4
	VMOVHPD     (DI)(R14*2), X4, X4
	VMOVSD      (DI)(R14*4), X5
	VMOVHPD     (DI)(R15*2), X5, X5
	VINSERTF128 $1, X5, Y4, Y4
	VSUBPD      Y2, Y1, Y2
	VMULPD      Y2, Y4, Y2
	VADDPD      Y2, Y0, Y0
	ADDQ        $4, SI
	ADDQ        $8, DI
	DECQ        CX
	JNZ         entry

	// The cursors stand at row v+1; the next group starts three rows on.
	ADDQ    R15, SI
	LEAQ    (DI)(R15*2), DI
	MOVQ    r+8(FP), AX
	TESTQ   AX, AX
	JZ      store
	VMOVUPD (AX)(BX*8), Y2
	VSUBPD  Y0, Y2, Y0
	MOVQ    dInv+24(FP), AX
	TESTQ   AX, AX
	JZ      store
	VBROADCASTSD omega+32(FP), Y2
	VMULPD  Y0, Y2, Y0
	VMULPD  (AX)(BX*8), Y0, Y0
	VADDPD  Y0, Y1, Y0

store:
	MOVQ    dst+0(FP), AX
	VMOVUPD Y0, (AX)(BX*8)
	ADDQ    $4, BX
	JMP     group

ok:
	MOVQ $-1, BX

done:
	VZEROUPPER
	MOVQ BX, bad+88(FP)
	RET
