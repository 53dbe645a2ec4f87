//go:build !race

#include "textflag.h"

// AVX2 forms of the 8- and 4-wide column tiles of the cycle's sweeps
// (cycle.go). A row's (or a cluster's) columns live in one YMM register per
// four — two for tile 8, one for tile 4 — and every column sees the IEEE
// operations of the Go tile in the Go tile's order: multiply then add, never a
// fused multiply-add; a cluster sums its members in ascending order from +0
// and is stored once. The Go functions that call them check the operands
// first; what they cannot check without a pass of their own — every gathered
// index — is held here against its bound, and the first row or cluster whose
// index fails is returned with nothing of it stored, −1 otherwise. Register
// plan:
//
//	SI the vertex block   DI the cluster block   R8 ids (order or assign)
//	R9 row stride in bytes   R10 bound on a gathered id   BX row or cluster
//	Y0, Y1 a row's values   Y8 broadcast scalar   Y9 ω (jacobiFromZero)
//
// Each kernel is one macro over EACH8 or EACH4, which apply a per-register
// step — (byte offset in the row, register) — to the registers of one row.

#define EACH8(step) step(0, Y0); step(32, Y1)
#define EACH4(step) step(0, Y0)

#define ZERO(off, acc) VXORPD acc, acc, acc
#define ADD_MEMBER(off, acc) VADDPD off(SI)(AX*1), acc, acc
#define STORE_CLUSTER(off, acc) VMOVUPD acc, off(DI)

// RESTRICT is restrictTile8/4: clusters [BX, R13), cursor CX at the first
// entry of cluster BX, R11 = len(order), R12 start; DI at column j0 of rq's
// row BX, SI at column j0 of r's row 0. A cluster whose end lies beyond
// len(order) or whose member id is not below n (R10) leaves BX at it and
// jumps to done.
#define RESTRICT(EACH, cluster, member, store, ok, done) \
	CMPQ    BX, R13             \
	JGE     ok                  \
cluster:                        \
	MOVLQSX 4(R12)(BX*4), DX    \
	CMPQ    DX, R11             \
	JGT     done                \
	EACH(ZERO)                  \
	CMPQ    CX, DX              \
	JGE     store               \
member:                         \
	MOVL    (R8)(CX*4), AX      \
	CMPQ    AX, R10             \
	JAE     done                \
	IMULQ   R9, AX              \
	EACH(ADD_MEMBER)            \
	INCQ    CX                  \
	CMPQ    CX, DX              \
	JLT     member              \
store:                          \
	EACH(STORE_CLUSTER)         \
	ADDQ    R9, DI              \
	INCQ    BX                  \
	CMPQ    BX, R13             \
	JLT     cluster             \
ok:                             \
	MOVQ    $-1, BX

// x += α·q, q the row of xq at the vertex's cluster (AX bytes into DI)
#define PROLONG_ROW(off, v) \
	VMULPD  off(DI)(AX*1), Y8, v \
	VADDPD  off(SI), v, v        \
	VMOVUPD v, off(SI)

// PROLONG is prolongAddTile8/4: rows [0, CX) from SI, their clusters from
// R8; a cluster id not below count (R10) leaves its row in BX and jumps to
// done.
#define PROLONG(EACH, row, ok, done) \
	XORQ  BX, BX          \
	TESTQ CX, CX          \
	JLE   ok              \
row:                      \
	MOVL  (R8)(BX*4), AX  \
	CMPQ  AX, R10         \
	JAE   done            \
	IMULQ R9, AX          \
	EACH(PROLONG_ROW)     \
	ADDQ  R9, SI          \
	INCQ  BX              \
	CMPQ  BX, CX          \
	JLT   row             \
ok:                       \
	MOVQ  $-1, BX

// x = (ω·r)·d⁻¹, ω in Y9 and d⁻¹ in Y8
#define JACOBI_ROW(off, v) \
	VMULPD  off(DI), Y9, v \
	VMULPD  Y8, v, v       \
	VMOVUPD v, off(SI)

// JACOBI is jacobiFromZeroTile8/4: rows [0, CX) of x from SI and r from DI,
// d⁻¹ from R8, ω in Y9.
#define JACOBI(EACH, row, done) \
	TESTQ        CX, CX       \
	JLE          done         \
row:                          \
	VBROADCASTSD (R8), Y8     \
	EACH(JACOBI_ROW)          \
	ADDQ         $8, R8       \
	ADDQ         R9, SI       \
	ADDQ         R9, DI       \
	DECQ         CX           \
	JNZ          row          \
done:                         \
	VZEROUPPER

// func restrict8AVX2(r, rq *float64, order, start *int32, lo, hi, stride, n, norder int) (bad int)
TEXT ·restrict8AVX2(SB), NOSPLIT, $0-80
	MOVQ    r+0(FP), SI
	MOVQ    rq+8(FP), DI
	MOVQ    order+16(FP), R8
	MOVQ    start+24(FP), R12
	MOVQ    lo+32(FP), BX
	MOVQ    hi+40(FP), R13
	MOVQ    stride+48(FP), R9
	MOVQ    n+56(FP), R10
	MOVQ    norder+64(FP), R11
	SHLQ    $3, R9
	MOVQ    R9, AX
	IMULQ   BX, AX
	ADDQ    AX, DI
	MOVLQSX (R12)(BX*4), CX
	RESTRICT(EACH8, cluster8, member8, store8, ok8, done8)

done8:
	VZEROUPPER
	MOVQ BX, bad+72(FP)
	RET

// func restrict4AVX2(r, rq *float64, order, start *int32, lo, hi, stride, n, norder int) (bad int)
TEXT ·restrict4AVX2(SB), NOSPLIT, $0-80
	MOVQ    r+0(FP), SI
	MOVQ    rq+8(FP), DI
	MOVQ    order+16(FP), R8
	MOVQ    start+24(FP), R12
	MOVQ    lo+32(FP), BX
	MOVQ    hi+40(FP), R13
	MOVQ    stride+48(FP), R9
	MOVQ    n+56(FP), R10
	MOVQ    norder+64(FP), R11
	SHLQ    $3, R9
	MOVQ    R9, AX
	IMULQ   BX, AX
	ADDQ    AX, DI
	MOVLQSX (R12)(BX*4), CX
	RESTRICT(EACH4, cluster4, member4, store4, ok4, done4)

done4:
	VZEROUPPER
	MOVQ BX, bad+72(FP)
	RET

// func prolongAdd8AVX2(x, xq *float64, alpha float64, assign *int32, rows, stride, count int) (bad int)
TEXT ·prolongAdd8AVX2(SB), NOSPLIT, $0-64
	MOVQ         x+0(FP), SI
	MOVQ         xq+8(FP), DI
	VBROADCASTSD alpha+16(FP), Y8
	MOVQ         assign+24(FP), R8
	MOVQ         rows+32(FP), CX
	MOVQ         stride+40(FP), R9
	MOVQ         count+48(FP), R10
	SHLQ         $3, R9
	PROLONG(EACH8, row8, ok8, done8)

done8:
	VZEROUPPER
	MOVQ BX, bad+56(FP)
	RET

// func prolongAdd4AVX2(x, xq *float64, alpha float64, assign *int32, rows, stride, count int) (bad int)
TEXT ·prolongAdd4AVX2(SB), NOSPLIT, $0-64
	MOVQ         x+0(FP), SI
	MOVQ         xq+8(FP), DI
	VBROADCASTSD alpha+16(FP), Y8
	MOVQ         assign+24(FP), R8
	MOVQ         rows+32(FP), CX
	MOVQ         stride+40(FP), R9
	MOVQ         count+48(FP), R10
	SHLQ         $3, R9
	PROLONG(EACH4, row4, ok4, done4)

done4:
	VZEROUPPER
	MOVQ BX, bad+56(FP)
	RET

// func jacobiFromZero8AVX2(x, r, dInv *float64, omega float64, rows, stride int)
TEXT ·jacobiFromZero8AVX2(SB), NOSPLIT, $0-48
	MOVQ   x+0(FP), SI
	MOVQ   r+8(FP), DI
	MOVQ   dInv+16(FP), R8
	VBROADCASTSD omega+24(FP), Y9
	MOVQ   rows+32(FP), CX
	MOVQ   stride+40(FP), R9
	SHLQ   $3, R9
	JACOBI(EACH8, row8, done8)
	RET

// func jacobiFromZero4AVX2(x, r, dInv *float64, omega float64, rows, stride int)
TEXT ·jacobiFromZero4AVX2(SB), NOSPLIT, $0-48
	MOVQ   x+0(FP), SI
	MOVQ   r+8(FP), DI
	MOVQ   dInv+16(FP), R8
	VBROADCASTSD omega+24(FP), Y9
	MOVQ   rows+32(FP), CX
	MOVQ   stride+40(FP), R9
	SHLQ   $3, R9
	JACOBI(EACH4, row4, done4)
	RET
