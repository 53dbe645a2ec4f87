//go:build !race

#include "textflag.h"

// AVX2 forms of the 8- and 4-wide column tiles of a sparse Cholesky factor's
// triangular solves (chol.go). A vertex's columns live in one YMM register per
// four — two for tile 8, one for tile 4 — and every column sees the IEEE
// operations of the Go tile in the Go tile's order: VDIVPD by the broadcast
// pivot, then per entry multiply and subtract, never a fused multiply-add. The
// Go function that calls them checks the operands first; every gathered id and
// every column's entry range is held here against its bound, and the first
// column that fails is returned, −1 otherwise. Register plan:
//
//	SI the block, at column j0 of row 0   R9 row stride in bytes
//	R8 order   R11 diag   R12 colPtr   R14 rowIdx   DI val
//	R10 n, the bound on a vertex id   R13 nnz (forward) or the pivot row (backward)
//	BX column   CX entry   DX the column's end   AX a row's byte offset
//	Y0, Y1 the pivot row   Y8 broadcast pivot   Y9 broadcast entry
//
// Each pass is one macro over EACH8 or EACH4, which apply a per-register step
// — (byte offset in the row, value register, two temporaries) — to the
// registers of one row.

#define EACH8(step) step(0, Y0, Y2, Y4); step(32, Y1, Y3, Y5)
#define EACH4(step) step(0, Y0, Y2, Y4)

// y = dst[v] / l, stored back to dst[v] (AX bytes into SI)
#define PIVOT(off, y, t, u) \
	VMOVUPD off(SI)(AX*1), y \
	VDIVPD  Y8, y, y         \
	VMOVUPD y, off(SI)(AX*1)

// dst[r] −= l_q·y (AX bytes into SI)
#define SCATTER(off, y, t, u) \
	VMULPD  y, Y9, t         \
	VMOVUPD off(SI)(AX*1), u \
	VSUBPD  t, u, u          \
	VMOVUPD u, off(SI)(AX*1)

// s = dst[v] (R13 bytes into SI)
#define LOAD_PIVOT(off, s, t, u) \
	VMOVUPD off(SI)(R13*1), s

// s −= l_q·dst[r] (AX bytes into SI)
#define GATHER(off, s, t, u) \
	VMULPD off(SI)(AX*1), Y9, t \
	VSUBPD t, s, s

// dst[v] = s / l (R13 bytes into SI)
#define STORE_PIVOT(off, s, t, u) \
	VDIVPD  Y8, s, s \
	VMOVUPD s, off(SI)(R13*1)

// ENTRIES loads column BX's entry range [CX, DX) and jumps to done unless
// 0 ≤ CX ≤ DX ≤ nnz, to empty if the range is empty.
#define ENTRIES(nnz, empty, done) \
	MOVLQSX (R12)(BX*4), CX  \
	MOVLQSX 4(R12)(BX*4), DX \
	CMPQ    DX, nnz          \
	JA      done             \
	CMPQ    CX, DX           \
	JA      done             \
	JEQ     empty

// FORWARD is the forward scatter of cholTile8/4 over columns [BX, hi): a
// column whose vertex or row id is not below n (R10), or whose entry range is
// not inside rowIdx, leaves BX at it and jumps to done.
#define FORWARD(EACH, col, entry, next, ok, done) \
	CMPQ         BX, hi+56(FP)   \
	JGE          ok              \
col:                             \
	MOVL         (R8)(BX*4), AX  \
	CMPQ         AX, R10         \
	JAE          done            \
	IMULQ        R9, AX          \
	VBROADCASTSD (R11)(BX*8), Y8 \
	EACH(PIVOT)                  \
	ENTRIES(R13, next, done)     \
entry:                           \
	MOVL         (R14)(CX*4), AX \
	CMPQ         AX, R10         \
	JAE          done            \
	IMULQ        R9, AX          \
	VBROADCASTSD (DI)(CX*8), Y9  \
	EACH(SCATTER)                \
	INCQ         CX              \
	CMPQ         CX, DX          \
	JLT          entry           \
next:                            \
	INCQ         BX              \
	CMPQ         BX, hi+56(FP)   \
	JLT          col             \
ok:                              \
	MOVQ         $-1, BX

// BACKWARD is the backward gather of cholTile8/4 over columns [lo, BX],
// descending, with the failures of FORWARD; nothing of a failing column is
// stored.
#define BACKWARD(EACH, col, entry, store, ok, done) \
	CMPQ         BX, lo+48(FP)          \
	JLT          ok                     \
col:                                    \
	MOVL         (R8)(BX*4), R13        \
	CMPQ         R13, R10               \
	JAE          done                   \
	IMULQ        R9, R13                \
	EACH(LOAD_PIVOT)                    \
	ENTRIES(nnz+80(FP), store, done)    \
entry:                                  \
	MOVL         (R14)(CX*4), AX        \
	CMPQ         AX, R10                \
	JAE          done                   \
	IMULQ        R9, AX                 \
	VBROADCASTSD (DI)(CX*8), Y9         \
	EACH(GATHER)                        \
	INCQ         CX                     \
	CMPQ         CX, DX                 \
	JLT          entry                  \
store:                                  \
	VBROADCASTSD (R11)(BX*8), Y8        \
	EACH(STORE_PIVOT)                   \
	DECQ         BX                     \
	CMPQ         BX, lo+48(FP)          \
	JGE          col                    \
ok:                                     \
	MOVQ         $-1, BX

#define LOAD_ARGS \
	MOVQ dst+0(FP), SI      \
	MOVQ diag+8(FP), R11    \
	MOVQ val+16(FP), DI     \
	MOVQ order+24(FP), R8   \
	MOVQ colPtr+32(FP), R12 \
	MOVQ rowIdx+40(FP), R14 \
	MOVQ stride+64(FP), R9  \
	MOVQ n+72(FP), R10      \
	SHLQ $3, R9

// func cholForward8AVX2(dst, diag, val *float64, order, colPtr, rowIdx *int32, lo, hi, stride, n, nnz int) (bad int)
TEXT ·cholForward8AVX2(SB), NOSPLIT, $0-96
	LOAD_ARGS
	MOVQ nnz+80(FP), R13
	MOVQ lo+48(FP), BX
	FORWARD(EACH8, col8, entry8, next8, ok8, done8)

done8:
	VZEROUPPER
	MOVQ BX, bad+88(FP)
	RET

// func cholForward4AVX2(dst, diag, val *float64, order, colPtr, rowIdx *int32, lo, hi, stride, n, nnz int) (bad int)
TEXT ·cholForward4AVX2(SB), NOSPLIT, $0-96
	LOAD_ARGS
	MOVQ nnz+80(FP), R13
	MOVQ lo+48(FP), BX
	FORWARD(EACH4, col4, entry4, next4, ok4, done4)

done4:
	VZEROUPPER
	MOVQ BX, bad+88(FP)
	RET

// func cholBackward8AVX2(dst, diag, val *float64, order, colPtr, rowIdx *int32, lo, hi, stride, n, nnz int) (bad int)
TEXT ·cholBackward8AVX2(SB), NOSPLIT, $0-96
	LOAD_ARGS
	MOVQ hi+56(FP), BX
	DECQ BX
	BACKWARD(EACH8, col8, entry8, store8, ok8, done8)

done8:
	VZEROUPPER
	MOVQ BX, bad+88(FP)
	RET

// func cholBackward4AVX2(dst, diag, val *float64, order, colPtr, rowIdx *int32, lo, hi, stride, n, nnz int) (bad int)
TEXT ·cholBackward4AVX2(SB), NOSPLIT, $0-96
	LOAD_ARGS
	MOVQ hi+56(FP), BX
	DECQ BX
	BACKWARD(EACH4, col4, entry4, store4, ok4, done4)

done4:
	VZEROUPPER
	MOVQ BX, bad+88(FP)
	RET
