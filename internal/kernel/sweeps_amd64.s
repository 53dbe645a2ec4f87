//go:build !race

#include "textflag.h"

// AVX2 forms of the 8- and 4-wide solver sweeps of sweeps.go. A row's
// columns live in one YMM register per four (two for tile 8, one for tile 4),
// and every column sees the IEEE operations of the Go tile in the Go tile's
// order: rows ascending, multiply then add — never a fused multiply-add — and
// the accumulators loaded from the caller's slot, carried in registers and
// stored once. Every function walks rows row after row of a width-k block
// from pointers at column j0 of the first row; the Go functions that call
// them check the operands first. Register plan:
//
//	SI, DI, R8, R10  the blocks, at the current row   R11 coefficients (mean, α, β)
//	DX accumulators   R9 row stride in bytes   CX rows left
//	Y0, Y1 accumulators   Y2, Y3 coefficients   Y4–Y7 row values
//
// Each kernel is one macro over EACH8 or EACH4, which apply a per-register
// step — (byte offset in the row, accumulator, coefficient, two temporaries)
// — to the registers of one row.

#define EACH8(step) step(0, Y0, Y2, Y4, Y6); step(32, Y1, Y3, Y5, Y7)
#define EACH4(step) step(0, Y0, Y2, Y4, Y6)

#define LOAD_ACC(off, acc, c, t, u) VMOVUPD off(DX), acc
#define STORE_ACC(off, acc, c, t, u) VMOVUPD acc, off(DX)
#define LOAD_COEF(off, acc, c, t, u) VMOVUPD off(R11), c

// acc += a·b
#define DOT_ROW(off, acc, c, t, u) \
	VMOVUPD off(SI), t    \
	VMULPD  off(DI), t, t \
	VADDPD  t, acc, acc

// acc += a
#define SUM_ROW(off, acc, c, t, u) VADDPD off(SI), acc, acc

// DOTS is dotsTile8/4 (b in DI) or, with b nil, colSumsTile8/4.
#define DOTS(EACH, prod, sum, done) \
	SHLQ  $3, R9       \
	EACH(LOAD_ACC)     \
	TESTQ CX, CX       \
	JLE   done         \
	TESTQ DI, DI       \
	JZ    sum          \
prod:                  \
	EACH(DOT_ROW)      \
	ADDQ  R9, SI       \
	ADDQ  R9, DI       \
	DECQ  CX           \
	JNZ   prod         \
	JMP   done         \
sum:                   \
	EACH(SUM_ROW)      \
	ADDQ  R9, SI       \
	DECQ  CX           \
	JNZ   sum          \
done:                  \
	EACH(STORE_ACC)    \
	VZEROUPPER

// z −= mean, stored before r is loaded (r may be z), then acc += r·z
#define SUBMEAN_ROW(off, acc, c, t, u) \
	VMOVUPD off(SI), t    \
	VSUBPD  c, t, t       \
	VMOVUPD t, off(SI)    \
	VMULPD  off(DI), t, t \
	VADDPD  t, acc, acc

// SUBMEAN_DOT is subMeanDotTile8/4: z in SI, r in DI, mean in R11.
#define SUBMEAN_DOT(EACH, row, done) \
	SHLQ  $3, R9        \
	EACH(LOAD_ACC)      \
	EACH(LOAD_COEF)     \
	TESTQ CX, CX        \
	JLE   done          \
row:                    \
	EACH(SUBMEAN_ROW)   \
	ADDQ  R9, SI        \
	ADDQ  R9, DI        \
	DECQ  CX            \
	JNZ   row           \
done:                   \
	EACH(STORE_ACC)     \
	VZEROUPPER

// x += α·p; r −= α·ap; acc += r
#define UPDATE_ROW(off, acc, c, t, u) \
	VMULPD  off(R8), c, t  \
	VADDPD  off(SI), t, t  \
	VMOVUPD t, off(SI)     \
	VMULPD  off(R10), c, t \
	VMOVUPD off(DI), u     \
	VSUBPD  t, u, u        \
	VMOVUPD u, off(DI)     \
	VADDPD  u, acc, acc

// UPDATE_XR_SUMS is updateXRSumsTile8/4: x in SI, r in DI, p in R8, ap
// in R10, α in R11.
#define UPDATE_XR_SUMS(EACH, row, done) \
	SHLQ  $3, R9        \
	EACH(LOAD_ACC)      \
	EACH(LOAD_COEF)     \
	TESTQ CX, CX        \
	JLE   done          \
row:                    \
	EACH(UPDATE_ROW)    \
	ADDQ  R9, SI        \
	ADDQ  R9, DI        \
	ADDQ  R9, R8        \
	ADDQ  R9, R10       \
	DECQ  CX            \
	JNZ   row           \
done:                   \
	EACH(STORE_ACC)     \
	VZEROUPPER

// p = z + β·p
#define XPBY_ROW(off, acc, c, t, u) \
	VMULPD  off(SI), c, t \
	VADDPD  off(DI), t, t \
	VMOVUPD t, off(SI)

// XPBY is xpbyTile8/4: p in SI, z in DI, β in R11.
#define XPBY(EACH, row, done) \
	SHLQ  $3, R9        \
	EACH(LOAD_COEF)     \
	TESTQ CX, CX        \
	JLE   done          \
row:                    \
	EACH(XPBY_ROW)      \
	ADDQ  R9, SI        \
	ADDQ  R9, DI        \
	DECQ  CX            \
	JNZ   row           \
done:                   \
	VZEROUPPER

// func dots8AVX2(a, b, acc *float64, rows, stride int)
TEXT ·dots8AVX2(SB), NOSPLIT, $0-40
	MOVQ a+0(FP), SI
	MOVQ b+8(FP), DI
	MOVQ acc+16(FP), DX
	MOVQ rows+24(FP), CX
	MOVQ stride+32(FP), R9
	DOTS(EACH8, prod8, sum8, done8)
	RET

// func dots4AVX2(a, b, acc *float64, rows, stride int)
TEXT ·dots4AVX2(SB), NOSPLIT, $0-40
	MOVQ a+0(FP), SI
	MOVQ b+8(FP), DI
	MOVQ acc+16(FP), DX
	MOVQ rows+24(FP), CX
	MOVQ stride+32(FP), R9
	DOTS(EACH4, prod4, sum4, done4)
	RET

// func subMeanDot8AVX2(z, r, mean, acc *float64, rows, stride int)
TEXT ·subMeanDot8AVX2(SB), NOSPLIT, $0-48
	MOVQ z+0(FP), SI
	MOVQ r+8(FP), DI
	MOVQ mean+16(FP), R11
	MOVQ acc+24(FP), DX
	MOVQ rows+32(FP), CX
	MOVQ stride+40(FP), R9
	SUBMEAN_DOT(EACH8, row8, done8)
	RET

// func subMeanDot4AVX2(z, r, mean, acc *float64, rows, stride int)
TEXT ·subMeanDot4AVX2(SB), NOSPLIT, $0-48
	MOVQ z+0(FP), SI
	MOVQ r+8(FP), DI
	MOVQ mean+16(FP), R11
	MOVQ acc+24(FP), DX
	MOVQ rows+32(FP), CX
	MOVQ stride+40(FP), R9
	SUBMEAN_DOT(EACH4, row4, done4)
	RET

// func updateXRSums8AVX2(x, r, p, ap, alpha, acc *float64, rows, stride int)
TEXT ·updateXRSums8AVX2(SB), NOSPLIT, $0-64
	MOVQ x+0(FP), SI
	MOVQ r+8(FP), DI
	MOVQ p+16(FP), R8
	MOVQ ap+24(FP), R10
	MOVQ alpha+32(FP), R11
	MOVQ acc+40(FP), DX
	MOVQ rows+48(FP), CX
	MOVQ stride+56(FP), R9
	UPDATE_XR_SUMS(EACH8, row8, done8)
	RET

// func updateXRSums4AVX2(x, r, p, ap, alpha, acc *float64, rows, stride int)
TEXT ·updateXRSums4AVX2(SB), NOSPLIT, $0-64
	MOVQ x+0(FP), SI
	MOVQ r+8(FP), DI
	MOVQ p+16(FP), R8
	MOVQ ap+24(FP), R10
	MOVQ alpha+32(FP), R11
	MOVQ acc+40(FP), DX
	MOVQ rows+48(FP), CX
	MOVQ stride+56(FP), R9
	UPDATE_XR_SUMS(EACH4, row4, done4)
	RET

// func xpby8AVX2(p, z, beta *float64, rows, stride int)
TEXT ·xpby8AVX2(SB), NOSPLIT, $0-40
	MOVQ p+0(FP), SI
	MOVQ z+8(FP), DI
	MOVQ beta+16(FP), R11
	MOVQ rows+24(FP), CX
	MOVQ stride+32(FP), R9
	XPBY(EACH8, row8, done8)
	RET

// func xpby4AVX2(p, z, beta *float64, rows, stride int)
TEXT ·xpby4AVX2(SB), NOSPLIT, $0-40
	MOVQ p+0(FP), SI
	MOVQ z+8(FP), DI
	MOVQ beta+16(FP), R11
	MOVQ rows+24(FP), CX
	MOVQ stride+32(FP), R9
	XPBY(EACH4, row4, done4)
	RET
