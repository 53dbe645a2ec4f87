//go:build !amd64 || race

package kernel

// Builds without the assembly — other architectures, and -race builds —
// report no AVX2, so the bodies never call the assembly forms: here they are
// nil.

func cpuHasAVX2() bool { return false }

var (
	lapTile8AVX2, lapTile4AVX2               func(dst, r, x, dInv *float64, omega float64, adj *int32, w *float64, off *int, lo, hi, k, n, nadj int) int
	lapRows4AVX2                             func(dst, r, x, dInv *float64, omega float64, adj *int32, w *float64, lo, hi, d, n int) int
	dots8AVX2, dots4AVX2                     func(a, b, acc *float64, rows, stride int)
	subMeanDot8AVX2, subMeanDot4AVX2         func(z, r, mean, acc *float64, rows, stride int)
	updateXRSums8AVX2, updateXRSums4AVX2     func(x, r, p, ap, alpha, acc *float64, rows, stride int)
	xpby8AVX2, xpby4AVX2                     func(p, z, beta *float64, rows, stride int)
	restrict8AVX2, restrict4AVX2             func(r, rq *float64, order, start *int32, lo, hi, stride, n, norder int) int
	prolongAdd8AVX2, prolongAdd4AVX2         func(x, xq *float64, alpha float64, assign *int32, rows, stride, count int) int
	jacobiFromZero8AVX2, jacobiFromZero4AVX2 func(x, r, dInv *float64, omega float64, rows, stride int)
	cholForward8AVX2, cholForward4AVX2       func(dst, diag, val *float64, order, colPtr, rowIdx *int32, lo, hi, stride, n, nnz int) int
	cholBackward8AVX2, cholBackward4AVX2     func(dst, diag, val *float64, order, colPtr, rowIdx *int32, lo, hi, stride, n, nnz int) int
)
