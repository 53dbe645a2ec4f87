//go:build !race

package kernel

// The assembly forms of the bodies: laptile_amd64.s, laprows_amd64.s,
// sweeps_amd64.s, cycle_amd64.s and chol_amd64.s. They are left out of -race builds: the
// race detector cannot see assembly stores.

func cpuHasAVX2() bool

func lapTile8AVX2(dst, r, x, dInv *float64, omega float64, adj *int32, w *float64, off *int, lo, hi, k, n, nadj int) (bad int)

func lapTile4AVX2(dst, r, x, dInv *float64, omega float64, adj *int32, w *float64, off *int, lo, hi, k, n, nadj int) (bad int)

func lapRows4AVX2(dst, r, x, dInv *float64, omega float64, adj *int32, w *float64, lo, hi, d, n int) (bad int)

func dots8AVX2(a, b, acc *float64, rows, stride int)

func dots4AVX2(a, b, acc *float64, rows, stride int)

func subMeanDot8AVX2(z, r, mean, acc *float64, rows, stride int)

func subMeanDot4AVX2(z, r, mean, acc *float64, rows, stride int)

func updateXRSums8AVX2(x, r, p, ap, alpha, acc *float64, rows, stride int)

func updateXRSums4AVX2(x, r, p, ap, alpha, acc *float64, rows, stride int)

func xpby8AVX2(p, z, beta *float64, rows, stride int)

func xpby4AVX2(p, z, beta *float64, rows, stride int)

func restrict8AVX2(r, rq *float64, order, start *int32, lo, hi, stride, n, norder int) (bad int)

func restrict4AVX2(r, rq *float64, order, start *int32, lo, hi, stride, n, norder int) (bad int)

func prolongAdd8AVX2(x, xq *float64, alpha float64, assign *int32, rows, stride, count int) (bad int)

func prolongAdd4AVX2(x, xq *float64, alpha float64, assign *int32, rows, stride, count int) (bad int)

func jacobiFromZero8AVX2(x, r, dInv *float64, omega float64, rows, stride int)

func jacobiFromZero4AVX2(x, r, dInv *float64, omega float64, rows, stride int)

func cholForward8AVX2(dst, diag, val *float64, order, colPtr, rowIdx *int32, lo, hi, stride, n, nnz int) (bad int)

func cholForward4AVX2(dst, diag, val *float64, order, colPtr, rowIdx *int32, lo, hi, stride, n, nnz int) (bad int)

func cholBackward8AVX2(dst, diag, val *float64, order, colPtr, rowIdx *int32, lo, hi, stride, n, nnz int) (bad int)

func cholBackward4AVX2(dst, diag, val *float64, order, colPtr, rowIdx *int32, lo, hi, stride, n, nnz int) (bad int)
