//go:build !race

package solver

import (
	"fmt"

	"hcd/internal/graph"
)

// The assembly sweep tiles (sweeps_amd64.s). Like internal/graph's column
// tiles they are left out of -race builds: the race detector cannot see
// assembly stores.

func dots8AVX2(a, b, acc *float64, rows, stride int)

func dots4AVX2(a, b, acc *float64, rows, stride int)

func subMeanDot8AVX2(z, r, mean, acc *float64, rows, stride int)

func subMeanDot4AVX2(z, r, mean, acc *float64, rows, stride int)

func updateXRSums8AVX2(x, r, p, ap, alpha, acc *float64, rows, stride int)

func updateXRSums4AVX2(x, r, p, ap, alpha, acc *float64, rows, stride int)

func xpby8AVX2(p, z, beta *float64, rows, stride int)

func xpby4AVX2(p, z, beta *float64, rows, stride int)

// The assembly tiles as the wrappers call them; variables so that a test can
// see what each call is handed.
var (
	dots8Asm, dots4Asm                 = dots8AVX2, dots4AVX2
	subMeanDot8Asm, subMeanDot4Asm     = subMeanDot8AVX2, subMeanDot4AVX2
	updateXRSums8Asm, updateXRSums4Asm = updateXRSums8AVX2, updateXRSums4AVX2
	xpby8Asm, xpby4Asm                 = xpby8AVX2, xpby4AVX2
)

// The wrappers below run one tile of a sweep — columns [j0, j0+width) of rows
// [lo, hi), width 8 or 4 — through the assembly. The assembly indexes raw
// pointers, so what the Go tiles' bounds checks would catch element by element
// is checked here once, before anything is stored: the column window, the row
// range, and the length of every block, coefficient vector and accumulator. A
// failure panics with an error wrapping graph.ErrInvalidInput that names the
// operand. The rows are handed over at most blockGrain(k) at a time: the
// runtime cannot preempt a goroutine inside assembly, and the serial path of
// blockXPBY hands over the whole block. Splitting a reduction's range changes
// no bit — its accumulators are stored and reloaded exactly.

// checkWindow panics unless [j0, j0+width) is a column window of a width-k
// block and [lo, hi) a row range.
func checkWindow(sweep string, width, k, j0, lo, hi int) {
	if lo < 0 || lo > hi || j0 < 0 || j0+width > k {
		panic(fmt.Errorf("solver: %s sweep tile: columns [%d, %d) of %d, rows [%d, %d): %w", sweep, j0, j0+width, k, lo, hi, graph.ErrInvalidInput))
	}
}

// checkLen panics unless an operand of the sweep holds at least want entries.
func checkLen(sweep, operand string, have, want int) {
	if have < want {
		panic(fmt.Errorf("solver: %s sweep tile: len(%s) = %d, want at least %d: %w", sweep, operand, have, want, graph.ErrInvalidInput))
	}
}

// dotsAVX2 is blockDotsTile8 / blockDotsTile4 through the assembly — with b
// nil, blockColSumsTile8 / blockColSumsTile4.
func dotsAVX2(width int, a, b []float64, k, j0, lo, hi int, acc []float64) {
	checkWindow("dots", width, k, j0, lo, hi)
	checkLen("dots", "a", len(a), hi*k)
	if b != nil {
		checkLen("dots", "b", len(b), hi*k)
	}
	checkLen("dots", "acc", len(acc), j0+width)
	tile := dots8Asm
	if width == 4 {
		tile = dots4Asm
	}
	for grain := blockGrain(k); lo < hi; lo += grain {
		o := lo*k + j0
		var bp *float64
		if b != nil {
			bp = &b[o]
		}
		tile(&a[o], bp, &acc[j0], min(grain, hi-lo), k)
	}
}

// subMeanDotAVX2 is blockSubMeanDotTile8 / blockSubMeanDotTile4 through the
// assembly.
func subMeanDotAVX2(width int, z, r, mean []float64, k, j0, lo, hi int, acc []float64) {
	checkWindow("subMeanDot", width, k, j0, lo, hi)
	checkLen("subMeanDot", "z", len(z), hi*k)
	checkLen("subMeanDot", "r", len(r), hi*k)
	checkLen("subMeanDot", "mean", len(mean), j0+width)
	checkLen("subMeanDot", "acc", len(acc), j0+width)
	tile := subMeanDot8Asm
	if width == 4 {
		tile = subMeanDot4Asm
	}
	for grain := blockGrain(k); lo < hi; lo += grain {
		o := lo*k + j0
		tile(&z[o], &r[o], &mean[j0], &acc[j0], min(grain, hi-lo), k)
	}
}

// updateXRSumsAVX2 is blockUpdateXRSumsTile8 / blockUpdateXRSumsTile4 through
// the assembly.
func updateXRSumsAVX2(width int, x, r, p, ap, alpha []float64, k, j0, lo, hi int, acc []float64) {
	checkWindow("updateXRSums", width, k, j0, lo, hi)
	checkLen("updateXRSums", "x", len(x), hi*k)
	checkLen("updateXRSums", "r", len(r), hi*k)
	checkLen("updateXRSums", "p", len(p), hi*k)
	checkLen("updateXRSums", "ap", len(ap), hi*k)
	checkLen("updateXRSums", "alpha", len(alpha), j0+width)
	checkLen("updateXRSums", "acc", len(acc), j0+width)
	tile := updateXRSums8Asm
	if width == 4 {
		tile = updateXRSums4Asm
	}
	for grain := blockGrain(k); lo < hi; lo += grain {
		o := lo*k + j0
		tile(&x[o], &r[o], &p[o], &ap[o], &alpha[j0], &acc[j0], min(grain, hi-lo), k)
	}
}

// xpbyAVX2 is blockXPBYTile8 / blockXPBYTile4 through the assembly.
func xpbyAVX2(width int, p, z, beta []float64, k, j0, lo, hi int) {
	checkWindow("xpby", width, k, j0, lo, hi)
	checkLen("xpby", "p", len(p), hi*k)
	checkLen("xpby", "z", len(z), hi*k)
	checkLen("xpby", "beta", len(beta), j0+width)
	tile := xpby8Asm
	if width == 4 {
		tile = xpby4Asm
	}
	for grain := blockGrain(k); lo < hi; lo += grain {
		o := lo*k + j0
		tile(&p[o], &z[o], &beta[j0], min(grain, hi-lo), k)
	}
}
