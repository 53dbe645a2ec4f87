//go:build !race

package hierarchy

import (
	"fmt"
	"unsafe"

	"hcd/internal/graph"
)

// The assembly sweep tiles (sweeps_amd64.s). Like internal/graph's column
// tiles they are left out of -race builds: the race detector cannot see
// assembly stores.

func restrict8AVX2(r, rq *float64, order, start *int32, lo, hi, stride, n, norder int) (bad int)

func restrict4AVX2(r, rq *float64, order, start *int32, lo, hi, stride, n, norder int) (bad int)

func prolongAdd8AVX2(x, xq *float64, alpha float64, assign *int32, rows, stride, count int) (bad int)

func prolongAdd4AVX2(x, xq *float64, alpha float64, assign *int32, rows, stride, count int) (bad int)

func jacobiFromZero8AVX2(x, r, dInv *float64, omega float64, rows, stride int)

func jacobiFromZero4AVX2(x, r, dInv *float64, omega float64, rows, stride int)

// The assembly tiles as the wrappers call them; variables so that a test can
// see what each call is handed.
var (
	restrict8Asm, restrict4Asm             = restrict8AVX2, restrict4AVX2
	prolongAdd8Asm, prolongAdd4Asm         = prolongAdd8AVX2, prolongAdd4AVX2
	jacobiFromZero8Asm, jacobiFromZero4Asm = jacobiFromZero8AVX2, jacobiFromZero4AVX2
)

// The wrappers below run one tile of a sweep — columns [j0, j0+width), width
// 8 or 4, of rows (clusters, for restrict) [lo, hi) — through the assembly.
// The assembly indexes raw pointers, so what the Go tiles' bounds checks would
// catch entry by entry is checked here once, before anything is stored — the
// column window, the range, the length of every block and of the inverse
// diagonal and restriction tables the range reads — and in the assembly per
// gathered index: every member id of order against n, every cluster end
// against len(order), every cluster of assign against count. A failure panics
// with an error wrapping graph.ErrInvalidInput that names the row, the cluster
// or the operand, with nothing of the offending row or cluster stored. The
// range is handed over at most rowGrain(k) rows or clusters at a time: the
// runtime cannot preempt a goroutine inside assembly, and the serial path of
// par.For hands over the whole level.

// checkWindow panics unless [j0, j0+width) is a column window of a width-k
// block and [lo, hi) a range.
func checkWindow(sweep string, width, k, j0, lo, hi int) {
	if lo < 0 || lo > hi || j0 < 0 || j0+width > k {
		panic(fmt.Errorf("hierarchy: %s sweep tile: columns [%d, %d) of %d, range [%d, %d): %w", sweep, j0, j0+width, k, lo, hi, graph.ErrInvalidInput))
	}
}

// checkLen panics unless an operand of the sweep holds at least want entries.
func checkLen(sweep, operand string, have, want int) {
	if have < want {
		panic(fmt.Errorf("hierarchy: %s sweep tile: len(%s) = %d, want at least %d: %w", sweep, operand, have, want, graph.ErrInvalidInput))
	}
}

// restrictAVX2 is restrictTile8 / restrictTile4 through the assembly.
func (l *Level) restrictAVX2(width int, r, rq []float64, k, j0, lo, hi int) {
	n := l.g.N()
	checkWindow("restrict", width, k, j0, lo, hi)
	checkLen("restrict", "r", len(r), n*k)
	checkLen("restrict", "rq", len(rq), hi*k)
	checkLen("restrict", "start", len(l.start), hi+1)
	if lo == hi {
		return
	}
	tile := restrict8Asm
	if width == 4 {
		tile = restrict4Asm
	}
	for grain := rowGrain(k); lo < hi; lo += grain {
		if s := l.start[lo]; s < 0 || int(s) > len(l.order) {
			panic(fmt.Errorf("hierarchy: cluster %d starts at %d, outside the %d entries of the restriction order: %w", lo, s, len(l.order), graph.ErrInvalidInput))
		}
		if c := tile(&r[j0], &rq[j0], unsafe.SliceData(l.order), &l.start[0], lo, min(lo+grain, hi), k, n, len(l.order)); c >= 0 {
			if end := l.start[c+1]; int(end) > len(l.order) {
				panic(fmt.Errorf("hierarchy: cluster %d ends at %d, beyond the %d entries of the restriction order: %w", c, end, len(l.order), graph.ErrInvalidInput))
			}
			panic(fmt.Errorf("hierarchy: cluster %d holds a member id outside [0, %d): %w", c, n, graph.ErrInvalidInput))
		}
	}
}

// prolongAddAVX2 is prolongAddTile8 / prolongAddTile4 through the assembly.
func (l *Level) prolongAddAVX2(width int, x, xq []float64, alpha float64, k, j0, lo, hi int) {
	checkWindow("prolongAdd", width, k, j0, lo, hi)
	checkLen("prolongAdd", "x", len(x), hi*k)
	checkLen("prolongAdd", "xq", len(xq), l.count*k)
	checkLen("prolongAdd", "assign", len(l.assign), hi)
	tile := prolongAdd8Asm
	if width == 4 {
		tile = prolongAdd4Asm
	}
	for grain := rowGrain(k); lo < hi; lo += grain {
		if v := tile(&x[lo*k+j0], &xq[j0], alpha, &l.assign[lo], min(grain, hi-lo), k, l.count); v >= 0 {
			panic(fmt.Errorf("hierarchy: vertex %d is assigned to cluster %d, outside [0, %d): %w", lo+v, l.assign[lo+v], l.count, graph.ErrInvalidInput))
		}
	}
}

// jacobiFromZeroAVX2 is jacobiFromZeroTile8 / jacobiFromZeroTile4 through the
// assembly.
func (l *Level) jacobiFromZeroAVX2(width int, x, r []float64, omega float64, k, j0, lo, hi int) {
	checkWindow("jacobiFromZero", width, k, j0, lo, hi)
	checkLen("jacobiFromZero", "x", len(x), hi*k)
	checkLen("jacobiFromZero", "r", len(r), hi*k)
	checkLen("jacobiFromZero", "dInv", len(l.dInv), hi)
	tile := jacobiFromZero8Asm
	if width == 4 {
		tile = jacobiFromZero4Asm
	}
	for grain := rowGrain(k); lo < hi; lo += grain {
		o := lo*k + j0
		tile(&x[o], &r[o], &l.dInv[lo], omega, min(grain, hi-lo), k)
	}
}
