//go:build !race

package graph

import (
	"fmt"
	"unsafe"
)

// The assembly column tiles (laptile_amd64.s). They are left out of -race
// builds: the race detector cannot see assembly stores, and the row kernels
// are what `make race` is there to instrument.

func cpuHasAVX2() bool

func lapTile8AVX2(dst, r, x, dInv *float64, omega float64, adj *int32, w *float64, off *int, lo, hi, k, n, nadj int) (bad int)

func lapTile4AVX2(dst, r, x, dInv *float64, omega float64, adj *int32, w *float64, off *int, lo, hi, k, n, nadj int) (bad int)

// lapTile8Asm and lapTile4Asm are the assembly tiles as the wrapper calls
// them; variables so that a test can see what each call is handed.
var lapTile8Asm, lapTile4Asm = lapTile8AVX2, lapTile4AVX2

// lapMulBlockTileAVX2 is lapMulBlockTile8 (width 8) or lapMulBlockTile4
// (width 4) through the assembly tile. The assembly indexes raw pointers, so
// what the Go tiles' bounds checks would catch entry by entry is checked here
// once — operand lengths, the column window, the row range — and in the
// assembly per row end and per gathered id; a failure panics with an error
// wrapping ErrInvalidInput, naming the row. The range is handed over at most
// blockRowGrain(k) rows at a time: the runtime cannot preempt a goroutine
// inside assembly, and a chunk keeps that stretch in the tens of microseconds.
func (g *Graph) lapMulBlockTileAVX2(width int, dst, r, x, dInv []float64, omega float64, k, j0, lo, hi int) {
	n := g.N()
	adj, w := g.adj, g.w[:len(g.adj)]
	if lo < 0 || hi > n || len(g.off) <= n || j0 < 0 || j0+width > k ||
		len(dst) < n*k || len(x) < n*k || (r != nil && len(r) < n*k) || (r != nil && dInv != nil && len(dInv) < n) {
		panic(fmt.Errorf("graph: block tile: rows [%d, %d) of %d, columns [%d, %d) of %d, len(dst)=%d len(r)=%d len(x)=%d len(dInv)=%d: %w",
			lo, hi, n, j0, j0+width, k, len(dst), len(r), len(x), len(dInv), ErrInvalidInput))
	}
	if lo >= hi {
		return
	}
	var rp, dp *float64
	if r != nil {
		rp = &r[j0]
		if dInv != nil {
			dp = &dInv[0]
		}
	}
	tile := lapTile8Asm
	if width == 4 {
		tile = lapTile4Asm
	}
	for grain := blockRowGrain(k); lo < hi; lo += grain {
		bad := tile(&dst[j0], rp, &x[j0], dp, omega, unsafe.SliceData(adj), unsafe.SliceData(w), &g.off[0],
			lo, min(lo+grain, hi), k, n, len(adj))
		if bad >= 0 {
			rowEnd(g.off[bad+1], adj) // panics if it was the row's end offset that failed
			panic(fmt.Errorf("graph: row %d holds a neighbor id outside [0, %d): %w", bad, n, ErrInvalidInput))
		}
	}
}
