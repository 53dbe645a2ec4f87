//go:build !race

package graph

import (
	"fmt"
	"unsafe"
)

// The assembly row-group kernel (laprows_amd64.s). Like the column tiles it is
// left out of -race builds, where the Go loops must stay visible to the race
// detector.

func lapRows4AVX2(dst, r, x, dInv *float64, omega float64, adj *int32, w *float64, lo, hi, d, n int) (bad int)

// lapRows4Asm is the assembly kernel as the wrapper calls it; a variable so
// that a test can see what each call is handed.
var lapRows4Asm = lapRows4AVX2

// lapRowGroupsAVX2 computes rows [lo, hi) — a multiple of four, all of degree
// d ≥ 1 by the row-group table — through the assembly kernel, mode by nil r /
// nil dInv as in lapRange. The assembly indexes raw pointers and never reads
// the offsets, so what the Go loops' bounds checks would catch is checked
// here once per call — operand lengths, the row range, that the rows' entries
// are the (hi−lo)·d the table promises and lie inside the arrays — and in the
// assembly per gathered id; a failure panics before anything of the offending
// group is stored, naming the row. The range is handed over at most rowGrain
// rows at a time: the runtime cannot preempt a goroutine inside assembly.
func (g *Graph) lapRowGroupsAVX2(dst, r, x, dInv []float64, omega float64, lo, hi, d int) {
	n := g.N()
	adj, w := g.adj, g.w[:len(g.adj)]
	if lo < 0 || hi > n || len(g.off) <= n || (hi-lo)&3 != 0 || d < 1 ||
		len(dst) < n || len(x) < n || (r != nil && len(r) < n) || (r != nil && dInv != nil && len(dInv) < n) {
		panic(fmt.Sprintf("graph: row groups: rows [%d, %d) of %d, degree %d, len(dst)=%d len(r)=%d len(x)=%d len(dInv)=%d",
			lo, hi, n, d, len(dst), len(r), len(x), len(dInv)))
	}
	var rp, dp *float64
	if r != nil {
		rp = unsafe.SliceData(r)
		if dInv != nil {
			dp = unsafe.SliceData(dInv)
		}
	}
	for ; lo < hi; lo += rowGrain {
		end := min(lo+rowGrain, hi)
		e := g.off[lo]
		if e < 0 || g.off[end]-e != (end-lo)*d || g.off[end] > len(adj) {
			g.badRowGroup(lo, end, d)
		}
		if bad := lapRows4Asm(unsafe.SliceData(dst), rp, unsafe.SliceData(x), dp, omega, &adj[e], &w[e], lo, end, d, n); bad >= 0 {
			for i, u := range adj[e+(bad-lo)*d:][:4*d] {
				if uint32(u) >= uint32(n) {
					panic(fmt.Errorf("graph: row %d holds a neighbor id outside [0, %d): %w", bad+i/d, n, ErrInvalidInput))
				}
			}
		}
	}
}
