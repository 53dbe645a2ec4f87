package kernel

import (
	"fmt"
	"unsafe"
)

// The Laplacian bodies read a graph as its CSR arrays: the rows' entry
// offsets off (n+1 of them), the neighbor ids adj and the weights w. Every
// body has three modes, by which of r and dInv it is handed: dst = A·x, or
// dst = r − A·x with r set, or dst = x + ω·D⁻¹(r − A·x) with dInv set too.

// RowEnd is a row's end offset as a row loop's bound, checked once per row so
// the loop needs no check per entry.
func RowEnd(end int, adj []int32) uint {
	if uint(end) > uint(len(adj)) {
		panic(errRowEnd)
	}
	return uint(end)
}

// errRowEnd is what RowEnd panics with. It is built once: anything more than
// a panic of a ready value on RowEnd's cold path — a call that formats the
// offset, even out of line — changes the code of the row loops it inlines
// into (0.83 → 1.19 ns/entry with a helper that panics, +2 % with one that
// returns the error).
var errRowEnd = fmt.Errorf("kernel: CSR offset beyond the adjacency array: %w", ErrInvalidInput)

// lapRow returns one row of A·x — Σ w[i]·(xv − x[adj[i]]) over the row's
// entries [i, end) in entry order. It is the one row loop under every k = 1
// body: it indexes the full-length CSR arrays (no per-row sub-slices, which
// cost two slice headers per row) and is small enough to inline, so each row
// loop below compiles to a single loop nest that carries the entry cursor from
// row to row. The cursor is unsigned and the caller has held end against
// len(adj) (RowEnd), so the only bounds check left per entry is the gather
// from x; reading an id as uint32 lets the 4-byte load zero-extend into the
// index in one instruction.
func lapRow(adj []int32, w, x []float64, xv float64, i, end uint) float64 {
	acc := 0.0
	for ; i < end; i++ {
		acc += w[i] * (xv - x[uint32(adj[i])])
	}
	return acc
}

// rowSpan returns what a row loop over rows [lo, hi) walks: the weights at the
// length of the ids, the rows' end offsets and the first row's start. The
// loops range over ends and re-slice their per-row vectors to len(ends), which
// is what lets the compiler drop the per-row bounds checks.
func rowSpan(w []float64, adj []int32, off []int, lo, hi int) ([]float64, []int, uint) {
	return w[:len(adj)], off[lo+1 : hi+1], uint(off[lo])
}

// A Group is one segment of a row-group table, which internal/graph builds
// for every Graph: rows [Lo, Hi). With Deg ≥ 1 every one of them holds Deg
// entries, and entry j of row v+q of a group of four sits at off[v] + q·Deg + j,
// so four rows fill the four lanes of a register straight from the CSR arrays.
// Deg = 0 marks rows the Go loops take one at a time. Segments partition the
// rows in order.
type Group struct{ Lo, Hi, Deg int32 }

// LapRows computes rows [lo, hi) of a k = 1 Laplacian body. The assembly
// form walks the segments of groups that overlap the range: a grouped
// segment, clipped to the range and to whole groups of four, goes four rows to
// a register, every other row to the Go loops, in as few calls as the order
// allows. The Go form runs the range in one Go loop and does not read groups.
// A row's value does not depend on which form computed it, so neither does
// the result on how the rows were chunked. The check is per call, not per
// segment: a level of OCT 64³ has a segment every 32 rows.
func LapRows(dst, r, x, dInv []float64, omega float64, adj []int32, w []float64, off []int, groups []Group, lo, hi int) {
	n := len(off) - 1
	check("rows", 1, 1, 0, lo, hi, span{"off", len(off), hi + 1}, span{"w", len(w), len(adj)},
		span{"dst", len(dst), hi}, span{"x", len(x), n}, opt("r", r, hi), opt("dInv", dInv, hi))
	if !avx2 {
		groups = nil
	}
	// First segment that ends beyond lo.
	i, j := 0, len(groups)
	for i < j {
		if m := int(uint(i+j) >> 1); int(groups[m].Hi) <= lo {
			i = m + 1
		} else {
			j = m
		}
	}
	done := lo // rows [lo, done) are written
	for ; i < len(groups) && int(groups[i].Lo) < hi; i++ {
		s := groups[i]
		if s.Deg < 1 {
			continue
		}
		a, b := max(int(s.Lo), done), min(int(s.Hi), hi)
		if b -= (b - a) & 3; a < b {
			if done < a {
				rows(dst, r, x, dInv, omega, adj, w, off, done, a)
			}
			rowGroups(dst, r, x, dInv, omega, adj, w, off, a, b, int(s.Deg))
			done = b
		}
	}
	if done < hi {
		rows(dst, r, x, dInv, omega, adj, w, off, done, hi)
	}
}

// rows computes rows [lo, hi) through the Go loops.
func rows(dst, r, x, dInv []float64, omega float64, adj []int32, w []float64, off []int, lo, hi int) {
	switch {
	case r == nil:
		mulRows(dst, x, adj, w, off, lo, hi)
	case dInv == nil:
		residualRows(dst, r, x, adj, w, off, lo, hi)
	default:
		jacobiRows(dst, r, x, dInv, omega, adj, w, off, lo, hi)
	}
}

func mulRows(dst, x []float64, adj []int32, w []float64, off []int, lo, hi int) {
	w, ends, i := rowSpan(w, adj, off, lo, hi)
	dst, xs := dst[lo:hi][:len(ends)], x[lo:hi][:len(ends)]
	for v, e := range ends {
		end := RowEnd(e, adj)
		dst[v] = lapRow(adj, w, x, xs[v], i, end)
		i = end
	}
}

func residualRows(dst, r, x []float64, adj []int32, w []float64, off []int, lo, hi int) {
	w, ends, i := rowSpan(w, adj, off, lo, hi)
	dst, r, xs := dst[lo:hi][:len(ends)], r[lo:hi][:len(ends)], x[lo:hi][:len(ends)]
	for v, e := range ends {
		end := RowEnd(e, adj)
		dst[v] = r[v] - lapRow(adj, w, x, xs[v], i, end)
		i = end
	}
}

func jacobiRows(dst, r, x, dInv []float64, omega float64, adj []int32, w []float64, off []int, lo, hi int) {
	w, ends, i := rowSpan(w, adj, off, lo, hi)
	dst, r, xs, dInv := dst[lo:hi][:len(ends)], r[lo:hi][:len(ends)], x[lo:hi][:len(ends)], dInv[lo:hi][:len(ends)]
	for v, e := range ends {
		end := RowEnd(e, adj)
		dst[v] = xs[v] + omega*(r[v]-lapRow(adj, w, x, xs[v], i, end))*dInv[v]
		i = end
	}
}

// rowGroups computes rows [lo, hi) of LapRows's range, a multiple of four
// rows all of degree d ≥ 1 by the table, through the assembly. Per chunk it
// checks that the offsets are what the table promised (the assembly never
// reads them), and per gathered id the assembly holds it against n; a failure
// panics, naming the row, before anything of the offending group is stored.
func rowGroups(dst, r, x, dInv []float64, omega float64, adj []int32, w []float64, off []int, lo, hi, d int) {
	n := len(off) - 1
	for lo < hi {
		end, e := next(lo, hi, 1), off[lo]
		if e < 0 || off[end]-e != (end-lo)*d || off[end] > len(adj) {
			badRowGroup(off, len(adj), lo, end, d)
		}
		if bad := lapRows4AVX2(unsafe.SliceData(dst), at(r, 0), unsafe.SliceData(x), at(dInv, 0), omega, &adj[e], &w[e], lo, end, d, n); bad >= 0 {
			for i, u := range adj[off[bad]:][:4*d] {
				if uint32(u) >= uint32(n) {
					invalid("row %d holds a neighbor id outside [0, %d)", bad+i/d, n)
				}
			}
		}
		lo = end
	}
}

// badRowGroup panics for rows [lo, hi) that the caller holds as a group of
// degree d and the offsets do not: it names the first row whose offsets
// disagree or end beyond the nadj ids.
func badRowGroup(off []int, nadj, lo, hi, d int) {
	for v := lo; v < hi; v++ {
		if start, end := off[v], off[v+1]; start < 0 || end-start != d || end > nadj {
			invalid("row %d spans entries [%d, %d) of %d, its row group has degree %d", v, start, end, nadj, d)
		}
	}
	invalid("rows [%d, %d) do not start where their row group does", lo, hi)
}

// LapTile computes columns [j0, j0+width), width 8 or 4, of rows [lo, hi) of a
// block Laplacian body over the packed row-major width-k blocks dst, r and x:
// dst[v·k+j] = Σ_u w(v,u)·(x[v·k+j] − x[u·k+j]) in the mul mode. A row's
// columns and its x_v live in locals — in the assembly, one or two vector
// registers each — and every column sees lapRow's operations in lapRow's
// order: ascending entries, then the optional subtraction from r, then the
// optional x_v + (ω·…)·dInv_v, as the k = 1 row loops finish. So column j of
// a tile is bit for bit the k = 1 body run on column j alone. The assembly
// holds every row end against len(adj) and every gathered id against n; a
// failure panics, naming the row, with nothing of it stored.
func LapTile(width int, dst, r, x, dInv []float64, omega float64, adj []int32, w []float64, off []int, k, j0, lo, hi int) {
	n := len(off) - 1
	check("lapTile", width, k, j0, lo, hi, span{"off", len(off), hi + 1}, span{"w", len(w), len(adj)},
		span{"dst", len(dst), hi * k}, span{"x", len(x), n * k}, opt("r", r, hi*k), opt("dInv", dInv, hi))
	for lo < hi {
		end := next(lo, hi, k)
		var bad int
		switch {
		case avx2 && width == 8:
			bad = lapTile8AVX2(&dst[j0], at(r, j0), &x[j0], at(dInv, 0), omega, unsafe.SliceData(adj), unsafe.SliceData(w), &off[0], lo, end, k, n, len(adj))
		case avx2:
			bad = lapTile4AVX2(&dst[j0], at(r, j0), &x[j0], at(dInv, 0), omega, unsafe.SliceData(adj), unsafe.SliceData(w), &off[0], lo, end, k, n, len(adj))
		case width == 8:
			lapTile8(dst, r, x, dInv, omega, adj, w, off, k, j0, lo, end)
			bad = -1
		default:
			lapTile4(dst, r, x, dInv, omega, adj, w, off, k, j0, lo, end)
			bad = -1
		}
		if bad >= 0 {
			RowEnd(off[bad+1], adj) // panics if it was the row's end offset that failed
			invalid("row %d holds a neighbor id outside [0, %d)", bad, n)
		}
		lo = end
	}
}

func lapTile8(dst, r, x, dInv []float64, omega float64, adj []int32, w []float64, off []int, k, j0, lo, hi int) {
	w, ends, i := rowSpan(w, adj, off, lo, hi)
	for row, e := range ends {
		v := lo + row
		b := v*k + j0
		xv := x[b : b+8 : b+8]
		x0, x1, x2, x3, x4, x5, x6, x7 := xv[0], xv[1], xv[2], xv[3], xv[4], xv[5], xv[6], xv[7]
		var a0, a1, a2, a3, a4, a5, a6, a7 float64
		for end := RowEnd(e, adj); i < end; i++ {
			wi := w[i]
			u := int(uint32(adj[i]))*k + j0
			xu := x[u : u+8 : u+8]
			a0 += wi * (x0 - xu[0])
			a1 += wi * (x1 - xu[1])
			a2 += wi * (x2 - xu[2])
			a3 += wi * (x3 - xu[3])
			a4 += wi * (x4 - xu[4])
			a5 += wi * (x5 - xu[5])
			a6 += wi * (x6 - xu[6])
			a7 += wi * (x7 - xu[7])
		}
		if r != nil {
			rv := r[b : b+8 : b+8]
			a0 = rv[0] - a0
			a1 = rv[1] - a1
			a2 = rv[2] - a2
			a3 = rv[3] - a3
			a4 = rv[4] - a4
			a5 = rv[5] - a5
			a6 = rv[6] - a6
			a7 = rv[7] - a7
			if dInv != nil {
				d := dInv[v]
				a0 = x0 + omega*a0*d
				a1 = x1 + omega*a1*d
				a2 = x2 + omega*a2*d
				a3 = x3 + omega*a3*d
				a4 = x4 + omega*a4*d
				a5 = x5 + omega*a5*d
				a6 = x6 + omega*a6*d
				a7 = x7 + omega*a7*d
			}
		}
		row := dst[b : b+8 : b+8]
		row[0], row[1], row[2], row[3] = a0, a1, a2, a3
		row[4], row[5], row[6], row[7] = a4, a5, a6, a7
	}
}

func lapTile4(dst, r, x, dInv []float64, omega float64, adj []int32, w []float64, off []int, k, j0, lo, hi int) {
	w, ends, i := rowSpan(w, adj, off, lo, hi)
	for row, e := range ends {
		v := lo + row
		b := v*k + j0
		xv := x[b : b+4 : b+4]
		x0, x1, x2, x3 := xv[0], xv[1], xv[2], xv[3]
		var a0, a1, a2, a3 float64
		for end := RowEnd(e, adj); i < end; i++ {
			wi := w[i]
			u := int(uint32(adj[i]))*k + j0
			xu := x[u : u+4 : u+4]
			a0 += wi * (x0 - xu[0])
			a1 += wi * (x1 - xu[1])
			a2 += wi * (x2 - xu[2])
			a3 += wi * (x3 - xu[3])
		}
		if r != nil {
			rv := r[b : b+4 : b+4]
			a0 = rv[0] - a0
			a1 = rv[1] - a1
			a2 = rv[2] - a2
			a3 = rv[3] - a3
			if dInv != nil {
				d := dInv[v]
				a0 = x0 + omega*a0*d
				a1 = x1 + omega*a1*d
				a2 = x2 + omega*a2*d
				a3 = x3 + omega*a3*d
			}
		}
		row := dst[b : b+4 : b+4]
		row[0], row[1], row[2], row[3] = a0, a1, a2, a3
	}
}
