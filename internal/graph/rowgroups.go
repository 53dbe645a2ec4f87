package graph

import (
	"fmt"
	"math"
)

// The row-group table: where a Graph's rows come in groups of four
// consecutive rows of one degree, which is the shape the AVX2 body of the
// k = 1 row kernels needs (laprows_amd64.s, DESIGN §12 "Row-group kernels").
// Entry j of row v+q of such a group sits at off[v] + q·d + j, so four rows
// fill the four lanes of a register from the CSR arrays as they are stored —
// nothing is copied or reordered, and a graph whose rows do not come in long
// runs of one degree simply has no grouped segment.

// rowSeg is one segment of the table: rows [lo, hi). With deg > 0 every one
// of them has deg entries and hi − lo is a multiple of four; deg == 0 marks a
// stretch the Go loop runs row by row. Segments partition [0, n) in order.
type rowSeg struct{ lo, hi, deg int32 }

// rowSegBytes is the size of a rowSeg, for Graph.Bytes.
const rowSegBytes = 12

// minGroupRows is the shortest run of equal-degree rows that becomes a
// grouped segment. Leaving the Go loop for the assembly and coming back costs
// about 20 ns (two calls, three loop exits the branch predictor has not
// seen), which a short run does not earn back. AVX2 over Go time of a matvec
// whose rows are runs of L rows of degree d with one row of degree d+1
// between them — the worst case: every run pays the switch (4 000 rows,
// L1-resident, one core of the host of DESIGN §12):
//
//	d     L=8    L=16   L=24   L=32   L=40   L=60
//	1     2.50   1.58   1.26   1.09   0.99   0.84
//	2     1.99   1.39   1.15   1.03   0.95   0.80
//	3     1.74   1.25   1.06   0.97   0.83   0.79
//	4     1.58   1.16   1.02   0.86   0.84   0.79
//	6     1.39   1.08   0.86   0.80   0.78   0.75
//	8     1.26   1.03   0.89   0.86   0.84   0.81
//
// 32 is where every degree from 3 up is ahead and 2 is level; rows of one
// entry that come in runs of 32–39 and nothing else are not a shape any
// workload has — a path or a star's leaves are one long run.
const minGroupRows = 32

// rowGroups builds the table from CSR offsets: every maximal run of at least
// minGroupRows rows of one degree d ≥ 1 gives up its first 4·⌊len/4⌋ rows as a
// grouped segment, and whatever lies between two grouped segments — run
// tails, short runs, rows without entries — is one ungrouped segment.
func rowGroups(off []int) []rowSeg {
	n := len(off) - 1
	var segs []rowSeg
	for v := 0; v < n; {
		d := off[v+1] - off[v]
		end := v + 1
		for end < n && off[end+1]-off[end] == d {
			end++
		}
		cut := v
		if d >= 1 && d <= math.MaxInt32 && end-v >= minGroupRows {
			cut += (end - v) &^ 3
		}
		if cut > v {
			segs = append(segs, rowSeg{int32(v), int32(cut), int32(d)})
		}
		if cut < end {
			if last := len(segs) - 1; last >= 0 && segs[last].deg == 0 {
				segs[last].hi = int32(end)
			} else {
				segs = append(segs, rowSeg{int32(cut), int32(end), 0})
			}
		}
		v = end
	}
	return segs
}

// rowAVX2 says whether grouped rows run the AVX2 body: decided once, at init,
// from the CPU and the build (never under -race or off amd64). Only tests
// write it afterwards, to run the Go loops on an AVX2 host.
var rowAVX2 = cpuHasAVX2()

// RowKernel names the body that serves grouped rows of the k = 1 row kernels
// in this process: "avx2" or "go".
func RowKernel() string {
	if rowAVX2 {
		return "avx2"
	}
	return "go"
}

// lapRange computes rows [lo, hi) of a k = 1 row kernel — dst = A·x, or
// r − A·x with r set, or x + ω·D⁻¹(r − A·x) with dInv set too. With avx2 set
// it walks the table's segments that overlap the range: a grouped segment,
// clipped to the range and to a multiple of four rows, goes to the assembly,
// every other row to the Go loops, in as few calls as the order allows. A
// row's value does not depend on which body computed it, so neither does the
// result on how [0, n) was chunked.
func (g *Graph) lapRange(avx2 bool, dst, r, x, dInv []float64, omega float64, lo, hi int) {
	segs := g.groups
	if !avx2 {
		segs = nil
	}
	// First segment that ends beyond lo.
	i, j := 0, len(segs)
	for i < j {
		if m := int(uint(i+j) >> 1); int(segs[m].hi) <= lo {
			i = m + 1
		} else {
			j = m
		}
	}
	done := lo // rows [lo, done) are written
	for ; i < len(segs) && int(segs[i].lo) < hi; i++ {
		s := segs[i]
		if s.deg == 0 {
			continue
		}
		a, b := max(int(s.lo), lo), min(int(s.hi), hi)
		if b -= (b - a) & 3; a < b {
			if done < a {
				g.lapRangeGo(dst, r, x, dInv, omega, done, a)
			}
			g.lapRowGroupsAVX2(dst, r, x, dInv, omega, a, b, int(s.deg))
			done = b
		}
	}
	if done < hi {
		g.lapRangeGo(dst, r, x, dInv, omega, done, hi)
	}
}

// lapRangeGo is lapRange through the Go loops alone: the fallback, the path of
// every row outside a group, and the oracle the assembly is held against.
func (g *Graph) lapRangeGo(dst, r, x, dInv []float64, omega float64, lo, hi int) {
	switch {
	case r == nil:
		g.lapMulRange(dst, x, lo, hi)
	case dInv == nil:
		g.lapResidualRange(dst, r, x, lo, hi)
	default:
		g.lapJacobiRange(dst, r, x, dInv, omega, lo, hi)
	}
}

// badRowGroup panics for rows [lo, hi) that the table holds as a group of
// degree d and the offsets do not: it names the first row whose offsets
// disagree or end beyond the adjacency array. The table is derived from the
// offsets at construction, so this is a corrupted Graph.
func (g *Graph) badRowGroup(lo, hi, d int) {
	for v := lo; v < hi; v++ {
		if start, end := g.off[v], g.off[v+1]; start < 0 || end-start != d || end > len(g.adj) {
			panic(fmt.Errorf("graph: row %d spans entries [%d, %d) of %d, its row group has degree %d: %w", v, start, end, len(g.adj), d, ErrInvalidInput))
		}
	}
	panic(fmt.Errorf("graph: rows [%d, %d) do not start where their row group does: %w", lo, hi, ErrInvalidInput))
}
