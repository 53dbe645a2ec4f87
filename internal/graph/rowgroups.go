package graph

import (
	"math"

	"hcd/internal/kernel"
)

// The row-group table: where a Graph's rows come in groups of four
// consecutive rows of one degree, which is the shape the row-group form of
// kernel.LapRows needs (DESIGN §12 "Row-group kernels"). Nothing is copied or
// reordered, and a graph whose rows do not come in long runs of one degree
// simply has no grouped segment. A segment is a kernel.Group.

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

// GroupedShare returns the share of g's stored entries that lie in grouped
// rows of its row-group table: the part of a k = 1 matvec the row-group form
// of kernel.LapRows runs (where the host has it). A graph without entries
// has share 0.
func (g *Graph) GroupedShare() float64 {
	entries := 0
	for _, s := range g.groups {
		entries += int(s.Hi-s.Lo) * int(s.Deg)
	}
	return float64(entries) / float64(max(len(g.adj), 1))
}

// rowGroups builds the table from CSR offsets: every maximal run of at least
// minGroupRows rows of one degree d ≥ 1 gives up its first 4·⌊len/4⌋ rows as a
// grouped segment, and whatever lies between two grouped segments — run
// tails, short runs, rows without entries — is one ungrouped segment.
func rowGroups(off []int) []kernel.Group {
	n := len(off) - 1
	var segs []kernel.Group
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
			segs = append(segs, kernel.Group{Lo: int32(v), Hi: int32(cut), Deg: int32(d)})
		}
		if cut < end {
			if last := len(segs) - 1; last >= 0 && segs[last].Deg == 0 {
				segs[last].Hi = int32(end)
			} else {
				segs = append(segs, kernel.Group{Lo: int32(cut), Hi: int32(end)})
			}
		}
		v = end
	}
	return segs
}
