package graph

import "hcd/internal/kernel"

// CheckContract lets the external tests in this directory, which can import
// the workload generators and the §3.1 clustering, hold Contract against the
// reference oracle and, bit for bit, against the marker kernel it replaced.
var (
	CheckContract       = checkContract
	CheckContractMarked = checkContractMarked
)

// The block-tile tests in package graph_test build their graphs from the
// workload generators and the hierarchy; these are their way in.
var BlockTestGraph = blockTestGraph

// BlockRange is lapSweep.Range: rows [lo, hi) of a block kernel, mode by nil
// r / nil dInv.
func (g *Graph) BlockRange(dst, r, x, dInv []float64, omega float64, k, lo, hi int) {
	lapSweep{g, dst, r, x, dInv, omega, k}.Range(lo, hi)
}

// MinGroupRows is the shortest run of equal-degree rows the table groups.
const MinGroupRows = minGroupRows

// RowRange is rows [lo, hi) of a k = 1 row kernel, mode by nil r / nil dInv.
func (g *Graph) RowRange(dst, r, x, dInv []float64, omega float64, lo, hi int) {
	kernel.LapRows(dst, r, x, dInv, omega, g.adj, g.w, g.off, g.groups, lo, hi)
}

// RowSeg is one segment of a graph's row-group table: rows [Lo, Hi), of
// degree Deg each when Deg > 0.
type RowSeg struct{ Lo, Hi, Deg int }

// RowSegs returns g's row-group table.
func (g *Graph) RowSegs() []RowSeg {
	segs := make([]RowSeg, len(g.groups))
	for i, s := range g.groups {
		segs[i] = RowSeg{int(s.Lo), int(s.Hi), int(s.Deg)}
	}
	return segs
}
