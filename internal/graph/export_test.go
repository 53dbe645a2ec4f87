package graph

import (
	"math"
	"testing"
)

// CheckContract lets the external tests in this directory, which can import
// the workload generators and the §3.1 clustering, hold Contract against the
// reference oracle.
var CheckContract = checkContract

// useGoBlockTiles switches the AVX2 column tiles off until the test ends, so
// every k > 1 packed-row kernel below it — the block row kernels here and the
// level-1 sweeps of internal/solver and internal/hierarchy, which read
// BlockAVX2 — runs the Go tiles.
func useGoBlockTiles(t testing.TB) {
	prev := blockAVX2
	blockAVX2 = false
	t.Cleanup(func() { blockAVX2 = prev })
}

// sameWord: two output words of a block kernel are the same when their bits
// are — which tells −0 from +0 and a denormal from zero — or when both are
// NaN. Which payload survives an operation on two NaNs is decided by the
// operand order the Go compiler's register allocator happens to pick per
// column, so it is not part of any kernel's contract.
func sameWord(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
}

// The block-tile tests in package graph_test build their graphs from the
// workload generators and the hierarchy; these are their way in.
var (
	UseGoBlockTiles = useGoBlockTiles
	BlockRowGrain   = blockRowGrain
	BlockTestGraph  = blockTestGraph
	SameWord        = sameWord
)

// BlockRange is lapMulBlockRange: rows [lo, hi) of a block kernel, mode by
// nil r / nil dInv, through the AVX2 tiles or the Go tiles.
func (g *Graph) BlockRange(avx2 bool, dst, r, x, dInv []float64, omega float64, k, lo, hi int) {
	g.lapMulBlockRange(avx2, dst, r, x, dInv, omega, k, lo, hi)
}

// UseGoRowKernel switches the AVX2 row-group kernel off until the test ends,
// so every k = 1 row kernel below it runs the Go loops.
func UseGoRowKernel(t testing.TB) {
	prev := rowAVX2
	rowAVX2 = false
	t.Cleanup(func() { rowAVX2 = prev })
}

// MinGroupRows is the shortest run of equal-degree rows the table groups.
const MinGroupRows = minGroupRows

// RowAVX2 reports whether the AVX2 row-group kernel is in use.
func RowAVX2() bool { return rowAVX2 }

// RowRange is lapRange: rows [lo, hi) of a k = 1 row kernel, mode by nil r /
// nil dInv, grouped rows through the assembly or everything through the Go
// loops.
func (g *Graph) RowRange(avx2 bool, dst, r, x, dInv []float64, omega float64, lo, hi int) {
	g.lapRange(avx2, dst, r, x, dInv, omega, lo, hi)
}

// RowSeg is one segment of a graph's row-group table: rows [Lo, Hi), of
// degree Deg each when Deg > 0.
type RowSeg struct{ Lo, Hi, Deg int }

// RowSegs returns g's row-group table.
func (g *Graph) RowSegs() []RowSeg {
	segs := make([]RowSeg, len(g.groups))
	for i, s := range g.groups {
		segs[i] = RowSeg{int(s.lo), int(s.hi), int(s.deg)}
	}
	return segs
}
