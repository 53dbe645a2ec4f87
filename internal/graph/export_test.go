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
// every block kernel below it runs the Go tiles.
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

// BlockAVX2 reports whether the AVX2 column tiles are in use.
func BlockAVX2() bool { return blockAVX2 }

// BlockRange is lapMulBlockRange: rows [lo, hi) of a block kernel, mode by
// nil r / nil dInv, through the AVX2 tiles or the Go tiles.
func (g *Graph) BlockRange(avx2 bool, dst, r, x, dInv []float64, omega float64, k, lo, hi int) {
	g.lapMulBlockRange(avx2, dst, r, x, dInv, omega, k, lo, hi)
}
