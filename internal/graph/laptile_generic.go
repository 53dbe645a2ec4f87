//go:build !amd64 || race

package graph

// Builds without the assembly column tiles — other architectures, and -race
// builds, where the row kernels must stay visible to the race detector — run
// the Go tiles of laplacian_block.go only.

func cpuHasAVX2() bool { return false }

func (g *Graph) lapMulBlockTileAVX2(width int, dst, r, x, dInv []float64, omega float64, k, j0, lo, hi int) {
	panic("graph: the AVX2 column tiles are not part of this build")
}
