//go:build !amd64 || race

package graph

// Builds without the assembly row-group kernel — other architectures and
// -race builds — never set rowAVX2, so lapRange never gets here.

func (g *Graph) lapRowGroupsAVX2(dst, r, x, dInv []float64, omega float64, lo, hi, d int) {
	panic("graph: the AVX2 row-group kernel is not part of this build")
}
