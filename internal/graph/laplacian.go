package graph

import "hcd/internal/kernel"

// LapMul computes dst = A·x where A is the Laplacian of g:
// dst[v] = Σ_u w(v,u)·(x[v] − x[u]). dst and x must have length N(); like
// every kernel here it panics with an error wrapping ErrInvalidInput, before
// anything is written, when an operand has another length.
// Rows are independent, so large graphs are processed across cores; the
// result is bit-identical to the sequential loop. It is LapMulBlock at
// width 1.
func (g *Graph) LapMul(dst, x []float64) { g.LapMulBlock(dst, x, 1) }

// LapMulSerial is the single-goroutine matvec, bit-identical to LapMul. It
// exists as the reference implementation for equality tests and for
// benchmarking the parallel row-blocked path against a fixed serial baseline.
func (g *Graph) LapMulSerial(dst, x []float64) {
	g.checkBlockOperands(dst, nil, x, nil, 1)
	kernel.LapRows(dst, nil, x, nil, 0, g.adj, g.w, g.off, g.groups, 0, g.N())
}

// LapDense returns the Laplacian of g as a dense row-major n×n matrix; for
// tests and small direct factorizations only.
func (g *Graph) LapDense() []float64 {
	n := g.N()
	a := make([]float64, n*n)
	for v := 0; v < n; v++ {
		nbr, w := g.Neighbors(v)
		for i, u := range nbr {
			a[v*n+int(u)] -= w[i]
			a[v*n+v] += w[i]
		}
	}
	return a
}

// Volumes returns a copy of the vertex volume vector, i.e. the diagonal D of
// the Laplacian.
func (g *Graph) Volumes() []float64 {
	return append([]float64(nil), g.vol...)
}
