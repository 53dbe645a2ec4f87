package graph

import (
	"hcd/internal/kernel"
	"hcd/internal/par"
)

// LapMul computes dst = A·x where A is the Laplacian of g:
// dst[v] = Σ_u w(v,u)·(x[v] − x[u]). dst and x must have length N(); like
// every kernel here it panics with an error wrapping ErrInvalidInput, before
// anything is written, when an operand has another length.
// Rows are independent, so large graphs are processed across cores; the
// result is bit-identical to the sequential loop.
func (g *Graph) LapMul(dst, x []float64) {
	g.checkBlockOperands(dst, nil, x, nil, 1)
	g.lapDispatch(dst, nil, x, nil, 0)
}

// rowGrain is the per-chunk row count of the row-chunked k = 1 kernels.
const rowGrain = 8192

// LapMulSerial is the single-goroutine matvec, bit-identical to LapMul. It
// exists as the reference implementation for equality tests and for
// benchmarking the parallel row-blocked path against a fixed serial baseline.
func (g *Graph) LapMulSerial(dst, x []float64) {
	g.checkBlockOperands(dst, nil, x, nil, 1)
	kernel.LapRows(dst, nil, x, nil, 0, g.adj, g.w, g.off, g.groups, 0, g.N())
}

// lapDispatch runs a k = 1 row kernel over all rows of checked operands —
// mode by nil r / nil dInv, as kernel.LapRows — serially or row-chunked across
// cores.
func (g *Graph) lapDispatch(dst, r, x, dInv []float64, omega float64) {
	n := g.N()
	// Serial short-circuit below the grain (and on one worker): the closure
	// below escapes to worker goroutines and would heap-allocate per call,
	// which matters for the solver engine's zero-allocation small solves.
	if n <= rowGrain || par.Workers() == 1 {
		kernel.LapRows(dst, r, x, dInv, omega, g.adj, g.w, g.off, g.groups, 0, n)
		return
	}
	par.For(n, rowGrain, func(lo, hi int) {
		kernel.LapRows(dst, r, x, dInv, omega, g.adj, g.w, g.off, g.groups, lo, hi)
	})
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
