package graph

import (
	"fmt"

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

// rowGrain is the per-chunk row count of the scalar row kernels, and the most
// rows one call into the assembly row-group kernel is handed.
const rowGrain = 8192

// LapMulSerial is the single-goroutine matvec, bit-identical to LapMul. It
// exists as the reference implementation for equality tests and for
// benchmarking the parallel row-blocked path against a fixed serial baseline.
func (g *Graph) LapMulSerial(dst, x []float64) {
	g.checkBlockOperands(dst, nil, x, nil, 1)
	g.lapRange(rowAVX2, dst, nil, x, nil, 0, 0, g.N())
}

// LapMulResidual computes dst = r − A·x in one CSR traversal: each row's
// matvec value is completed first and then subtracted from r[v], so the
// result is bit-identical to LapMul followed by an elementwise subtraction.
// dst may alias r but not x.
func (g *Graph) LapMulResidual(dst, r, x []float64) {
	g.checkBlockOperands(dst, r, x, nil, 1)
	g.lapDispatch(dst, r, x, nil, 0)
}

// LapJacobiStep computes one damped-Jacobi sweep for A·x = r out of place:
// dst = x + ω·D⁻¹(r − A·x), with dInv the caller's inverse diagonal. Per row
// it is bit-identical to LapMul into a temporary followed by
// x[v] += ω·(r[v] − tmp[v])·dInv[v]. dst must not alias x.
func (g *Graph) LapJacobiStep(dst, r, x, dInv []float64, omega float64) {
	g.checkBlockOperands(dst, r, x, dInv, 1)
	g.lapDispatch(dst, r, x, dInv, omega)
}

// lapDispatch runs a k = 1 row kernel over all rows of checked operands —
// mode by nil r / nil dInv, as lapRange — serially or row-chunked across
// cores.
func (g *Graph) lapDispatch(dst, r, x, dInv []float64, omega float64) {
	n, avx2 := g.N(), rowAVX2
	// Serial short-circuit below the grain (and on one worker): the closure
	// below escapes to worker goroutines and would heap-allocate per call,
	// which matters for the solver engine's zero-allocation small solves.
	if n <= rowGrain || par.Workers() == 1 {
		g.lapRange(avx2, dst, r, x, dInv, omega, 0, n)
		return
	}
	par.For(n, rowGrain, func(lo, hi int) {
		g.lapRange(avx2, dst, r, x, dInv, omega, lo, hi)
	})
}

// lapRow returns one row of A·x — Σ w[i]·(xv − x[adj[i]]) over the row's
// entries [i, end) in entry order. It is the one row loop under every scalar
// kernel: it indexes the full-length CSR arrays (no per-row sub-slices, which
// cost two slice headers per row) and is small enough to inline, so each
// range kernel below compiles to a single loop nest that carries the entry
// cursor from row to row. The cursor is unsigned and the caller has held end
// against len(adj) (rowEnd), so the only bounds check left per entry is the
// gather from x; ids are non-negative by construction, and reading one as
// uint32 lets the 4-byte load zero-extend into the index in one instruction.
func lapRow(adj []int32, w, x []float64, xv float64, i, end uint) float64 {
	acc := 0.0
	for ; i < end; i++ {
		acc += w[i] * (xv - x[uint32(adj[i])])
	}
	return acc
}

// rowSpan returns what a range kernel over rows [lo, hi) walks: the entry
// arrays at one common length, the rows' end offsets and the first row's
// start. The kernels range over ends and re-slice their per-row vectors to
// len(ends), which is what lets the compiler drop the per-row bounds checks.
func (g *Graph) rowSpan(lo, hi int) (adj []int32, w []float64, ends []int, start uint) {
	return g.adj, g.w[:len(g.adj)], g.off[lo+1 : hi+1], uint(g.off[lo])
}

// rowEnd is a row's end offset as lapRow's loop bound, checked once per row
// so the loop needs no check per entry. Offsets are validated at
// construction; a failure here is a corrupted Graph.
func rowEnd(end int, adj []int32) uint {
	if uint(end) > uint(len(adj)) {
		panic(errRowEnd)
	}
	return uint(end)
}

// errRowEnd is what rowEnd panics with. It is built once: anything more than
// a panic of a ready value on rowEnd's cold path — a call that formats the
// offset, even out of line — changes the code of the row loops it inlines
// into (0.83 → 1.19 ns/entry with a helper that panics, +2 % with one that
// returns the error).
var errRowEnd = fmt.Errorf("graph: CSR offset beyond the adjacency array: %w", ErrInvalidInput)

func (g *Graph) lapMulRange(dst, x []float64, lo, hi int) {
	adj, w, ends, i := g.rowSpan(lo, hi)
	dst, xs := dst[lo:hi][:len(ends)], x[lo:hi][:len(ends)]
	for v, e := range ends {
		end := rowEnd(e, adj)
		dst[v] = lapRow(adj, w, x, xs[v], i, end)
		i = end
	}
}

func (g *Graph) lapResidualRange(dst, r, x []float64, lo, hi int) {
	adj, w, ends, i := g.rowSpan(lo, hi)
	dst, r, xs := dst[lo:hi][:len(ends)], r[lo:hi][:len(ends)], x[lo:hi][:len(ends)]
	for v, e := range ends {
		end := rowEnd(e, adj)
		dst[v] = r[v] - lapRow(adj, w, x, xs[v], i, end)
		i = end
	}
}

func (g *Graph) lapJacobiRange(dst, r, x, dInv []float64, omega float64, lo, hi int) {
	adj, w, ends, i := g.rowSpan(lo, hi)
	dst, r, xs, dInv := dst[lo:hi][:len(ends)], r[lo:hi][:len(ends)], x[lo:hi][:len(ends)], dInv[lo:hi][:len(ends)]
	for v, e := range ends {
		end := rowEnd(e, adj)
		dst[v] = xs[v] + omega*(r[v]-lapRow(adj, w, x, xs[v], i, end))*dInv[v]
		i = end
	}
}

// LapQuad returns the Laplacian quadratic form xᵀAx = Σ_{(u,v)∈E} w·(x[u]−x[v])².
func (g *Graph) LapQuad(x []float64) float64 {
	q := 0.0
	for u := 0; u < g.N(); u++ {
		nbr, w := g.Neighbors(u)
		xu := x[u]
		for i, v := range nbr {
			if u < int(v) {
				d := xu - x[v]
				q += w[i] * d * d
			}
		}
	}
	return q
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
