package graph

import (
	"fmt"

	"hcd/internal/kernel"
	"hcd/internal/par"
)

// Block (multi-vector) Laplacian matvec: dst = A·X where X packs k column
// vectors row-major — X[v*k+j] is column j's entry at vertex v. One CSR
// traversal serves all k columns: each row's neighbor indices and edge
// weights are loaded once and reused across the k columns, which is the
// memory-hierarchy win that makes block-PCG multi-RHS solves faster than k
// sequential matvecs. The row-major layout keeps the k values of one vertex
// contiguous, so a row's columns are one unit-stride load: the column tiles
// of kernel.LapTile keep them in scalar locals or in vector registers.
//
// Rows are independent, so the traversal is row-chunked across cores, and
// the result is bit-identical at any GOMAXPROCS — and with either form of the
// tiles, which perform the same IEEE operations in the same order per column
// (DESIGN §12 "Kernel layer"). A single vector is the k = 1 block: LapMul is
// LapMulBlock at width 1.

// LapMulBlock computes dst = A·X for the row-major [n][k] block X, where A
// is the Laplacian of g: dst[v*k+j] = Σ_u w(v,u)·(X[v*k+j] − X[u*k+j]).
// dst and x must have length N()·k.
func (g *Graph) LapMulBlock(dst, x []float64, k int) {
	g.sweep(lapSweep{g, dst, nil, x, nil, 0, k})
}

// LapMulBlockResidual computes dst = R − A·X in one CSR traversal — the
// fused form of LapMulBlock followed by an elementwise subtraction, saving a
// full read+write pass over the block. Per column the matvec value is
// completed first and then subtracted from r, exactly the two-step operation
// order, so the result is bit-identical to the unfused sequence.
func (g *Graph) LapMulBlockResidual(dst, r, x []float64, k int) {
	g.sweep(lapSweep{g, dst, r, x, nil, 0, k})
}

// LapJacobiStepBlock computes one damped-Jacobi sweep for A·X = R out of
// place, k packed columns at once: dst = X + ω·D⁻¹(R − A·X), with dInv the
// caller's inverse diagonal. Per column it is bit-identical to LapMulBlock
// into a temporary followed by x[v] + ω·(r[v] − tmp[v])·dInv[v]. dst must
// not alias x.
func (g *Graph) LapJacobiStepBlock(dst, r, x, dInv []float64, omega float64, k int) {
	g.sweep(lapSweep{g, dst, r, x, dInv, omega, k})
}

// checkBlockOperands panics, before anything is written, unless every operand
// of a width-k kernel has exactly its length: N()·k for the blocks, N() for
// the inverse diagonal.
func (g *Graph) checkBlockOperands(dst, r, x, dInv []float64, k int) {
	n := g.N()
	if k < 1 {
		panic(fmt.Errorf("graph: Laplacian kernel: width k = %d: %w", k, ErrInvalidInput))
	}
	check := func(name string, have, want int) {
		if have != want {
			panic(fmt.Errorf("graph: Laplacian kernel: len(%s) = %d, want %d (n = %d, k = %d): %w", name, have, want, n, k, ErrInvalidInput))
		}
	}
	check("dst", len(dst), n*k)
	check("x", len(x), n*k)
	if r != nil {
		check("r", len(r), n*k)
		if dInv != nil {
			check("dInv", len(dInv), n)
		}
	}
}

// sweep checks s's operands and runs it over every row of g, in chunks of
// kernel.ChunkRows(k) rows across cores.
func (g *Graph) sweep(s lapSweep) {
	g.checkBlockOperands(s.dst, s.r, s.x, s.dInv, s.k)
	par.For(g.N(), kernel.ChunkRows(s.k), s)
}

// lapSweep is a block kernel over rows of g and its operands — dst = A·X, or
// dst = R − A·X when r is non-nil, or dst = X + ω·D⁻¹(R − A·X) when dInv is
// too — on width-k blocks.
type lapSweep struct {
	g               *Graph
	dst, r, x, dInv []float64
	omega           float64
	k               int
}

// Range computes rows [lo, hi): at k = 1 with the row loops of
// kernel.LapRows, otherwise in the column tiles of kernel.Tiles — 8-wide,
// then 4-wide (kernel.LapTile) — and lapCol on each column they leave. A tile
// re-reads the row's neighbor indices and weights, but those are L1-resident
// after the first pass, and a row block's stay cached while lapCol's columns
// take turns over it. Per column every tile and lapCol do what the
// k = 1 row loop does, in its order — Σ w·(x_v − x_u) over ascending
// neighbors, then the optional subtraction from r, then the optional
// x + (ω·residual)·dInv — so a column of the block is bit for bit the k = 1
// kernel run on that column alone.
func (s lapSweep) Range(lo, hi int) {
	g, k := s.g, s.k
	if k == 1 {
		kernel.LapRows(s.dst, s.r, s.x, s.dInv, s.omega, g.adj, g.w, g.off, g.groups, lo, hi)
		return
	}
	j := kernel.Tiles(k, func(width, j int) {
		kernel.LapTile(width, s.dst, s.r, s.x, s.dInv, s.omega, g.adj, g.w, g.off, k, j, lo, hi)
	})
	kernel.Columns(j, k, lo, hi, func(j, lo, hi int) {
		lapCol(s.dst, s.r, s.x, s.dInv, s.omega, g.adj, g.w, g.off, k, j, lo, hi)
	})
}

// lapCol is column j of rows [lo, hi) of a width-k block kernel: the k = 1
// row loop at stride k. It is kept out of line, as the other sweeps' width-1
// loops are.
//
//go:noinline
func lapCol(dst, r, x, dInv []float64, omega float64, adj []int32, w []float64, off []int, k, j, lo, hi int) {
	w, ends, i := w[:len(adj)], off[lo+1:hi+1], uint(off[lo])
	x = x[j:]
	for row, e := range ends {
		o := (lo + row) * k
		xv, t := x[o], 0.0
		for end := kernel.RowEnd(e, adj); i < end; i++ {
			t += w[i] * (xv - x[int(uint32(adj[i]))*k])
		}
		if r != nil {
			t = r[o+j] - t
			if dInv != nil {
				t = xv + omega*t*dInv[lo+row]
			}
		}
		dst[o+j] = t
	}
}
