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
// Rows are independent, so the traversal is row-chunked across cores exactly
// like LapMul, and the result is bit-identical at any GOMAXPROCS — and with
// either form of the tiles, which perform the same IEEE operations in the
// same order per column (DESIGN §12 "Kernel layer").

// blockRowGrain returns the per-chunk row count for width-k block sweeps:
// the scalar matvec grain scaled down by the block width so one chunk still
// touches roughly the same number of floats, floored to keep scheduling
// overhead bounded.
func blockRowGrain(k int) int {
	g := 8192 / k
	if g < 256 {
		g = 256
	}
	return g
}

// LapMulBlock computes dst = A·X for the row-major [n][k] block X, where A
// is the Laplacian of g: dst[v*k+j] = Σ_u w(v,u)·(X[v*k+j] − X[u*k+j]).
// dst and x must have length N()·k. For k = 1 it is LapMul with the same
// serial short-circuit behavior.
func (g *Graph) LapMulBlock(dst, x []float64, k int) {
	g.lapMulBlockDispatch(dst, nil, x, nil, 0, k)
}

// LapMulBlockResidual computes dst = R − A·X in one CSR traversal — the
// fused form of LapMulBlock followed by an elementwise subtraction, saving a
// full read+write pass over the block. Per column the matvec value is
// completed first and then subtracted from r, exactly the two-step operation
// order, so the result is bit-identical to the unfused sequence. For k = 1
// it runs the scalar row kernel, as LapMul does.
func (g *Graph) LapMulBlockResidual(dst, r, x []float64, k int) {
	g.lapMulBlockDispatch(dst, r, x, nil, 0, k)
}

// LapJacobiStepBlock computes one damped-Jacobi sweep for A·X = R out of
// place, k packed columns at once: dst = X + ω·D⁻¹(R − A·X), with dInv the
// caller's inverse diagonal. Per column it is bit-identical to LapMulBlock
// into a temporary followed by x[v] + ω·(r[v] − tmp[v])·dInv[v]. dst must
// not alias x. For k = 1 it runs the scalar row kernel, as LapMul does.
func (g *Graph) LapJacobiStepBlock(dst, r, x, dInv []float64, omega float64, k int) {
	g.lapMulBlockDispatch(dst, r, x, dInv, omega, k)
}

// checkBlockOperands panics, before anything is written, unless every operand
// of a width-k kernel (k = 1: the row kernels of laplacian.go) has exactly its
// length: N()·k for the blocks, N() for the inverse diagonal.
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

// lapMulBlockDispatch runs the block matvec — plain (r nil), fused with the
// residual (r set) or with the Jacobi step on top of it (dInv set too) — with
// the shared serial short-circuit and row-chunked parallel path.
func (g *Graph) lapMulBlockDispatch(dst, r, x, dInv []float64, omega float64, k int) {
	g.checkBlockOperands(dst, r, x, dInv, k)
	if k == 1 {
		g.lapDispatch(dst, r, x, dInv, omega)
		return
	}
	n := g.N()
	grain := blockRowGrain(k)
	if n <= grain || par.Workers() == 1 {
		g.lapMulBlockRange(dst, r, x, dInv, omega, k, 0, n)
		return
	}
	par.For(n, grain, func(lo, hi int) {
		g.lapMulBlockRange(dst, r, x, dInv, omega, k, lo, hi)
	})
}

// lapMulBlockRange computes rows [lo, hi) of dst = A·X — or dst = R − A·X
// when r is non-nil, or dst = X + ω·D⁻¹(R − A·X) when dInv is too — in
// fixed-width column tiles: 8-wide, then 4-wide (kernel.LapTile), then a 1–3
// column tail. A tile re-reads the row's neighbor indices and weights, but
// those are L1-resident after the first pass. Per column every tile and the
// tail do what the k = 1 row loop does, in its order — Σ w·(x_v − x_u) over
// ascending neighbors, then the optional subtraction from r, then the
// optional x + (ω·residual)·dInv — so a column of the block is bit for bit
// the k = 1 kernel run on that column alone.
func (g *Graph) lapMulBlockRange(dst, r, x, dInv []float64, omega float64, k, lo, hi int) {
	j := 0
	for ; j+8 <= k; j += 8 {
		kernel.LapTile(8, dst, r, x, dInv, omega, g.adj, g.w, g.off, k, j, lo, hi)
	}
	if j+4 <= k {
		kernel.LapTile(4, dst, r, x, dInv, omega, g.adj, g.w, g.off, k, j, lo, hi)
		j += 4
	}
	if j < k {
		g.lapMulBlockTail(dst, r, x, dInv, omega, k, j, lo, hi)
	}
}

// lapMulBlockTail handles the final k−j0 ∈ {1, 2, 3} columns.
func (g *Graph) lapMulBlockTail(dst, r, x, dInv []float64, omega float64, k, j0, lo, hi int) {
	kk := k - j0
	adj, w, ends, i := g.adj, g.w[:len(g.adj)], g.off[lo+1:hi+1], uint(g.off[lo])
	for row, e := range ends {
		b := (lo+row)*k + j0
		xv := x[b : b+kk : b+kk]
		var acc [3]float64
		for end := kernel.RowEnd(e, adj); i < end; i++ {
			wi := w[i]
			xu := x[int(uint32(adj[i]))*k+j0:]
			for j, xvj := range xv {
				acc[j] += wi * (xvj - xu[j])
			}
		}
		for j, t := range acc[:kk] {
			if r != nil {
				t = r[b+j] - t
				if dInv != nil {
					t = xv[j] + omega*t*dInv[lo+row]
				}
			}
			dst[b+j] = t
		}
	}
}
