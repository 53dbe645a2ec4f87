package graph

import (
	"fmt"

	"hcd/internal/par"
)

// Block (multi-vector) Laplacian matvec: dst = A·X where X packs k column
// vectors row-major — X[v*k+j] is column j's entry at vertex v. One CSR
// traversal serves all k columns: each row's neighbor indices and edge
// weights are loaded once and reused across the k columns, which is the
// memory-hierarchy win that makes block-PCG multi-RHS solves faster than k
// sequential matvecs. The row-major layout keeps the k values of one vertex
// contiguous, so a row's columns are one unit-stride load: the Go tiles below
// keep them in scalar locals (the Go compiler does not vectorize), the
// assembly tiles of laptile_amd64.s in one or two vector registers.
//
// Rows are independent, so the traversal is row-chunked across cores exactly
// like LapMul, and the result is bit-identical at any GOMAXPROCS — and with
// either body of the tiles, which perform the same IEEE operations in the
// same order per column (DESIGN §12 "Column-tile kernels").

// blockAVX2 says whether the 8- and 4-wide tiles run their AVX2 bodies:
// decided once, at init, from the CPU and the build (never under -race or off
// amd64). Only tests write it afterwards, to run the Go tiles on an AVX2 host.
var blockAVX2 = cpuHasAVX2()

// BlockAVX2 reports whether the 8- and 4-wide column tiles of every k > 1
// packed-row kernel run their AVX2 bodies in this process: the block row
// kernels here, and the level-1 sweeps of internal/solver and
// internal/hierarchy, which read it at every call so that one probe decides
// all of them.
func BlockAVX2() bool { return blockAVX2 }

// BlockKernel names the body of the column tiles of every k > 1 packed-row
// kernel — the block row kernels and the level-1 sweeps — in this process:
// "avx2" or "go".
func BlockKernel() string {
	if blockAVX2 {
		return "avx2"
	}
	return "go"
}

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
// it is the scalar LapMulResidual.
func (g *Graph) LapMulBlockResidual(dst, r, x []float64, k int) {
	g.lapMulBlockDispatch(dst, r, x, nil, 0, k)
}

// LapJacobiStepBlock computes one damped-Jacobi sweep for A·X = R out of
// place, k packed columns at once: dst = X + ω·D⁻¹(R − A·X), with dInv the
// caller's inverse diagonal. Per column it is bit-identical to LapMulBlock
// into a temporary followed by x[v] += (ω·dInv[v])·(r[v] − tmp[v]). dst must
// not alias x. For k = 1 it is the scalar LapJacobiStep.
func (g *Graph) LapJacobiStepBlock(dst, r, x, dInv []float64, omega float64, k int) {
	g.lapMulBlockDispatch(dst, r, x, dInv, omega, k)
}

// LapMulBlockGo is LapMulBlock through the Go tiles on one goroutine,
// whatever BlockKernel reports: the reference for equality tests and the
// baseline the assembly tiles are benchmarked against, as LapMulSerial is for
// LapMul.
func (g *Graph) LapMulBlockGo(dst, x []float64, k int) {
	g.checkBlockOperands(dst, nil, x, nil, k)
	g.lapMulBlockRange(false, dst, nil, x, nil, 0, k, 0, g.N())
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
	avx2 := blockAVX2
	if n <= grain || par.Workers() == 1 {
		g.lapMulBlockRange(avx2, dst, r, x, dInv, omega, k, 0, n)
		return
	}
	par.For(n, grain, func(lo, hi int) {
		g.lapMulBlockRange(avx2, dst, r, x, dInv, omega, k, lo, hi)
	})
}

// lapMulBlockRange computes rows [lo, hi) of dst = A·X — or dst = R − A·X
// when r is non-nil, or dst = X + ω·D⁻¹(R − A·X) when dInv is too — in
// fixed-width column tiles: 8-wide, then 4-wide, then a 1–3 column tail. Each
// tile keeps its accumulators in locals, so the neighbor loop runs
// register-to-register — a slice accumulator into dst would force a
// store/reload per neighbor because the compiler cannot prove dst and x do
// not alias. A tile re-reads the row's neighbor indices and weights, but
// those are L1-resident after the first pass; per column the operation order
// (ascending neighbors, then wsum·xv − acc, then the optional subtraction
// from r, then the optional x + (ω·dInv)·residual) is identical across tile
// widths, so results match the untiled form bit for bit.
//
// This is the one place a tile's body is chosen: with avx2 set the 8- and
// 4-wide tiles run in assembly (lapMulBlockTileAVX2), otherwise in Go; the
// tail is Go always.
func (g *Graph) lapMulBlockRange(avx2 bool, dst, r, x, dInv []float64, omega float64, k, lo, hi int) {
	j := 0
	for ; j+8 <= k; j += 8 {
		if avx2 {
			g.lapMulBlockTileAVX2(8, dst, r, x, dInv, omega, k, j, lo, hi)
		} else {
			g.lapMulBlockTile8(dst, r, x, dInv, omega, k, j, lo, hi)
		}
	}
	if j+4 <= k {
		if avx2 {
			g.lapMulBlockTileAVX2(4, dst, r, x, dInv, omega, k, j, lo, hi)
		} else {
			g.lapMulBlockTile4(dst, r, x, dInv, omega, k, j, lo, hi)
		}
		j += 4
	}
	if j < k {
		g.lapMulBlockTail(dst, r, x, dInv, omega, k, j, lo, hi)
	}
}

func (g *Graph) lapMulBlockTile8(dst, r, x, dInv []float64, omega float64, k, j0, lo, hi int) {
	adj, w, ends, i := g.rowSpan(lo, hi)
	for row, e := range ends {
		v := lo + row
		var a0, a1, a2, a3, a4, a5, a6, a7, wsum float64
		for end := rowEnd(e, adj); i < end; i++ {
			wi := w[i]
			wsum += wi
			b := int(uint32(adj[i]))*k + j0
			xu := x[b : b+8 : b+8]
			a0 += wi * xu[0]
			a1 += wi * xu[1]
			a2 += wi * xu[2]
			a3 += wi * xu[3]
			a4 += wi * xu[4]
			a5 += wi * xu[5]
			a6 += wi * xu[6]
			a7 += wi * xu[7]
		}
		b := v*k + j0
		xv := x[b : b+8 : b+8]
		a0 = wsum*xv[0] - a0
		a1 = wsum*xv[1] - a1
		a2 = wsum*xv[2] - a2
		a3 = wsum*xv[3] - a3
		a4 = wsum*xv[4] - a4
		a5 = wsum*xv[5] - a5
		a6 = wsum*xv[6] - a6
		a7 = wsum*xv[7] - a7
		if r != nil {
			rv := r[b : b+8 : b+8]
			a0 = rv[0] - a0
			a1 = rv[1] - a1
			a2 = rv[2] - a2
			a3 = rv[3] - a3
			a4 = rv[4] - a4
			a5 = rv[5] - a5
			a6 = rv[6] - a6
			a7 = rv[7] - a7
			if dInv != nil {
				od := omega * dInv[v]
				a0 = xv[0] + od*a0
				a1 = xv[1] + od*a1
				a2 = xv[2] + od*a2
				a3 = xv[3] + od*a3
				a4 = xv[4] + od*a4
				a5 = xv[5] + od*a5
				a6 = xv[6] + od*a6
				a7 = xv[7] + od*a7
			}
		}
		row := dst[b : b+8 : b+8]
		row[0], row[1], row[2], row[3] = a0, a1, a2, a3
		row[4], row[5], row[6], row[7] = a4, a5, a6, a7
	}
}

func (g *Graph) lapMulBlockTile4(dst, r, x, dInv []float64, omega float64, k, j0, lo, hi int) {
	adj, w, ends, i := g.rowSpan(lo, hi)
	for row, e := range ends {
		v := lo + row
		var a0, a1, a2, a3, wsum float64
		for end := rowEnd(e, adj); i < end; i++ {
			wi := w[i]
			wsum += wi
			b := int(uint32(adj[i]))*k + j0
			xu := x[b : b+4 : b+4]
			a0 += wi * xu[0]
			a1 += wi * xu[1]
			a2 += wi * xu[2]
			a3 += wi * xu[3]
		}
		b := v*k + j0
		xv := x[b : b+4 : b+4]
		a0 = wsum*xv[0] - a0
		a1 = wsum*xv[1] - a1
		a2 = wsum*xv[2] - a2
		a3 = wsum*xv[3] - a3
		if r != nil {
			rv := r[b : b+4 : b+4]
			a0 = rv[0] - a0
			a1 = rv[1] - a1
			a2 = rv[2] - a2
			a3 = rv[3] - a3
			if dInv != nil {
				od := omega * dInv[v]
				a0 = xv[0] + od*a0
				a1 = xv[1] + od*a1
				a2 = xv[2] + od*a2
				a3 = xv[3] + od*a3
			}
		}
		row := dst[b : b+4 : b+4]
		row[0], row[1], row[2], row[3] = a0, a1, a2, a3
	}
}

// lapMulBlockTail handles the final k−j0 ∈ {1, 2, 3} columns.
func (g *Graph) lapMulBlockTail(dst, r, x, dInv []float64, omega float64, k, j0, lo, hi int) {
	kk := k - j0
	adj, w, ends, i := g.rowSpan(lo, hi)
	for row, e := range ends {
		v := lo + row
		var acc [3]float64
		wsum := 0.0
		for end := rowEnd(e, adj); i < end; i++ {
			wi := w[i]
			wsum += wi
			b := int(uint32(adj[i])) * k
			for j := 0; j < kk; j++ {
				acc[j] += wi * x[b+j0+j]
			}
		}
		b := v * k
		for j := 0; j < kk; j++ {
			t := wsum*x[b+j0+j] - acc[j]
			if r != nil {
				t = r[b+j0+j] - t
				if dInv != nil {
					t = x[b+j0+j] + omega*dInv[v]*t
				}
			}
			dst[b+j0+j] = t
		}
	}
}
