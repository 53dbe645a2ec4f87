package solver

import (
	"hcd/internal/graph"
	"hcd/internal/par"
)

// Block (multi-RHS) level-1 kernels. All of them operate on packed row-major
// [n][k] blocks — entry (v, j) lives at x[v*k+j] — so one sweep over the
// block streams each cache line once for all k columns, where the vector
// kernels would stream the vectors k separate times. The hot kernels are
// *fused*: the PCG update x += α∘p, r −= α∘ap runs in the same pass that
// accumulates the column sums (or squared norms) the next step needs,
// cutting the per-iteration memory passes roughly in half versus running the
// unfused kernel sequence per column.
//
// Reductions use a fixed chunk partition that depends only on (n, k), never
// on the worker count: per-chunk partials are written into a scratch table
// and combined in chunk order, so every reduction — and therefore the whole
// solve — is bit-identical at any GOMAXPROCS.
//
// A width-1 block is a plain vector: each kernel hands it to the vector
// kernel of kernels.go that does the same arithmetic over the same partition
// (blockGrain(1) = kernelGrain) without the per-row slicing.

// blockGrain returns the per-chunk row count for width-k block kernels: the
// scalar kernel grain scaled down by the block width so a chunk touches
// roughly the same number of floats, floored to bound scheduling overhead.
// It must depend only on k — the reduction chunk layout derives from it.
func blockGrain(k int) int {
	g := kernelGrain / k
	if g < 512 {
		g = 512
	}
	return g
}

// reduceRows runs fn over a fixed partition of [0, n) into blockGrain(k)-row
// chunks, each accumulating per-column partials into its own k-wide slot of
// the scratch partial table, then combines the partials in chunk order. The
// partition and combination order are functions of (n, k) alone, so the
// result is bit-identical at any GOMAXPROCS. fn may also mutate the block
// elementwise (the fused kernels do); chunks cover disjoint row ranges, so
// such writes never race.
func (s *scratch) reduceRows(n, k int, out []float64, fn func(lo, hi int, acc []float64)) {
	for j := 0; j < k; j++ {
		out[j] = 0
	}
	grain := blockGrain(k)
	chunks := (n + grain - 1) / grain
	if chunks <= 1 {
		fn(0, n, out)
		return
	}
	partial := s.vec(&s.partial, chunks*k)
	zero(partial)
	run := func(clo, chi int) {
		for c := clo; c < chi; c++ {
			lo := c * grain
			hi := lo + grain
			if hi > n {
				hi = n
			}
			fn(lo, hi, partial[c*k:c*k+k])
		}
	}
	if par.Workers() == 1 {
		// Same chunk partition as the parallel path: still one fn call per
		// chunk, so the partial sums round identically.
		run(0, chunks)
	} else {
		par.For(chunks, 1, run)
	}
	for c := 0; c < chunks; c++ {
		p := partial[c*k : c*k+k]
		for j := 0; j < k; j++ {
			out[j] += p[j]
		}
	}
}

// Column tiles. Every k > 1 sweep below covers its rows in fixed-width column
// tiles — 8 wide, then 4, then a 1–3 column tail — the shape of
// graph.lapMulBlockRange and sparse.LapFactor.SolveBlock. A tile holds its
// per-column accumulators and coefficients (α, β, the means) in locals and
// reaches a row through a full-slice expression, so its loop runs
// register-to-register and a chunk's partial is stored once, at the end:
// accumulating through the acc slice costs a load, a store and a bounds check
// per element, because the compiler must assume acc aliases the block. Per
// column a tile performs the IEEE operations of the any-width loop in the same
// order (ascending rows within the chunk, products and sums as written, no
// fused multiply-add), so the width of a tile never shows in a result. The
// any-width loop over the column window [j0, k) is each kernel's tail; from
// j0 = 0 it is the whole kernel, which is what the tests compare the tiles to
// (DESIGN §12 "Column-tile sweeps").
//
// The 8- and 4-wide tiles have a second body, in AVX2 assembly
// (sweeps_amd64.s), which performs the same operations per column with a row's
// columns in one or two vector registers. Each …Range function is the one
// place a tile's body is chosen, by its avx2 argument, as in
// graph.lapMulBlockRange; the entry points pass graph.BlockAVX2(), so the
// sweeps run the assembly exactly when the block row kernels do (DESIGN §12
// "Sweep tiles"). The tails are Go always.

// blockDots computes out[j] = Σ_v a[v·k+j]·b[v·k+j] for each column j.
func (s *scratch) blockDots(a, b []float64, n, k int, out []float64) {
	if k == 1 {
		out[0] = dot(a[:n], b[:n])
		return
	}
	avx2 := graph.BlockAVX2()
	s.reduceRows(n, k, out, func(lo, hi int, acc []float64) {
		blockDotsRange(avx2, a, b, k, lo, hi, acc)
	})
}

// blockDotsRange adds rows [lo, hi) of the column dot products to acc.
func blockDotsRange(avx2 bool, a, b []float64, k, lo, hi int, acc []float64) {
	j := 0
	for ; j+8 <= k; j += 8 {
		if avx2 {
			dotsAVX2(8, a, b, k, j, lo, hi, acc)
		} else {
			blockDotsTile8(a, b, k, j, lo, hi, acc)
		}
	}
	if j+4 <= k {
		if avx2 {
			dotsAVX2(4, a, b, k, j, lo, hi, acc)
		} else {
			blockDotsTile4(a, b, k, j, lo, hi, acc)
		}
		j += 4
	}
	if j < k {
		blockDotsTail(a, b, k, j, lo, hi, acc)
	}
}

func blockDotsTile8(a, b []float64, k, j0, lo, hi int, acc []float64) {
	acc = acc[j0 : j0+8 : j0+8]
	s0, s1, s2, s3, s4, s5, s6, s7 := acc[0], acc[1], acc[2], acc[3], acc[4], acc[5], acc[6], acc[7]
	for o := lo*k + j0; o < hi*k; o += k {
		av := a[o : o+8 : o+8]
		bv := b[o : o+8 : o+8]
		s0 += av[0] * bv[0]
		s1 += av[1] * bv[1]
		s2 += av[2] * bv[2]
		s3 += av[3] * bv[3]
		s4 += av[4] * bv[4]
		s5 += av[5] * bv[5]
		s6 += av[6] * bv[6]
		s7 += av[7] * bv[7]
	}
	acc[0], acc[1], acc[2], acc[3], acc[4], acc[5], acc[6], acc[7] = s0, s1, s2, s3, s4, s5, s6, s7
}

func blockDotsTile4(a, b []float64, k, j0, lo, hi int, acc []float64) {
	acc = acc[j0 : j0+4 : j0+4]
	s0, s1, s2, s3 := acc[0], acc[1], acc[2], acc[3]
	for o := lo*k + j0; o < hi*k; o += k {
		av := a[o : o+4 : o+4]
		bv := b[o : o+4 : o+4]
		s0 += av[0] * bv[0]
		s1 += av[1] * bv[1]
		s2 += av[2] * bv[2]
		s3 += av[3] * bv[3]
	}
	acc[0], acc[1], acc[2], acc[3] = s0, s1, s2, s3
}

func blockDotsTail(a, b []float64, k, j0, lo, hi int, acc []float64) {
	acc = acc[j0:k]
	for v := lo; v < hi; v++ {
		av := a[v*k+j0 : v*k+k : v*k+k]
		bv := b[v*k+j0 : v*k+k : v*k+k]
		for j := range av {
			acc[j] += av[j] * bv[j]
		}
	}
}

// blockNormSq computes out[j] = Σ_v x[v·k+j]² (squared column norms): the dot
// product of the block with itself.
func (s *scratch) blockNormSq(x []float64, n, k int, out []float64) {
	s.blockDots(x, x, n, k, out)
}

// blockColSums computes out[j] = Σ_v x[v·k+j] (pass 1 of the block mean
// projection).
func (s *scratch) blockColSums(x []float64, n, k int, out []float64) {
	if k == 1 {
		out[0] = sum(x[:n])
		return
	}
	avx2 := graph.BlockAVX2()
	s.reduceRows(n, k, out, func(lo, hi int, acc []float64) {
		blockColSumsRange(avx2, x, k, lo, hi, acc)
	})
}

// blockColSumsRange adds rows [lo, hi) of the column sums to acc. The
// assembly body is the dot products' with no second operand.
func blockColSumsRange(avx2 bool, x []float64, k, lo, hi int, acc []float64) {
	j := 0
	for ; j+8 <= k; j += 8 {
		if avx2 {
			dotsAVX2(8, x, nil, k, j, lo, hi, acc)
		} else {
			blockColSumsTile8(x, k, j, lo, hi, acc)
		}
	}
	if j+4 <= k {
		if avx2 {
			dotsAVX2(4, x, nil, k, j, lo, hi, acc)
		} else {
			blockColSumsTile4(x, k, j, lo, hi, acc)
		}
		j += 4
	}
	if j < k {
		blockColSumsTail(x, k, j, lo, hi, acc)
	}
}

func blockColSumsTile8(x []float64, k, j0, lo, hi int, acc []float64) {
	acc = acc[j0 : j0+8 : j0+8]
	s0, s1, s2, s3, s4, s5, s6, s7 := acc[0], acc[1], acc[2], acc[3], acc[4], acc[5], acc[6], acc[7]
	for o := lo*k + j0; o < hi*k; o += k {
		xv := x[o : o+8 : o+8]
		s0 += xv[0]
		s1 += xv[1]
		s2 += xv[2]
		s3 += xv[3]
		s4 += xv[4]
		s5 += xv[5]
		s6 += xv[6]
		s7 += xv[7]
	}
	acc[0], acc[1], acc[2], acc[3], acc[4], acc[5], acc[6], acc[7] = s0, s1, s2, s3, s4, s5, s6, s7
}

func blockColSumsTile4(x []float64, k, j0, lo, hi int, acc []float64) {
	acc = acc[j0 : j0+4 : j0+4]
	s0, s1, s2, s3 := acc[0], acc[1], acc[2], acc[3]
	for o := lo*k + j0; o < hi*k; o += k {
		xv := x[o : o+4 : o+4]
		s0 += xv[0]
		s1 += xv[1]
		s2 += xv[2]
		s3 += xv[3]
	}
	acc[0], acc[1], acc[2], acc[3] = s0, s1, s2, s3
}

func blockColSumsTail(x []float64, k, j0, lo, hi int, acc []float64) {
	acc = acc[j0:k]
	for v := lo; v < hi; v++ {
		xv := x[v*k+j0 : v*k+k : v*k+k]
		for j := range xv {
			acc[j] += xv[j]
		}
	}
}

// blockSubMeanNormSq subtracts mean[j] from column j and accumulates the new
// squared column norms in the same sweep (fused pass 2 of the projection): the
// shifted block's product with itself, as shiftDot serves both at width 1.
func (s *scratch) blockSubMeanNormSq(x []float64, n, k int, mean, out []float64) {
	s.blockSubMeanDot(x, x, n, k, mean, out)
}

// blockSubMeanDot subtracts mean[j] from z's column j and accumulates the
// preconditioned inner product out[j] = rᵀz in the same sweep (the fused
// z-projection + rᵀz step). r may be z itself: every body stores the shifted
// entry before it loads r's, so the product then is the shifted entry's square.
func (s *scratch) blockSubMeanDot(z, r []float64, n, k int, mean, out []float64) {
	if k == 1 {
		out[0] = shiftDot(z[:n], mean[0], r[:n])
		return
	}
	avx2 := graph.BlockAVX2()
	s.reduceRows(n, k, out, func(lo, hi int, acc []float64) {
		blockSubMeanDotRange(avx2, z, r, mean, k, lo, hi, acc)
	})
}

// blockSubMeanDotRange shifts rows [lo, hi) of z and adds their products with
// r to acc.
func blockSubMeanDotRange(avx2 bool, z, r, mean []float64, k, lo, hi int, acc []float64) {
	j := 0
	for ; j+8 <= k; j += 8 {
		if avx2 {
			subMeanDotAVX2(8, z, r, mean, k, j, lo, hi, acc)
		} else {
			blockSubMeanDotTile8(z, r, mean, k, j, lo, hi, acc)
		}
	}
	if j+4 <= k {
		if avx2 {
			subMeanDotAVX2(4, z, r, mean, k, j, lo, hi, acc)
		} else {
			blockSubMeanDotTile4(z, r, mean, k, j, lo, hi, acc)
		}
		j += 4
	}
	if j < k {
		blockSubMeanDotTail(z, r, mean, k, j, lo, hi, acc)
	}
}

func blockSubMeanDotTile8(z, r, mean []float64, k, j0, lo, hi int, acc []float64) {
	acc = acc[j0 : j0+8 : j0+8]
	mean = mean[j0 : j0+8 : j0+8]
	s0, s1, s2, s3, s4, s5, s6, s7 := acc[0], acc[1], acc[2], acc[3], acc[4], acc[5], acc[6], acc[7]
	m0, m1, m2, m3, m4, m5, m6, m7 := mean[0], mean[1], mean[2], mean[3], mean[4], mean[5], mean[6], mean[7]
	for o := lo*k + j0; o < hi*k; o += k {
		zv := z[o : o+8 : o+8]
		rv := r[o : o+8 : o+8]
		z0 := zv[0] - m0
		zv[0] = z0
		s0 += rv[0] * z0
		z1 := zv[1] - m1
		zv[1] = z1
		s1 += rv[1] * z1
		z2 := zv[2] - m2
		zv[2] = z2
		s2 += rv[2] * z2
		z3 := zv[3] - m3
		zv[3] = z3
		s3 += rv[3] * z3
		z4 := zv[4] - m4
		zv[4] = z4
		s4 += rv[4] * z4
		z5 := zv[5] - m5
		zv[5] = z5
		s5 += rv[5] * z5
		z6 := zv[6] - m6
		zv[6] = z6
		s6 += rv[6] * z6
		z7 := zv[7] - m7
		zv[7] = z7
		s7 += rv[7] * z7
	}
	acc[0], acc[1], acc[2], acc[3], acc[4], acc[5], acc[6], acc[7] = s0, s1, s2, s3, s4, s5, s6, s7
}

func blockSubMeanDotTile4(z, r, mean []float64, k, j0, lo, hi int, acc []float64) {
	acc = acc[j0 : j0+4 : j0+4]
	mean = mean[j0 : j0+4 : j0+4]
	s0, s1, s2, s3 := acc[0], acc[1], acc[2], acc[3]
	m0, m1, m2, m3 := mean[0], mean[1], mean[2], mean[3]
	for o := lo*k + j0; o < hi*k; o += k {
		zv := z[o : o+4 : o+4]
		rv := r[o : o+4 : o+4]
		z0 := zv[0] - m0
		zv[0] = z0
		s0 += rv[0] * z0
		z1 := zv[1] - m1
		zv[1] = z1
		s1 += rv[1] * z1
		z2 := zv[2] - m2
		zv[2] = z2
		s2 += rv[2] * z2
		z3 := zv[3] - m3
		zv[3] = z3
		s3 += rv[3] * z3
	}
	acc[0], acc[1], acc[2], acc[3] = s0, s1, s2, s3
}

func blockSubMeanDotTail(z, r, mean []float64, k, j0, lo, hi int, acc []float64) {
	acc, mean = acc[j0:k], mean[j0:k]
	for v := lo; v < hi; v++ {
		zv := z[v*k+j0 : v*k+k : v*k+k]
		rv := r[v*k+j0 : v*k+k : v*k+k]
		for j := range zv {
			zv[j] -= mean[j]
			acc[j] += rv[j] * zv[j]
		}
	}
}

// blockUpdateXRSums is the fused PCG update for projected (singular) systems:
// x += α∘p, r −= α∘ap, with the new residual's column sums — pass 1 of the
// next mean projection — accumulated in the same sweep.
func (s *scratch) blockUpdateXRSums(x, r, p, ap, alpha []float64, n, k int, sums []float64) {
	if k == 1 {
		sums[0] = updateXR(x[:n], r[:n], alpha[0], p[:n], ap[:n])
		return
	}
	avx2 := graph.BlockAVX2()
	s.reduceRows(n, k, sums, func(lo, hi int, acc []float64) {
		blockUpdateXRSumsRange(avx2, x, r, p, ap, alpha, k, lo, hi, acc)
	})
}

// blockUpdateXRSumsRange updates rows [lo, hi) and adds the new residual rows
// to acc.
func blockUpdateXRSumsRange(avx2 bool, x, r, p, ap, alpha []float64, k, lo, hi int, acc []float64) {
	j := 0
	for ; j+8 <= k; j += 8 {
		if avx2 {
			updateXRSumsAVX2(8, x, r, p, ap, alpha, k, j, lo, hi, acc)
		} else {
			blockUpdateXRSumsTile8(x, r, p, ap, alpha, k, j, lo, hi, acc)
		}
	}
	if j+4 <= k {
		if avx2 {
			updateXRSumsAVX2(4, x, r, p, ap, alpha, k, j, lo, hi, acc)
		} else {
			blockUpdateXRSumsTile4(x, r, p, ap, alpha, k, j, lo, hi, acc)
		}
		j += 4
	}
	if j < k {
		blockUpdateXRSumsTail(x, r, p, ap, alpha, k, j, lo, hi, acc)
	}
}

func blockUpdateXRSumsTile8(x, r, p, ap, alpha []float64, k, j0, lo, hi int, acc []float64) {
	acc = acc[j0 : j0+8 : j0+8]
	alpha = alpha[j0 : j0+8 : j0+8]
	s0, s1, s2, s3, s4, s5, s6, s7 := acc[0], acc[1], acc[2], acc[3], acc[4], acc[5], acc[6], acc[7]
	a0, a1, a2, a3, a4, a5, a6, a7 := alpha[0], alpha[1], alpha[2], alpha[3], alpha[4], alpha[5], alpha[6], alpha[7]
	for o := lo*k + j0; o < hi*k; o += k {
		xv := x[o : o+8 : o+8]
		rv := r[o : o+8 : o+8]
		pv := p[o : o+8 : o+8]
		av := ap[o : o+8 : o+8]
		xv[0] += a0 * pv[0]
		r0 := rv[0] - a0*av[0]
		rv[0] = r0
		s0 += r0
		xv[1] += a1 * pv[1]
		r1 := rv[1] - a1*av[1]
		rv[1] = r1
		s1 += r1
		xv[2] += a2 * pv[2]
		r2 := rv[2] - a2*av[2]
		rv[2] = r2
		s2 += r2
		xv[3] += a3 * pv[3]
		r3 := rv[3] - a3*av[3]
		rv[3] = r3
		s3 += r3
		xv[4] += a4 * pv[4]
		r4 := rv[4] - a4*av[4]
		rv[4] = r4
		s4 += r4
		xv[5] += a5 * pv[5]
		r5 := rv[5] - a5*av[5]
		rv[5] = r5
		s5 += r5
		xv[6] += a6 * pv[6]
		r6 := rv[6] - a6*av[6]
		rv[6] = r6
		s6 += r6
		xv[7] += a7 * pv[7]
		r7 := rv[7] - a7*av[7]
		rv[7] = r7
		s7 += r7
	}
	acc[0], acc[1], acc[2], acc[3], acc[4], acc[5], acc[6], acc[7] = s0, s1, s2, s3, s4, s5, s6, s7
}

func blockUpdateXRSumsTile4(x, r, p, ap, alpha []float64, k, j0, lo, hi int, acc []float64) {
	acc = acc[j0 : j0+4 : j0+4]
	alpha = alpha[j0 : j0+4 : j0+4]
	s0, s1, s2, s3 := acc[0], acc[1], acc[2], acc[3]
	a0, a1, a2, a3 := alpha[0], alpha[1], alpha[2], alpha[3]
	for o := lo*k + j0; o < hi*k; o += k {
		xv := x[o : o+4 : o+4]
		rv := r[o : o+4 : o+4]
		pv := p[o : o+4 : o+4]
		av := ap[o : o+4 : o+4]
		xv[0] += a0 * pv[0]
		r0 := rv[0] - a0*av[0]
		rv[0] = r0
		s0 += r0
		xv[1] += a1 * pv[1]
		r1 := rv[1] - a1*av[1]
		rv[1] = r1
		s1 += r1
		xv[2] += a2 * pv[2]
		r2 := rv[2] - a2*av[2]
		rv[2] = r2
		s2 += r2
		xv[3] += a3 * pv[3]
		r3 := rv[3] - a3*av[3]
		rv[3] = r3
		s3 += r3
	}
	acc[0], acc[1], acc[2], acc[3] = s0, s1, s2, s3
}

func blockUpdateXRSumsTail(x, r, p, ap, alpha []float64, k, j0, lo, hi int, acc []float64) {
	acc, alpha = acc[j0:k], alpha[j0:k]
	for v := lo; v < hi; v++ {
		xv := x[v*k+j0 : v*k+k : v*k+k]
		rv := r[v*k+j0 : v*k+k : v*k+k]
		pv := p[v*k+j0 : v*k+k : v*k+k]
		av := ap[v*k+j0 : v*k+k : v*k+k]
		for j := range xv {
			a := alpha[j]
			xv[j] += a * pv[j]
			rv[j] -= a * av[j]
			acc[j] += rv[j]
		}
	}
}

// blockUpdateXRNormSq is the fused PCG update for non-projected systems:
// x += α∘p, r −= α∘ap, accumulating the new squared residual norms directly.
// It stays on the any-width loop: no measured workload solves k > 1
// non-projected systems.
func (s *scratch) blockUpdateXRNormSq(x, r, p, ap, alpha []float64, n, k int, out []float64) {
	if k == 1 {
		updateXR(x[:n], r[:n], alpha[0], p[:n], ap[:n])
		out[0] = dot(r[:n], r[:n])
		return
	}
	s.reduceRows(n, k, out, func(lo, hi int, acc []float64) {
		for v := lo; v < hi; v++ {
			xv := x[v*k : v*k+k : v*k+k]
			rv := r[v*k : v*k+k : v*k+k]
			pv := p[v*k : v*k+k : v*k+k]
			av := ap[v*k : v*k+k : v*k+k]
			for j := range xv {
				a := alpha[j]
				xv[j] += a * pv[j]
				rv[j] -= a * av[j]
				acc[j] += rv[j] * rv[j]
			}
		}
	})
}

// blockXPBY computes p = z + β∘p per column (the direction update).
// Elementwise, so any chunking is bit-identical; uses par.For directly.
func blockXPBY(p, z, beta []float64, n, k int) {
	if k == 1 {
		xpby(p[:n], z[:n], beta[0])
		return
	}
	grain, avx2 := blockGrain(k), graph.BlockAVX2()
	if n <= grain || par.Workers() == 1 {
		blockXPBYRange(avx2, p, z, beta, k, 0, n)
		return
	}
	par.For(n, grain, func(lo, hi int) {
		blockXPBYRange(avx2, p, z, beta, k, lo, hi)
	})
}

// blockXPBYRange is blockXPBY on rows [lo, hi) of a k > 1 block.
func blockXPBYRange(avx2 bool, p, z, beta []float64, k, lo, hi int) {
	j := 0
	for ; j+8 <= k; j += 8 {
		if avx2 {
			xpbyAVX2(8, p, z, beta, k, j, lo, hi)
		} else {
			blockXPBYTile8(p, z, beta, k, j, lo, hi)
		}
	}
	if j+4 <= k {
		if avx2 {
			xpbyAVX2(4, p, z, beta, k, j, lo, hi)
		} else {
			blockXPBYTile4(p, z, beta, k, j, lo, hi)
		}
		j += 4
	}
	if j < k {
		blockXPBYTail(p, z, beta, k, j, lo, hi)
	}
}

func blockXPBYTile8(p, z, beta []float64, k, j0, lo, hi int) {
	beta = beta[j0 : j0+8 : j0+8]
	b0, b1, b2, b3, b4, b5, b6, b7 := beta[0], beta[1], beta[2], beta[3], beta[4], beta[5], beta[6], beta[7]
	for o := lo*k + j0; o < hi*k; o += k {
		pv := p[o : o+8 : o+8]
		zv := z[o : o+8 : o+8]
		pv[0] = zv[0] + b0*pv[0]
		pv[1] = zv[1] + b1*pv[1]
		pv[2] = zv[2] + b2*pv[2]
		pv[3] = zv[3] + b3*pv[3]
		pv[4] = zv[4] + b4*pv[4]
		pv[5] = zv[5] + b5*pv[5]
		pv[6] = zv[6] + b6*pv[6]
		pv[7] = zv[7] + b7*pv[7]
	}
}

func blockXPBYTile4(p, z, beta []float64, k, j0, lo, hi int) {
	beta = beta[j0 : j0+4 : j0+4]
	b0, b1, b2, b3 := beta[0], beta[1], beta[2], beta[3]
	for o := lo*k + j0; o < hi*k; o += k {
		pv := p[o : o+4 : o+4]
		zv := z[o : o+4 : o+4]
		pv[0] = zv[0] + b0*pv[0]
		pv[1] = zv[1] + b1*pv[1]
		pv[2] = zv[2] + b2*pv[2]
		pv[3] = zv[3] + b3*pv[3]
	}
}

func blockXPBYTail(p, z, beta []float64, k, j0, lo, hi int) {
	beta = beta[j0:k]
	for v := lo; v < hi; v++ {
		pv := p[v*k+j0 : v*k+k : v*k+k]
		zv := z[v*k+j0 : v*k+k : v*k+k]
		for j := range pv {
			pv[j] = zv[j] + beta[j]*pv[j]
		}
	}
}

// packColumns interleaves k column vectors into the packed row-major block.
func packColumns(bs [][]float64, dst []float64, n, k int) {
	grain := blockGrain(k)
	if n <= grain || par.Workers() == 1 {
		packRange(bs, dst, k, 0, n)
		return
	}
	par.For(n, grain, func(lo, hi int) { packRange(bs, dst, k, lo, hi) })
}

func packRange(bs [][]float64, dst []float64, k, lo, hi int) {
	for j, b := range bs {
		for v := lo; v < hi; v++ {
			dst[v*k+j] = b[v]
		}
	}
}

// compactPacked left-compacts the packed width-kA block to the kept column
// positions (ascending). In place and serial: for ascending rows and
// positions every write lands at or below the index it read from, and
// deflation runs at most k times per solve, so this is never hot.
func compactPacked(buf []float64, n, kA int, keep []int) {
	newK := len(keep)
	for v := 0; v < n; v++ {
		src := buf[v*kA : v*kA+kA]
		dst := buf[v*newK : v*newK+newK]
		for idx, pos := range keep {
			dst[idx] = src[pos]
		}
	}
}
