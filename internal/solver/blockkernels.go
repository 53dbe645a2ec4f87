package solver

import (
	"hcd/internal/kernel"
	"hcd/internal/par"
)

// Block (multi-RHS) level-1 kernels. All of them operate on packed row-major
// [n][k] blocks — entry (v, j) lives at x[v*k+j] — so one sweep over the
// block streams each cache line once for all k columns, where the vector
// kernels would stream the vectors k separate times. The hot kernels are
// *fused*: the PCG update x += α∘p, r −= α∘ap runs in the same pass that
// accumulates the column sums the next step's mean projection needs,
// cutting the per-iteration memory passes roughly in half versus running the
// unfused kernel sequence per column.
//
// Reductions use a fixed chunk partition that depends only on n, never on
// the worker count or the width: per-chunk partials are written into a
// scratch table and combined in chunk order, so every reduction — and
// therefore the whole solve — is bit-identical at any GOMAXPROCS, and each
// column sums exactly as the vector kernels sum it alone.
//
// A width-1 block is a plain vector: each kernel hands it to the vector
// kernel of kernels.go that does the same arithmetic over the same partition
// without the per-row slicing.

// blockGrain returns the per-chunk row count for width-k elementwise block
// sweeps: the scalar kernel grain scaled down by the block width so a chunk
// touches roughly the same number of floats, floored to bound scheduling
// overhead. An elementwise sweep rounds the same under any chunking.
func blockGrain(k int) int {
	g := kernelGrain / k
	if g < 512 {
		g = 512
	}
	return g
}

// reduceRows runs fn over the fixed partition of [0, n) into kernelGrain-row
// chunks — the partition of the width-1 reductions — each accumulating
// per-column partials into its own k-wide slot of the scratch partial table,
// then combines the partials in chunk order. The partition and combination
// order are functions of n alone, so column j of the result is bit for bit
// the width-1 reduction of column j, at any GOMAXPROCS. fn may also mutate the
// block elementwise (the fused kernels do); chunks cover disjoint row ranges,
// so such writes never race.
func (s *scratch) reduceRows(n, k int, out []float64, fn func(lo, hi int, acc []float64)) {
	for j := 0; j < k; j++ {
		out[j] = 0
	}
	const grain = kernelGrain
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
// graph.lapMulBlockRange and sparse.LapFactor.SolveBlock. The 8- and 4-wide
// tiles are bodies of internal/kernel, which hold a row's columns and the
// coefficients (α, β, the means) in registers and store a chunk's partial
// once, and run in Go or AVX2 assembly as that package's probe decides. Per
// column a tile performs the IEEE operations of the any-width loop in the same
// order (ascending rows within the chunk, products and sums as written, no
// fused multiply-add), so the width of a tile never shows in a result. The
// any-width loop over the column window [j0, k) is each sweep's tail; from
// j0 = 0 it is the whole sweep, which is what the tests compare the tiles to
// (DESIGN §12 "Kernel layer").

// blockDots computes out[j] = Σ_v a[v·k+j]·b[v·k+j] for each column j.
func (s *scratch) blockDots(a, b []float64, n, k int, out []float64) {
	if k == 1 {
		out[0] = dot(a[:n], b[:n])
		return
	}
	s.reduceRows(n, k, out, func(lo, hi int, acc []float64) {
		blockDotsRange(a, b, k, lo, hi, acc)
	})
}

// blockDotsRange adds rows [lo, hi) of the column dot products to acc — or,
// with b nil, the column sums.
func blockDotsRange(a, b []float64, k, lo, hi int, acc []float64) {
	j := 0
	for ; j+8 <= k; j += 8 {
		kernel.Dots(8, a, b, k, j, lo, hi, acc)
	}
	if j+4 <= k {
		kernel.Dots(4, a, b, k, j, lo, hi, acc)
		j += 4
	}
	if j < k {
		blockDotsTail(a, b, k, j, lo, hi, acc)
	}
}

func blockDotsTail(a, b []float64, k, j0, lo, hi int, acc []float64) {
	acc = acc[j0:k]
	for v := lo; v < hi; v++ {
		av := a[v*k+j0 : v*k+k : v*k+k]
		if b == nil {
			for j := range av {
				acc[j] += av[j]
			}
			continue
		}
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
// projection): the dot products with no second operand.
func (s *scratch) blockColSums(x []float64, n, k int, out []float64) {
	if k == 1 {
		out[0] = sum(x[:n])
		return
	}
	s.reduceRows(n, k, out, func(lo, hi int, acc []float64) {
		blockDotsRange(x, nil, k, lo, hi, acc)
	})
}

// blockSubMeans is pass 2 of the mean projection: it turns the column sums
// in mean into column means, subtracts them from v's columns and accumulates
// out[j] = (projected v_j)ᵀw_j in the same sweep — with w = v, the squared
// column norms, as shiftDot serves both at width 1.
func (s *scratch) blockSubMeans(v, w []float64, n, k int, mean, out []float64) {
	for j := 0; j < k; j++ {
		mean[j] /= float64(n)
	}
	s.blockSubMeanDot(v, w, n, k, mean, out)
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
	s.reduceRows(n, k, out, func(lo, hi int, acc []float64) {
		blockSubMeanDotRange(z, r, mean, k, lo, hi, acc)
	})
}

// blockSubMeanDotRange shifts rows [lo, hi) of z and adds their products with
// r to acc.
func blockSubMeanDotRange(z, r, mean []float64, k, lo, hi int, acc []float64) {
	j := 0
	for ; j+8 <= k; j += 8 {
		kernel.SubMeanDot(8, z, r, mean, k, j, lo, hi, acc)
	}
	if j+4 <= k {
		kernel.SubMeanDot(4, z, r, mean, k, j, lo, hi, acc)
		j += 4
	}
	if j < k {
		blockSubMeanDotTail(z, r, mean, k, j, lo, hi, acc)
	}
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

// blockUpdateXRSums is the fused PCG update: x += α∘p, r −= α∘ap, with the new residual's column sums — pass 1 of the
// next mean projection — accumulated in the same sweep.
func (s *scratch) blockUpdateXRSums(x, r, p, ap, alpha []float64, n, k int, sums []float64) {
	if k == 1 {
		sums[0] = updateXR(x[:n], r[:n], alpha[0], p[:n], ap[:n])
		return
	}
	s.reduceRows(n, k, sums, func(lo, hi int, acc []float64) {
		blockUpdateXRSumsRange(x, r, p, ap, alpha, k, lo, hi, acc)
	})
}

// blockUpdateXRSumsRange updates rows [lo, hi) and adds the new residual rows
// to acc.
func blockUpdateXRSumsRange(x, r, p, ap, alpha []float64, k, lo, hi int, acc []float64) {
	j := 0
	for ; j+8 <= k; j += 8 {
		kernel.UpdateXRSums(8, x, r, p, ap, alpha, k, j, lo, hi, acc)
	}
	if j+4 <= k {
		kernel.UpdateXRSums(4, x, r, p, ap, alpha, k, j, lo, hi, acc)
		j += 4
	}
	if j < k {
		blockUpdateXRSumsTail(x, r, p, ap, alpha, k, j, lo, hi, acc)
	}
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

// blockXPBY computes p = z + β∘p per column (the direction update).
// Elementwise, so any chunking is bit-identical; uses par.For directly.
func blockXPBY(p, z, beta []float64, n, k int) {
	if k == 1 {
		xpby(p[:n], z[:n], beta[0])
		return
	}
	grain := blockGrain(k)
	if n <= grain || par.Workers() == 1 {
		blockXPBYRange(p, z, beta, k, 0, n)
		return
	}
	par.For(n, grain, func(lo, hi int) {
		blockXPBYRange(p, z, beta, k, lo, hi)
	})
}

// blockXPBYRange is blockXPBY on rows [lo, hi) of a k > 1 block.
func blockXPBYRange(p, z, beta []float64, k, lo, hi int) {
	j := 0
	for ; j+8 <= k; j += 8 {
		kernel.XPBY(8, p, z, beta, k, j, lo, hi)
	}
	if j+4 <= k {
		kernel.XPBY(4, p, z, beta, k, j, lo, hi)
		j += 4
	}
	if j < k {
		blockXPBYTail(p, z, beta, k, j, lo, hi)
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

// packColumns interleaves k column vectors into the packed row-major block,
// gathering row v from entry perm[v] of each column when perm is not nil.
func packColumns(bs [][]float64, perm []int32, dst []float64, n, k int) {
	grain := blockGrain(k)
	if n <= grain || par.Workers() == 1 {
		packRange(bs, perm, dst, k, 0, n)
		return
	}
	par.For(n, grain, func(lo, hi int) { packRange(bs, perm, dst, k, lo, hi) })
}

func packRange(bs [][]float64, perm []int32, dst []float64, k, lo, hi int) {
	for j, b := range bs {
		if perm != nil {
			for v, u := range perm[lo:hi] {
				dst[(lo+v)*k+j] = b[u]
			}
			continue
		}
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
