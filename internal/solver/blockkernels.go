package solver

import (
	"hcd/internal/kernel"
	"hcd/internal/par"
)

// The level-1 kernels of PCG, over packed row-major [n][k] blocks — entry
// (v, j) lives at x[v*k+j] — so one sweep over the block streams each cache
// line once for all k columns; a single right-hand side is the k = 1 block.
// The hot kernels are *fused*: the update x += α∘p, r −= α∘ap runs in the
// same pass that accumulates the column sums the next step's mean projection
// needs, and the mean shift in the pass that accumulates rᵀz, so one
// iteration reads its vectors six times instead of ten. Every accumulation
// runs in the order of the unfused kernel sequence, so the results are bit
// for bit that sequence's.
//
// Reductions use a fixed chunk partition that depends only on n, never on
// the worker count or the width: per-chunk partials are written into a
// scratch table and combined in chunk order, so every reduction — and
// therefore the whole solve — is bit-identical at any GOMAXPROCS, and each
// column of a block sums exactly as it sums alone.
//
// Every sweep is a value holding its operands, with a Range method that
// par.For runs: the elementwise ones (xpbySweep, packSweep) over rows in
// chunks of kernel.ChunkRows(k), the reductions (rowSweep) over the chunks of
// their partition. On one worker, and below one chunk, par.For runs the value
// on the calling goroutine, so a warm solve allocates nothing.

// kernelGrain is the row count of the reductions' chunks. It is arithmetic,
// not scheduling: a reduction sums its chunks' partials in chunk order, so the
// partition is part of every sum's rounding.
const kernelGrain = 16384

// sweepOp names a reduction sweep of rowSweep.
type sweepOp uint8

const (
	opDots         sweepOp = iota // Σ x·r per column, or Σ x with r nil
	opSubMeanDot                  // x −= coef, then Σ r·x per column
	opUpdateXRSums                // x += coef∘p, r −= coef∘ap, then Σ r per column
)

// rowSweep is one reduction sweep over rows [0, n) of width-k blocks and its
// operands. reduceRows runs it over the chunks of the kernelGrain partition,
// each into its own k-wide slot of partial.
type rowSweep struct {
	op          sweepOp
	x, r, p, ap []float64
	coef        []float64
	n, k        int
	partial     []float64
}

// rows adds rows [lo, hi) of the sweep's column reductions to acc.
func (w rowSweep) rows(lo, hi int, acc []float64) {
	switch w.op {
	case opDots:
		blockDotsRange(w.x, w.r, w.k, lo, hi, acc)
	case opSubMeanDot:
		blockSubMeanDotRange(w.x, w.r, w.coef, w.k, lo, hi, acc)
	case opUpdateXRSums:
		blockUpdateXRSumsRange(w.x, w.r, w.p, w.ap, w.coef, w.k, lo, hi, acc)
	}
}

// Range runs the sweep over chunks [clo, chi) of the kernelGrain partition of
// [0, n), each into its own k-wide slot of partial.
func (w rowSweep) Range(clo, chi int) {
	for c := clo; c < chi; c++ {
		lo := c * kernelGrain
		w.rows(lo, min(lo+kernelGrain, w.n), w.partial[c*w.k:c*w.k+w.k])
	}
}

// reduceRows runs w over the fixed partition of [0, n) into kernelGrain-row
// chunks, each accumulating per-column partials into its own k-wide slot of
// the scratch partial table, then combines the partials in chunk order into
// out. The partition and combination order are functions of n alone, so
// column j of the result is bit for bit the width-1 reduction of column j, at
// any GOMAXPROCS. w may also mutate the block elementwise (the fused sweeps
// do); chunks cover disjoint row ranges, so such writes never race. On one
// worker, and in one chunk, nothing allocates.
func (s *scratch) reduceRows(n, k int, out []float64, w rowSweep) {
	zero(out[:k])
	w.n, w.k = n, k
	chunks := (n + kernelGrain - 1) / kernelGrain
	if chunks <= 1 {
		w.rows(0, n, out)
		return
	}
	w.partial = s.vec(&s.partial, chunks*k)
	zero(w.partial)
	par.For(chunks, 1, w)
	for c := 0; c < chunks; c++ {
		p := w.partial[c*k : c*k+k]
		for j := range p {
			out[j] += p[j]
		}
	}
}

// Column tiles. Every sweep below covers its rows in the column tiles of
// kernel.Tiles — 8 wide, then 4, the schedule of every packed-row sweep — and
// each column no tile takes with its width-1 loop, which walks one column of
// the block at stride k, over the row blocks of kernel.Columns. The width-1
// loops are kept out of line (go:noinline): inlined beside the tiles they
// share the registers with the tiles' state and reload their operands from
// the stack on every row. The tiles are bodies of internal/kernel, which hold
// a row's columns and the coefficients (α, β, the means) in registers and
// store a chunk's partial once, and run in Go or AVX2 assembly as that
// package's probe decides. Per column a tile performs the IEEE operations of
// the width-1 loop in the same order (ascending rows, products and sums as
// written, no fused multiply-add), so the width of a tile never shows in a
// result. At k = 1 the width-1 loop is the whole sweep; run on every column
// it is what the tests compare the tiles to (DESIGN §12 "Kernel layer").

// blockDots computes out[j] = Σ_v a[v·k+j]·b[v·k+j] for each column j.
func (s *scratch) blockDots(a, b []float64, n, k int, out []float64) {
	s.reduceRows(n, k, out, rowSweep{op: opDots, x: a, r: b})
}

// blockDotsRange adds rows [lo, hi) of the column dot products to acc — or,
// with b nil, the column sums.
func blockDotsRange(a, b []float64, k, lo, hi int, acc []float64) {
	j := kernel.Tiles(k, func(width, j int) { kernel.Dots(width, a, b, k, j, lo, hi, acc) })
	kernel.Columns(j, k, lo, hi, func(j, lo, hi int) { acc[j] = dotsCol(a, b, k, j, lo, hi, acc[j]) })
}

// dotsCol returns s + Σ a[v·k+j]·b[v·k+j] over rows [lo, hi) — or, with b
// nil, s + Σ a[v·k+j].
//
//go:noinline
func dotsCol(a, b []float64, k, j, lo, hi int, s float64) float64 {
	end := hi * k
	if b == nil {
		for o := lo*k + j; o < end; o += k {
			s += a[o]
		}
		return s
	}
	for o := lo*k + j; o < end; o += k {
		s += a[o] * b[o]
	}
	return s
}

// blockNormSq computes out[j] = Σ_v x[v·k+j]² (squared column norms): the dot
// product of the block with itself.
func (s *scratch) blockNormSq(x []float64, n, k int, out []float64) {
	s.blockDots(x, x, n, k, out)
}

// blockColSums computes out[j] = Σ_v x[v·k+j] (pass 1 of the block mean
// projection): the dot products with no second operand.
func (s *scratch) blockColSums(x []float64, n, k int, out []float64) {
	s.blockDots(x, nil, n, k, out)
}

// blockSubMeans is pass 2 of the mean projection: it turns the column sums
// in mean into column means, subtracts them from v's columns and accumulates
// out[j] = (projected v_j)ᵀw_j in the same sweep — with w = v, the squared
// column norms.
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
	s.reduceRows(n, k, out, rowSweep{op: opSubMeanDot, x: z, r: r, coef: mean})
}

// blockSubMeanDotRange shifts rows [lo, hi) of z and adds their products with
// r to acc.
func blockSubMeanDotRange(z, r, mean []float64, k, lo, hi int, acc []float64) {
	j := kernel.Tiles(k, func(width, j int) { kernel.SubMeanDot(width, z, r, mean, k, j, lo, hi, acc) })
	kernel.Columns(j, k, lo, hi, func(j, lo, hi int) { acc[j] = subMeanDotCol(z, r, mean[j], k, j, lo, hi, acc[j]) })
}

// subMeanDotCol subtracts m from z's column j over rows [lo, hi) and returns
// s plus the shifted entries' products with r's.
//
//go:noinline
func subMeanDotCol(z, r []float64, m float64, k, j, lo, hi int, s float64) float64 {
	end := hi * k
	for o := lo*k + j; o < end; o += k {
		z[o] -= m
		s += r[o] * z[o]
	}
	return s
}

// blockUpdateXRSums is the fused PCG update: x += α∘p, r −= α∘ap, with the
// new residual's column sums — pass 1 of the next mean projection —
// accumulated in the same sweep.
func (s *scratch) blockUpdateXRSums(x, r, p, ap, alpha []float64, n, k int, sums []float64) {
	s.reduceRows(n, k, sums, rowSweep{op: opUpdateXRSums, x: x, r: r, p: p, ap: ap, coef: alpha})
}

// blockUpdateXRSumsRange updates rows [lo, hi) and adds the new residual rows
// to acc.
func blockUpdateXRSumsRange(x, r, p, ap, alpha []float64, k, lo, hi int, acc []float64) {
	j := kernel.Tiles(k, func(width, j int) { kernel.UpdateXRSums(width, x, r, p, ap, alpha, k, j, lo, hi, acc) })
	kernel.Columns(j, k, lo, hi, func(j, lo, hi int) {
		acc[j] = updateXRSumsCol(x, r, p, ap, alpha[j], k, j, lo, hi, acc[j])
	})
}

// updateXRSumsCol is the update on column j over rows [lo, hi); it returns s
// plus the new residual entries.
//
//go:noinline
func updateXRSumsCol(x, r, p, ap []float64, a float64, k, j, lo, hi int, s float64) float64 {
	end := hi * k
	for o := lo*k + j; o < end; o += k {
		x[o] += a * p[o]
		r[o] -= a * ap[o]
		s += r[o]
	}
	return s
}

// xpbySweep computes p = z + β∘p per column (the direction update).
// Elementwise, so any chunking is bit-identical.
type xpbySweep struct {
	p, z, beta []float64
	k          int
}

func (s xpbySweep) Range(lo, hi int) {
	j := kernel.Tiles(s.k, func(width, j int) { kernel.XPBY(width, s.p, s.z, s.beta, s.k, j, lo, hi) })
	kernel.Columns(j, s.k, lo, hi, func(j, lo, hi int) { xpbyCol(s.p, s.z, s.beta[j], s.k, j, lo, hi) })
}

// xpbyCol is the direction update on column j over rows [lo, hi).
//
//go:noinline
func xpbyCol(p, z []float64, b float64, k, j, lo, hi int) {
	end := hi * k
	for o := lo*k + j; o < end; o += k {
		p[o] = z[o] + b*p[o]
	}
}

// packSweep interleaves k column vectors into the packed row-major block,
// gathering row v from entry perm[v] of each column when perm is not nil.
type packSweep struct {
	bs   [][]float64
	perm []int32
	dst  []float64
	k    int
}

func (s packSweep) Range(lo, hi int) {
	for j, b := range s.bs {
		if s.perm != nil {
			for v, u := range s.perm[lo:hi] {
				s.dst[(lo+v)*s.k+j] = b[u]
			}
			continue
		}
		for v := lo; v < hi; v++ {
			s.dst[v*s.k+j] = b[v]
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
