package hierarchy

import (
	"fmt"

	"hcd/internal/graph"
	"hcd/internal/kernel"
	"hcd/internal/par"
)

// The apply: one traversal of the hierarchy smooths, restricts and
// coarse-solves k residuals at once, packed row-major [n][k] like the
// solver's blocks, so every quotient graph and every level's diagonal stream
// through memory once per cycle instead of once per column. A single residual
// is the k = 1 block. The traversal is written once; what depends on the width
// sits in the leaves it calls — the row kernels of internal/graph, the coarse
// factor's solve, and the sweeps at the bottom of this file — each of which
// picks its loop by the k it is handed.
//
// Work buffers come from the hierarchy's sync.Pool and nothing else is
// written, so concurrent applies on one Hierarchy — the server's solves land
// here through pooled engines — are safe. Every step is row-independent,
// elementwise or a fixed-order segmented sum, so an apply is bit-identical at
// any worker count.

// applyWork holds one in-flight apply's buffers: per-level packed quotient
// vectors and smoothing iterate, and on doubled levels the second coarse
// step's residual and correction.
type applyWork struct {
	rq, xq, tmp [][]float64 // per level, [Count·k] / [n·k]
	rq2, xq2    [][]float64 // per level, [Count·k], visits = 2 only
}

// getWork takes a workspace from the apply pool, sized to the hierarchy's
// depth; the caller puts it back.
func (h *Hierarchy) getWork() *applyWork {
	w, _ := h.workPool.Get().(*applyWork)
	if w == nil {
		w = &applyWork{}
	}
	for len(w.rq) < len(h.levels) {
		w.rq = append(w.rq, nil)
		w.xq = append(w.xq, nil)
		w.tmp = append(w.tmp, nil)
		w.rq2 = append(w.rq2, nil)
		w.xq2 = append(w.xq2, nil)
	}
	return w
}

func growBuf(buf *[]float64, n int) []float64 {
	if cap(*buf) < n {
		*buf = make([]float64, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// Apply computes dst ≈ B⁺·r multilevel-recursively. It is a fixed symmetric
// linear operator, positive definite on the mean-free subspace of every
// component (cycle.go has the argument), hence a valid stationary PCG
// preconditioner. It is ApplyBlock at width 1.
func (h *Hierarchy) Apply(dst, r []float64) { h.ApplyBlock(dst, r, 1) }

// ApplyBlock computes dst ≈ B⁺·r for k packed columns (dst[v*k+j] column j
// at vertex v). It implements the solver's BlockApplier fast path. Safe for
// concurrent use, and bit-identical at any worker count. It panics, before
// anything is written, with an error wrapping graph.ErrInvalidInput unless
// k ≥ 1 and dst and r each hold exactly Dim()·k entries: an over-long operand
// is rejected like a short one, at k = 1 (Apply) too.
func (h *Hierarchy) ApplyBlock(dst, r []float64, k int) {
	n := h.Dim()
	if k < 1 {
		panic(fmt.Errorf("hierarchy: ApplyBlock: width k = %d: %w", k, graph.ErrInvalidInput))
	}
	check := func(name string, have int) {
		if have != n*k {
			panic(fmt.Errorf("hierarchy: ApplyBlock: len(%s) = %d, want n·k = %d (n = %d, k = %d): %w", name, have, n*k, n, k, graph.ErrInvalidInput))
		}
	}
	check("dst", len(dst))
	check("r", len(r))
	w := h.getWork()
	h.applyLevel(0, dst, r, k, w)
	h.workPool.Put(w)
}

func (h *Hierarchy) applyLevel(level int, dst, r []float64, k int, w *applyWork) {
	if level == len(h.levels) {
		h.coarse.SolveBlock(dst, r, k)
		return
	}
	l := h.levels[level]
	n := l.g.N()
	rq := growBuf(&w.rq[level], l.count*k)
	xq := growBuf(&w.xq[level], l.count*k)
	if !l.smoothed {
		// Pure Steiner recursion: dst = D⁻¹r + R·coarse(Rᵀr), the paper's
		// two-level identity, unscaled.
		par.For(l.count, kernel.ChunkRows(k), restrictSweep{r, rq, l.order, l.start, k})
		h.applyLevel(level+1, xq, rq, k, w)
		par.For(n, kernel.ChunkRows(k), steinerSweep{dst, r, xq, l.dInv, l.assign, k})
		return
	}
	// Symmetric cycle (cycle.go): one damped-Jacobi step from zero, coarse
	// correction — one apply of the level below, or two steps of the iteration
	// it preconditions — scaled by the level's alpha, one damped-Jacobi
	// post-step. The residual and the post-step are each one fused pass over
	// the level's rows; the post-step writes dst, which until then holds the
	// residual.
	const omega = jacobiOmega
	x := growBuf(&w.tmp[level], n*k)
	par.For(n, kernel.ChunkRows(k), jacobiSweep{x, r, l.dInv, omega, k})
	l.g.LapMulBlockResidual(dst, r, x, k)
	par.For(l.count, kernel.ChunkRows(k), restrictSweep{dst, rq, l.order, l.start, k})
	h.applyLevel(level+1, xq, rq, k, w)
	if l.visits == 2 {
		rq2 := growBuf(&w.rq2[level], l.count*k)
		xq2 := growBuf(&w.xq2[level], l.count*k)
		h.levels[level+1].g.LapMulBlockResidual(rq2, rq, xq, k)
		h.applyLevel(level+1, xq2, rq2, k, w)
		par.For(len(xq), kernel.ChunkRows(1), addSweep{xq, xq2})
	}
	par.For(n, kernel.ChunkRows(k), prolongSweep{x, xq, l.assign, l.alpha, k})
	l.g.LapJacobiStepBlock(dst, r, x, l.dInv, omega, k)
}

// The sweeps between the row kernels. Each is a value holding its operands,
// which par.For runs over the level's rows (clusters, for restrict) in chunks
// of kernel.ChunkRows(k): on one worker, and below one chunk, on the calling
// goroutine, with nothing allocated, so a warm apply allocates nothing. Their
// Range walks packed rows in the column tiles of kernel.Tiles — 8 wide, then
// 4, like the row kernels of internal/graph — and each column no tile takes
// with its width-1 loop, which walks one column of the block at stride k over
// the row blocks (clusters, for restrict) of kernel.Columns; at k = 1 that
// loop is the whole sweep. The tiles are bodies of internal/kernel (Go or AVX2
// assembly, as its probe decides), which hold a row's (or a cluster's) values
// and its coefficient in registers and store them once. Per column every tile
// does what the width-1 loop does, in the same order, so neither the width of
// a tile nor that of the block shows in a result (DESIGN §12 "Kernel layer").
// The width-1 loops are kept out of line, as the solver's are: inlined beside
// the tiles they reload their operands from the stack on every row.

// addSweep computes xq += xq2, the doubled coarse step's second correction,
// over entries of the flat block (a width-1 block of Count·k rows).
type addSweep struct{ xq, xq2 []float64 }

func (s addSweep) Range(lo, hi int) {
	xq, xq2 := s.xq[lo:hi], s.xq2[lo:hi]
	for i := range xq {
		xq[i] += xq2[i]
	}
}

// jacobiSweep computes x = (ω·r)·D⁻¹: the first damped-Jacobi step, from a
// zero iterate.
type jacobiSweep struct {
	x, r, dInv []float64
	omega      float64
	k          int
}

func (s jacobiSweep) Range(lo, hi int) {
	j := kernel.Tiles(s.k, func(width, j int) { kernel.JacobiFromZero(width, s.x, s.r, s.dInv, s.omega, s.k, j, lo, hi) })
	kernel.Columns(j, s.k, lo, hi, func(j, lo, hi int) { jacobiFromZeroCol(s.x, s.r, s.dInv, s.omega, s.k, j, lo, hi) })
}

// jacobiFromZeroCol is jacobiSweep on column j of rows [lo, hi).
//
//go:noinline
func jacobiFromZeroCol(x, r, dInv []float64, omega float64, k, j, lo, hi int) {
	dInv = dInv[lo:hi]
	for v, o := 0, lo*k+j; v < len(dInv); v, o = v+1, o+k {
		x[o] = omega * r[o] * dInv[v]
	}
}

// prolongSweep computes x += α·R·xq: every vertex takes its cluster's
// correction, scaled by the level's alpha.
type prolongSweep struct {
	x, xq  []float64
	assign []int32
	alpha  float64
	k      int
}

func (s prolongSweep) Range(lo, hi int) {
	j := kernel.Tiles(s.k, func(width, j int) { kernel.ProlongAdd(width, s.x, s.xq, s.alpha, s.assign, s.k, j, lo, hi) })
	kernel.Columns(j, s.k, lo, hi, func(j, lo, hi int) { prolongAddCol(s.x, s.xq, s.assign, s.alpha, s.k, j, lo, hi) })
}

// prolongAddCol is prolongSweep on column j of rows [lo, hi).
//
//go:noinline
func prolongAddCol(x, xq []float64, assign []int32, alpha float64, k, j, lo, hi int) {
	xq, o := xq[j:], lo*k+j
	for _, c := range assign[lo:hi] {
		x[o] += alpha * xq[int(c)*k]
		o += k
	}
}

// steinerSweep computes dst = D⁻¹r + R·xq, the unsmoothed two-level identity.
// Only the Steiner recursion (NewSteiner) runs it, so it stays one loop over
// whole rows.
type steinerSweep struct {
	dst, r, xq, dInv []float64
	assign           []int32
	k                int
}

func (s steinerSweep) Range(lo, hi int) {
	k := s.k
	for v := lo; v < hi; v++ {
		dv := s.dInv[v]
		q := s.xq[int(s.assign[v])*k:]
		rv := s.r[v*k : v*k+k : v*k+k]
		dstv := s.dst[v*k : v*k+k : v*k+k]
		for j := range dstv {
			dstv[j] = rv[j]*dv + q[j]
		}
	}
}

// restrictSweep computes rq = Rᵀr per column: each cluster sums its members'
// rows in the fixed cluster-sorted order, so the result does not depend on
// how clusters are chunked across workers.
type restrictSweep struct {
	r, rq        []float64
	order, start []int32
	k            int
}

func (s restrictSweep) Range(lo, hi int) {
	j := kernel.Tiles(s.k, func(width, j int) { kernel.Restrict(width, s.r, s.rq, s.order, s.start, s.k, j, lo, hi) })
	kernel.Columns(j, s.k, lo, hi, func(j, lo, hi int) { restrictCol(s.r, s.rq, s.order, s.start, s.k, j, lo, hi) })
}

// restrictCol is restrictSweep on column j of clusters [lo, hi). Like the
// other width-1 loops it takes the level's tables as operands: reading them
// through the *Level, the loop reloaded it from the stack on every member.
//
//go:noinline
func restrictCol(r, rq []float64, order, start []int32, k, j, lo, hi int) {
	r, i, o := r[j:], start[lo], lo*k+j
	for _, end := range start[lo+1 : hi+1] {
		acc := 0.0
		for ; i < end; i++ {
			acc += r[int(order[i])*k]
		}
		rq[o] = acc
		o += k
	}
}
