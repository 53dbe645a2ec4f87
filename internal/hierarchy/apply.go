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
		l.restrict(r, rq, k)
		h.applyLevel(level+1, xq, rq, k, w)
		l.steinerSum(dst, r, xq, k)
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
	l.jacobiFromZero(x, r, omega, k)
	l.g.LapMulBlockResidual(dst, r, x, k)
	l.restrict(dst, rq, k)
	h.applyLevel(level+1, xq, rq, k, w)
	if l.visits == 2 {
		rq2 := growBuf(&w.rq2[level], l.count*k)
		xq2 := growBuf(&w.xq2[level], l.count*k)
		h.levels[level+1].g.LapMulBlockResidual(rq2, rq, xq, k)
		h.applyLevel(level+1, xq2, rq2, k, w)
		par.For(len(xq), elemGrain, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				xq[i] += xq2[i]
			}
		})
	}
	l.prolongAdd(x, xq, k)
	l.g.LapJacobiStepBlock(dst, r, x, l.dInv, omega, k)
}

// The sweeps between the row kernels. A width-1 block is a plain vector and
// gets the plain loop; wider blocks walk packed rows in column tiles — 8 wide,
// then 4, then a 1–3 column tail, like the row kernels of internal/graph. The
// 8- and 4-wide tiles are bodies of internal/kernel (Go or AVX2 assembly, as
// its probe decides), which hold a row's (or a cluster's) values and its
// coefficient in registers and store them once. Per column every tile does
// what its tail, the any-width loop over the column window [j0, k), does in
// the same order, and that is what the width-1 loop does, so neither the width
// of a tile nor that of the block shows in a result (DESIGN §12 "Kernel
// layer").

// elemGrain is the minimum number of floats per chunk of the elementwise
// sweeps; below it par.For degrades to one sequential call.
const elemGrain = 8192

// rowGrain is elemGrain in rows of a width-k block, so a chunk touches
// roughly the same number of floats at every width.
func rowGrain(k int) int {
	g := elemGrain / k
	if g < 512 {
		g = 512
	}
	return g
}

// jacobiFromZero computes x = (ω·r)·D⁻¹: the first damped-Jacobi step, from
// a zero iterate.
func (l *Level) jacobiFromZero(x, r []float64, omega float64, k int) {
	par.For(l.g.N(), rowGrain(k), func(lo, hi int) {
		if k == 1 {
			for v := lo; v < hi; v++ {
				x[v] = omega * r[v] * l.dInv[v]
			}
			return
		}
		l.jacobiFromZeroRange(x, r, omega, k, lo, hi)
	})
}

// jacobiFromZeroRange is jacobiFromZero on rows [lo, hi) of a k > 1 block.
func (l *Level) jacobiFromZeroRange(x, r []float64, omega float64, k, lo, hi int) {
	j := 0
	for ; j+8 <= k; j += 8 {
		kernel.JacobiFromZero(8, x, r, l.dInv, omega, k, j, lo, hi)
	}
	if j+4 <= k {
		kernel.JacobiFromZero(4, x, r, l.dInv, omega, k, j, lo, hi)
		j += 4
	}
	if j < k {
		l.jacobiFromZeroTail(x, r, omega, k, j, lo, hi)
	}
}

func (l *Level) jacobiFromZeroTail(x, r []float64, omega float64, k, j0, lo, hi int) {
	for v := lo; v < hi; v++ {
		d := l.dInv[v]
		rv := r[v*k+j0 : v*k+k : v*k+k]
		xv := x[v*k+j0 : v*k+k : v*k+k]
		for j := range xv {
			xv[j] = omega * rv[j] * d
		}
	}
}

// prolongAdd computes x += α·R·xq: every vertex takes its cluster's
// correction, scaled by the level's alpha.
func (l *Level) prolongAdd(x, xq []float64, k int) {
	alpha := l.alpha
	par.For(l.g.N(), rowGrain(k), func(lo, hi int) {
		if k == 1 {
			for v := lo; v < hi; v++ {
				x[v] += alpha * xq[l.assign[v]]
			}
			return
		}
		l.prolongAddRange(x, xq, alpha, k, lo, hi)
	})
}

// prolongAddRange is prolongAdd on rows [lo, hi) of a k > 1 block.
func (l *Level) prolongAddRange(x, xq []float64, alpha float64, k, lo, hi int) {
	j := 0
	for ; j+8 <= k; j += 8 {
		kernel.ProlongAdd(8, x, xq, alpha, l.assign, k, j, lo, hi)
	}
	if j+4 <= k {
		kernel.ProlongAdd(4, x, xq, alpha, l.assign, k, j, lo, hi)
		j += 4
	}
	if j < k {
		l.prolongAddTail(x, xq, alpha, k, j, lo, hi)
	}
}

func (l *Level) prolongAddTail(x, xq []float64, alpha float64, k, j0, lo, hi int) {
	for v := lo; v < hi; v++ {
		q := xq[int(l.assign[v])*k+j0:]
		xv := x[v*k+j0 : v*k+k : v*k+k]
		for j := range xv {
			xv[j] += alpha * q[j]
		}
	}
}

// steinerSum computes dst = D⁻¹r + R·xq, the unsmoothed two-level identity.
// Only the Steiner recursion (NewSteiner) runs it, so it stays on the
// any-width loop.
func (l *Level) steinerSum(dst, r, xq []float64, k int) {
	par.For(l.g.N(), rowGrain(k), func(lo, hi int) {
		for v := lo; v < hi; v++ {
			dv := l.dInv[v]
			q := xq[int(l.assign[v])*k:]
			rv := r[v*k : v*k+k : v*k+k]
			dstv := dst[v*k : v*k+k : v*k+k]
			for j := range dstv {
				dstv[j] = rv[j]*dv + q[j]
			}
		}
	})
}

// restrict computes rq = Rᵀr per column: each cluster sums its members'
// rows in the fixed cluster-sorted order, so the result does not depend on
// how clusters are chunked across workers.
func (l *Level) restrict(r, rq []float64, k int) {
	grain := 512 / k
	if grain < 8 {
		grain = 8
	}
	par.For(l.count, grain, func(lo, hi int) {
		if k == 1 {
			order := l.order
			i := l.start[lo]
			for c := lo; c < hi; c++ {
				end := l.start[c+1]
				acc := 0.0
				for ; i < end; i++ {
					acc += r[order[i]]
				}
				rq[c] = acc
			}
			return
		}
		l.restrictRange(r, rq, k, lo, hi)
	})
}

// restrictRange is restrict on clusters [lo, hi) of a k > 1 block.
func (l *Level) restrictRange(r, rq []float64, k, lo, hi int) {
	j := 0
	for ; j+8 <= k; j += 8 {
		kernel.Restrict(8, r, rq, l.order, l.start, k, j, lo, hi)
	}
	if j+4 <= k {
		kernel.Restrict(4, r, rq, l.order, l.start, k, j, lo, hi)
		j += 4
	}
	if j < k {
		l.restrictTail(r, rq, k, j, lo, hi)
	}
}

func (l *Level) restrictTail(r, rq []float64, k, j0, lo, hi int) {
	for c := lo; c < hi; c++ {
		acc := rq[c*k+j0 : c*k+k : c*k+k]
		for j := range acc {
			acc[j] = 0
		}
		for i := l.start[c]; i < l.start[c+1]; i++ {
			rv := r[int(l.order[i])*k+j0:]
			for j := range acc {
				acc[j] += rv[j]
			}
		}
	}
}
