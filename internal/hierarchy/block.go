package hierarchy

import "hcd/internal/par"

// Block (multi-RHS) V-cycle: one traversal of the hierarchy smooths,
// restricts and coarse-solves k residuals at once. The packed row-major
// [n][k] layout matches the block solver's, so every quotient graph and
// every level's diagonal stream through memory once per cycle instead of
// once per column — the same amortization the block Laplacian matvec gets
// from the CSR.
//
// Like the scalar Apply, the block apply draws its work buffers from the
// hierarchy's sync.Pool and shares nothing else that is written: concurrent
// ApplyBlock calls on one Hierarchy — the server's batched solves land here
// through pooled engines — are safe.
//
// Every step is elementwise, a fixed-order segmented sum, or the
// GOMAXPROCS-invariant LapMulBlock, so ApplyBlock is bit-identical at any
// worker count.

// blockWork holds one in-flight block apply's buffers: per-level packed
// quotient and smoothing vectors, and on doubled levels the second coarse
// step's residual and correction.
type blockWork struct {
	rq, xq, tmp, tmp2 [][]float64 // per level, [Count·k] / [n·k]
	rq2, xq2          [][]float64 // per level, [Count·k], visits = 2 only
}

// getWork takes a workspace from the apply pool, sized to the hierarchy's
// depth; the caller puts it back.
func (h *Hierarchy) getWork() *blockWork {
	w, _ := h.bwPool.Get().(*blockWork)
	if w == nil {
		w = &blockWork{}
	}
	for len(w.rq) < len(h.levels) {
		w.rq = append(w.rq, nil)
		w.xq = append(w.xq, nil)
		w.tmp = append(w.tmp, nil)
		w.tmp2 = append(w.tmp2, nil)
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

// blockElemGrain scales the elementwise sweep grain by the block width so a
// chunk touches roughly the same number of floats as the scalar sweeps.
func blockElemGrain(k int) int {
	g := elemGrain / k
	if g < 512 {
		g = 512
	}
	return g
}

// ApplyBlock computes dst ≈ B⁺·r for k packed columns (dst[v*k+j] column j
// at vertex v). It implements the solver's BlockApplier fast path; k = 1
// falls through to the scalar Apply. Safe for concurrent use.
func (h *Hierarchy) ApplyBlock(dst, r []float64, k int) {
	if k == 1 {
		h.Apply(dst, r)
		return
	}
	w := h.getWork()
	h.applyLevelBlock(0, dst, r, k, w)
	h.bwPool.Put(w)
}

func (h *Hierarchy) applyLevelBlock(level int, dst, r []float64, k int, w *blockWork) {
	if level == len(h.levels) {
		// Coarse direct solve, the sparse factor streamed once per column
		// tile.
		h.coarse.SolveBlock(dst, r, k)
		return
	}
	l := h.levels[level]
	n := l.g.N()
	grain := blockElemGrain(k)
	rq := growBuf(&w.rq[level], l.count*k)
	xq := growBuf(&w.xq[level], l.count*k)
	if l.smooth == 0 {
		// Pure Steiner recursion: dst = D⁻¹r + R·coarse(Rᵀr).
		restrictBlock(l, r, k, rq)
		h.applyLevelBlock(level+1, xq, rq, k, w)
		par.For(n, grain, func(lo, hi int) {
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
		return
	}
	// Symmetric V-cycle, exactly the scalar sweep sequence k columns wide.
	const omega = jacobiOmega
	alpha := l.alpha
	x := dst
	tmp := growBuf(&w.tmp[level], n*k)
	tmp2 := growBuf(&w.tmp2[level], n*k)
	par.For(n, grain, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			od := omega * l.dInv[v]
			rv := r[v*k : v*k+k : v*k+k]
			xv := x[v*k : v*k+k : v*k+k]
			for j := range xv {
				xv[j] = od * rv[j]
			}
		}
	})
	for s := 1; s < l.smooth; s++ {
		l.g.LapMulBlock(tmp, x, k)
		par.For(n, grain, func(lo, hi int) {
			for v := lo; v < hi; v++ {
				od := omega * l.dInv[v]
				rv := r[v*k : v*k+k : v*k+k]
				tv := tmp[v*k : v*k+k : v*k+k]
				xv := x[v*k : v*k+k : v*k+k]
				for j := range xv {
					xv[j] += od * (rv[j] - tv[j])
				}
			}
		})
	}
	l.g.LapMulBlockResidual(tmp, r, x, k)
	restrictBlock(l, tmp, k, rq)
	h.applyLevelBlock(level+1, xq, rq, k, w)
	if l.visits == 2 {
		rq2 := growBuf(&w.rq2[level], l.count*k)
		xq2 := growBuf(&w.xq2[level], l.count*k)
		h.levels[level+1].g.LapMulBlockResidual(rq2, rq, xq, k)
		h.applyLevelBlock(level+1, xq2, rq2, k, w)
		par.For(l.count*k, elemGrain, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				xq[i] += xq2[i]
			}
		})
	}
	par.For(n, grain, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			q := xq[int(l.assign[v])*k:]
			xv := x[v*k : v*k+k : v*k+k]
			for j := range xv {
				xv[j] += alpha * q[j]
			}
		}
	})
	for s := 0; s < l.smooth; s++ {
		l.g.LapMulBlock(tmp2, x, k)
		par.For(n, grain, func(lo, hi int) {
			for v := lo; v < hi; v++ {
				od := omega * l.dInv[v]
				rv := r[v*k : v*k+k : v*k+k]
				tv := tmp2[v*k : v*k+k : v*k+k]
				xv := x[v*k : v*k+k : v*k+k]
				for j := range xv {
					xv[j] += od * (rv[j] - tv[j])
				}
			}
		})
	}
}

// restrictBlock computes rq = Rᵀr per column: each cluster sums its members'
// packed rows in the fixed cluster-sorted order, so the result does not
// depend on how clusters are chunked across workers.
func restrictBlock(l *Level, r []float64, k int, rq []float64) {
	grain := 512 / k
	if grain < 8 {
		grain = 8
	}
	par.For(l.count, grain, func(lo, hi int) {
		for c := lo; c < hi; c++ {
			acc := rq[c*k : c*k+k : c*k+k]
			for j := range acc {
				acc[j] = 0
			}
			for i := l.start[c]; i < l.start[c+1]; i++ {
				rv := r[int(l.order[i])*k:]
				for j := range acc {
					acc[j] += rv[j]
				}
			}
		}
	})
}
