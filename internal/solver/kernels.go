package solver

import "hcd/internal/par"

// kernelGrain is the chunk length of the width-1 level-1 kernels below. The
// elementwise ones run one serial loop at or below it, and on one worker.
// The reductions sum fixed kernelGrain-element chunks — the first kernelGrain
// elements, then the next, whatever the worker count — and combine the
// partial sums in chunk order, so a dot product is the same bits at any
// GOMAXPROCS; it is the partition reduceRows gives a width-1 block. On one
// worker, and at or below the grain, the chunks are summed on the calling
// goroutine through a closure that does not escape, so nothing allocates (the
// closures handed to par.ReduceSum escape to worker goroutines and would, on
// every call, which would break the Engine's zero-allocation guarantee).
const kernelGrain = 16384

// sumChunks returns Σ fn(lo, hi) over the kernelGrain partition of [0, n), in
// chunk order, on the calling goroutine.
func sumChunks(n int, fn func(lo, hi int) float64) float64 {
	if n <= kernelGrain {
		return fn(0, n)
	}
	total := 0.0
	for lo := 0; lo < n; lo += kernelGrain {
		hi := lo + kernelGrain
		if hi > n {
			hi = n
		}
		total += fn(lo, hi)
	}
	return total
}

// serialChunks reports whether a length-n reduction runs on the calling
// goroutine.
func serialChunks(n int) bool { return n <= kernelGrain || par.Workers() == 1 }

func dot(a, b []float64) float64 {
	if serialChunks(len(a)) {
		return sumChunks(len(a), func(lo, hi int) float64 { return dotRange(a, b, lo, hi) })
	}
	return par.ReduceSum(len(a), kernelGrain, func(lo, hi int) float64 { return dotRange(a, b, lo, hi) })
}

func dotRange(a, b []float64, lo, hi int) float64 {
	s := 0.0
	for i := lo; i < hi; i++ {
		s += a[i] * b[i]
	}
	return s
}

// xpby computes p = z + beta·p (the PCG direction update).
func xpby(p []float64, z []float64, beta float64) {
	if len(p) <= kernelGrain || par.Workers() == 1 {
		for i := range p {
			p[i] = z[i] + beta*p[i]
		}
		return
	}
	par.For(len(p), kernelGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			p[i] = z[i] + beta*p[i]
		}
	})
}

// Fused PCG sweeps. One iteration used to read its vectors ten times (dot,
// two axpys, a sum and a shift for each mean projection, a norm, a dot, the
// direction update); the kernels below carry each reduction on the back
// of the sweep that produces its operand, which leaves six. Every
// accumulation runs in the order of the kernel sequence it replaces, chunk by
// chunk, so the results are bit-identical to that sequence.

// updateXR computes x += a·p and r −= a·ap in one sweep and returns Σr of
// the updated residual.
func updateXR(x, r []float64, a float64, p, ap []float64) float64 {
	if serialChunks(len(x)) {
		return sumChunks(len(x), func(lo, hi int) float64 { return updateXRRange(x, r, a, p, ap, lo, hi) })
	}
	return par.ReduceSum(len(x), kernelGrain, func(lo, hi int) float64 { return updateXRRange(x, r, a, p, ap, lo, hi) })
}

func updateXRRange(x, r []float64, a float64, p, ap []float64, lo, hi int) float64 {
	s, na := 0.0, -a
	for i := lo; i < hi; i++ {
		x[i] += a * p[i]
		r[i] += na * ap[i]
		s += r[i]
	}
	return s
}

// sum returns Σx.
func sum(x []float64) float64 {
	if serialChunks(len(x)) {
		return sumChunks(len(x), func(lo, hi int) float64 { return sumRange(x, lo, hi) })
	}
	return par.ReduceSum(len(x), kernelGrain, func(lo, hi int) float64 { return sumRange(x, lo, hi) })
}

func sumRange(x []float64, lo, hi int) float64 {
	s := 0.0
	for i := lo; i < hi; i++ {
		s += x[i]
	}
	return s
}

// shiftDot computes x −= mean in place and returns x·y of the shifted x; with
// y = x it is the shifted vector's squared norm.
func shiftDot(x []float64, mean float64, y []float64) float64 {
	if serialChunks(len(x)) {
		return sumChunks(len(x), func(lo, hi int) float64 { return shiftDotRange(x, mean, y, lo, hi) })
	}
	return par.ReduceSum(len(x), kernelGrain, func(lo, hi int) float64 { return shiftDotRange(x, mean, y, lo, hi) })
}

func shiftDotRange(x []float64, mean float64, y []float64, lo, hi int) float64 {
	s := 0.0
	for i := lo; i < hi; i++ {
		x[i] -= mean
		s += y[i] * x[i]
	}
	return s
}
