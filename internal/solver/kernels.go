package solver

import (
	"math"

	"hcd/internal/par"
)

// kernelGrain is the minimum vector length per worker chunk for the level-1
// kernels below. At or below this threshold the kernels run a plain serial
// loop — bit-identical to the historical implementations and, crucially,
// allocation-free: the closures handed to par.For/par.ReduceSum escape to
// worker goroutines and would heap-allocate on every call, which would break
// the Engine's zero-allocation guarantee for small solves. Above the
// threshold, dot products and norms become chunked reductions: associativity
// of the summation changes, so results agree with the serial path only to
// rounding.
const kernelGrain = 16384

func dot(a, b []float64) float64 {
	if len(a) <= kernelGrain || par.Workers() == 1 {
		s := 0.0
		for i := range a {
			s += a[i] * b[i]
		}
		return s
	}
	return par.ReduceSum(len(a), kernelGrain, func(lo, hi int) float64 {
		s := 0.0
		for i := lo; i < hi; i++ {
			s += a[i] * b[i]
		}
		return s
	})
}

func norm2(x []float64) float64 {
	if len(x) <= kernelGrain || par.Workers() == 1 {
		s := 0.0
		for _, v := range x {
			s += v * v
		}
		return math.Sqrt(s)
	}
	s := par.ReduceSum(len(x), kernelGrain, func(lo, hi int) float64 {
		acc := 0.0
		for i := lo; i < hi; i++ {
			acc += x[i] * x[i]
		}
		return acc
	})
	return math.Sqrt(s)
}

// axpy computes y += a·x.
func axpy(y []float64, a float64, x []float64) {
	if len(y) <= kernelGrain || par.Workers() == 1 {
		for i := range y {
			y[i] += a * x[i]
		}
		return
	}
	par.For(len(y), kernelGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			y[i] += a * x[i]
		}
	})
}

// xpby computes p = z + beta·p (the PCG/Chebyshev direction update).
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

// sub computes r = b − ax elementwise.
func sub(r, b, ax []float64) {
	if len(r) <= kernelGrain || par.Workers() == 1 {
		for i := range r {
			r[i] = b[i] - ax[i]
		}
		return
	}
	par.For(len(r), kernelGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			r[i] = b[i] - ax[i]
		}
	})
}

// projectMean subtracts the mean of x from every entry, keeping iterates
// orthogonal to the constant vector on singular Laplacian systems.
func projectMean(x []float64) {
	n := len(x)
	if n == 0 {
		return
	}
	mean := sum(x) / float64(n)
	if n <= kernelGrain || par.Workers() == 1 {
		for i := range x {
			x[i] -= mean
		}
		return
	}
	par.For(n, kernelGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			x[i] -= mean
		}
	})
}

// Fused PCG sweeps. One iteration used to read its vectors ten times (dot,
// two axpys, a sum and a shift for each mean projection, a norm, a dot, the
// direction update); the kernels below carry each reduction on the back
// of the sweep that produces its operand, which leaves six. Every
// accumulation runs in the order of the kernel sequence it replaces — serial
// left to right, chunked by kernelGrain otherwise — so the results are
// bit-identical to that sequence at any worker count.

// updateXR computes x += a·p and r −= a·ap in one sweep and returns Σr of
// the updated residual.
func updateXR(x, r []float64, a float64, p, ap []float64) float64 {
	if len(x) <= kernelGrain || par.Workers() == 1 {
		return updateXRRange(x, r, a, p, ap, 0, len(x))
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
	if len(x) <= kernelGrain || par.Workers() == 1 {
		return sumRange(x, 0, len(x))
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
	if len(x) <= kernelGrain || par.Workers() == 1 {
		return shiftDotRange(x, mean, y, 0, len(x))
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
