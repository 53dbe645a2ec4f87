package solver

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"hcd/internal/graph"
	"hcd/internal/workload"
)

// The vector kernels the unfused iteration ran, kept here as its oracle —
// and TestBlockReductionWidthInvariant's: plain loops, whose reductions sum
// the solver's kernelGrain partition and add the chunk sums in chunk order,
// as the solver's sweeps sum every column of every width. The elementwise
// loops round the same under any chunking.

// chunked returns Σ term(i) over [0, n): the sum of each kernelGrain chunk,
// the chunk sums added in chunk order.
func chunked(n int, term func(i int) float64) float64 {
	total := 0.0
	for lo := 0; lo < n; lo += kernelGrain {
		s := 0.0
		for i := lo; i < min(lo+kernelGrain, n); i++ {
			s += term(i)
		}
		total += s
	}
	return total
}

func dot(a, b []float64) float64 { return chunked(len(a), func(i int) float64 { return a[i] * b[i] }) }

func sum(x []float64) float64 { return chunked(len(x), func(i int) float64 { return x[i] }) }

func norm2(x []float64) float64 { return math.Sqrt(dot(x, x)) }

// xpby computes p = z + beta·p.
func xpby(p, z []float64, beta float64) {
	for i := range p {
		p[i] = z[i] + beta*p[i]
	}
}

// axpy computes y += a·x.
func axpy(y []float64, a float64, x []float64) {
	for i := range y {
		y[i] += a * x[i]
	}
}

// projectMean subtracts the mean of x from every entry.
func projectMean(x []float64) {
	mean := sum(x) / float64(len(x))
	for i := range x {
		x[i] -= mean
	}
}

// pcgUnfused is the PCG iteration as it ran before its sweeps were fused:
// one kernel per vector operation — two axpys, a projection, a norm, a
// projection, a dot — in that order. The oracle for pcgIter's fused sweeps.
func pcgUnfused(a Operator, m Preconditioner, b []float64, opt Options) (x, resid, alphas, betas []float64) {
	n := a.Dim()
	x = make([]float64, n)
	r := append([]float64(nil), b...)
	z, p, ap := make([]float64, n), make([]float64, n), make([]float64, n)
	projectMean(r)
	normB := norm2(r)
	resid = append(resid, normB)
	m.Apply(z, r)
	projectMean(z)
	copy(p, z)
	rz := dot(r, z)
	for iter := 0; iter < opt.MaxIter; iter++ {
		a.Apply(ap, p)
		alpha := rz / dot(p, ap)
		alphas = append(alphas, alpha)
		axpy(x, alpha, p)
		axpy(r, -alpha, ap)
		projectMean(r)
		rn := norm2(r)
		resid = append(resid, rn)
		if rn <= opt.Tol*normB || iter+1 == opt.MaxIter {
			// Converged, or the budget is spent: no next direction.
			break
		}
		m.Apply(z, r)
		projectMean(z)
		rzNew := dot(r, z)
		beta := rzNew / rz
		betas = append(betas, beta)
		xpby(p, z, beta)
		rz = rzNew
	}
	return x, resid, alphas, betas
}

// TestPCGFusedMatchesUnfused: on three graph families the fused iteration
// reproduces the unfused one bit for bit — residual history, α and β tables
// and the solution — at one worker and, because the fused sweeps keep the
// unfused chunking, at four. The budget runs out first, so both stop without
// a last β. The subtests keep the "project=true" of the days a solve could
// opt out of the mean projection.
func TestPCGFusedMatchesUnfused(t *testing.T) {
	fe, err := workload.FEMesh(150, 150, -1, nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		g    *graph.Graph
	}{
		{"grid3d", workload.Grid3D(28, 28, 28, workload.Lognormal(1), 1)},
		{"oct3d", workload.OCT3D(26, 26, 26, workload.DefaultOCTOptions())},
		{"femesh", fe},
	}
	same := func(t *testing.T, what string, got, want []float64) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d entries, unfused %d", what, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s[%d] = %v, unfused %v", what, i, got[i], want[i])
			}
		}
	}
	for _, tc := range cases {
		if tc.g.N() <= kernelGrain {
			t.Fatalf("%s: %d vertices do not cross the parallel kernel grain", tc.name, tc.g.N())
		}
		b := meanFreeRHS(rand.New(rand.NewSource(9)), tc.g.N())
		for _, procs := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/project=true/procs=%d", tc.name, procs), func(t *testing.T) {
				defer forceParallel(procs)()
				opt := DefaultOptions()
				opt.MaxIter = 60
				a, m := LapOperator(tc.g), Jacobi(tc.g)
				res := pcg(t, a, m, b, opt)
				if res.Outcome != OutcomeMaxIter {
					t.Fatalf("outcome %v, want the budget to run out", res.Outcome)
				}
				x, resid, alphas, betas := pcgUnfused(a, m, b, opt)
				same(t, "residuals", res.Residuals, resid)
				same(t, "alphas", res.Alphas, alphas)
				same(t, "betas", res.Betas, betas)
				same(t, "x", res.X, x)
			})
		}
	}
}
