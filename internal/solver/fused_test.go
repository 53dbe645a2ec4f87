package solver

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"hcd/internal/graph"
	"hcd/internal/workload"
)

// The vector kernels the unfused iteration ran, kept here as its oracle: the
// fused sweeps replaced them in the solver. The reductions are the solver's
// own chunked dot and sum, and the elementwise loops round the same under any
// chunking, so the oracle is bit-identical to the kernels it replaced.

func norm2(x []float64) float64 { return math.Sqrt(dot(x, x)) }

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
