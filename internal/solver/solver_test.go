package solver

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"hcd/internal/graph"
	"hcd/internal/workload"
)

func meanFreeRHS(rng *rand.Rand, n int) []float64 {
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	s := 0.0
	for _, v := range b {
		s += v
	}
	for i := range b {
		b[i] -= s / float64(n)
	}
	return b
}

// pcg runs PCGCtx without a deadline, failing the test on an input error.
func pcg(t testing.TB, a Operator, m Preconditioner, b []float64, opt Options) Result {
	t.Helper()
	res, err := PCGCtx(context.Background(), a, m, b, opt)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func residualNorm(g *graph.Graph, x, b []float64) float64 {
	ax := make([]float64, len(x))
	g.LapMul(ax, x)
	s := 0.0
	for i := range ax {
		d := ax[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}

func TestCGSolvesLaplacian(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := workload.Grid2D(12, 12, workload.UniformWeight(0.5, 2), 1)
	b := meanFreeRHS(rng, g.N())
	res := pcg(t, LapOperator(g), Identity(g.N()), b, DefaultOptions())
	if !res.Converged {
		t.Fatalf("CG did not converge in %d iterations", res.Iterations)
	}
	if rn := residualNorm(g, res.X, b); rn > 1e-6 {
		t.Errorf("residual %v", rn)
	}
}

func TestPCGJacobiBeatsCGOnSkewedWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := workload.OCT3D(6, 6, 12, workload.OCTOptions{Layers: 4, Contrast: 1000, NoiseSigma: 1, Seed: 3})
	b := meanFreeRHS(rng, g.N())
	opt := DefaultOptions()
	opt.Tol = 1e-8
	cg := pcg(t, LapOperator(g), Identity(g.N()), b, opt)
	pre := pcg(t, LapOperator(g), Jacobi(g), b, opt)
	if !pre.Converged {
		t.Fatalf("Jacobi-PCG did not converge")
	}
	if cg.Converged && cg.Iterations < pre.Iterations/2 {
		t.Errorf("plain CG (%d iters) much faster than Jacobi-PCG (%d)?", cg.Iterations, pre.Iterations)
	}
}

func TestPCGResidualHistoryMonotoneOverall(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := workload.Grid3D(6, 6, 6, workload.Lognormal(1), 2)
	b := meanFreeRHS(rng, g.N())
	res := pcg(t, LapOperator(g), Jacobi(g), b, DefaultOptions())
	if len(res.Residuals) != res.Iterations+1 {
		t.Fatalf("history length %d vs iterations %d", len(res.Residuals), res.Iterations)
	}
	if res.Residuals[len(res.Residuals)-1] > res.Residuals[0]*1e-7 {
		t.Errorf("final residual %v vs initial %v", res.Residuals[len(res.Residuals)-1], res.Residuals[0])
	}
}

func TestPCGZeroRHS(t *testing.T) {
	g := workload.Grid2D(4, 4, nil, 1)
	res := pcg(t, LapOperator(g), Jacobi(g), make([]float64, g.N()), DefaultOptions())
	if !res.Converged || res.Iterations != 0 {
		t.Errorf("zero rhs should converge instantly")
	}
	for _, v := range res.X {
		if v != 0 {
			t.Errorf("x should stay zero")
		}
	}
}

func TestPCGConstantRHSProjected(t *testing.T) {
	// b = constant vector is entirely in the Laplacian null space; the
	// projected solver must return x = 0 immediately.
	g := workload.Grid2D(5, 5, nil, 1)
	b := make([]float64, g.N())
	for i := range b {
		b[i] = 3.7
	}
	res := pcg(t, LapOperator(g), Identity(g.N()), b, DefaultOptions())
	if !res.Converged {
		t.Error("projected constant rhs should converge")
	}
}

// TestOverflowingRHSBreaksDown: entries of 1e154 are finite, but ‖b‖²
// overflows, so ‖r₀‖ and the raw ‖b‖ are both +Inf — which the null-space
// test (‖r₀‖ ≤ 1e-13·‖b‖) would read as solved at x = 0. The driver must
// report a breakdown instead, at every block width.
func TestOverflowingRHSBreaksDown(t *testing.T) {
	g := workload.Grid2D(16, 16, nil, 1)
	b := make([]float64, g.N())
	b[0], b[1] = 1e154, -1e154
	check := func(name string, res Result, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Outcome != OutcomeBreakdown || res.Converged || res.Iterations != 0 {
			t.Errorf("%s: outcome %v converged %v after %d iterations, want a breakdown at 0", name, res.Outcome, res.Converged, res.Iterations)
		}
		if !strings.Contains(res.Reason, "non-finite initial residual") {
			t.Errorf("%s: reason %q", name, res.Reason)
		}
	}
	ctx := context.Background()
	res, err := PCGCtx(ctx, LapOperator(g), Jacobi(g), b, DefaultOptions())
	check("pcg", res, err)

	// One overflowing column in a block leaves the others to solve.
	good := meanFreeRHS(rand.New(rand.NewSource(3)), g.N())
	for _, k := range []int{2, 4, 8} {
		bs := make([][]float64, k)
		for j := range bs {
			bs[j] = good
		}
		bs[1] = b
		results, err := BlockPCGCtx(ctx, LapOperator(g), Jacobi(g), bs, DefaultOptions())
		check(fmt.Sprintf("block k=%d", k), results[1], err)
		for j, r := range results {
			if j != 1 && !r.Converged {
				t.Errorf("block k=%d: column %d %v", k, j, r.Outcome)
			}
		}
	}
}

func TestSpectrumEstimateOnKnownOperator(t *testing.T) {
	// The unit-weight path on n vertices has Laplacian eigenvalues
	// 2 − 2cos(πj/n), j = 0 … n−1, all distinct: CG coefficients on the
	// mean-free subspace must reproduce the extremes j = 1 and j = n−1.
	n := 30
	edges := make([]graph.Edge, n-1)
	for i := range edges {
		edges[i] = graph.Edge{U: i, V: i + 1, W: 1}
	}
	g := graph.MustFromEdges(n, edges)
	b := meanFreeRHS(rand.New(rand.NewSource(4)), n)
	res := pcg(t, LapOperator(g), Identity(n), b, Options{Tol: 1e-14, MaxIter: n})
	lmin, lmax, err := SpectrumEstimate(res.Alphas, res.Betas)
	if err != nil {
		t.Fatal(err)
	}
	wantMin, wantMax := 2-2*math.Cos(math.Pi/float64(n)), 2+2*math.Cos(math.Pi/float64(n))
	if math.Abs(lmin-wantMin) > 1e-3*wantMin || math.Abs(lmax-wantMax) > 1e-3*wantMax {
		t.Errorf("spectrum estimate [%v, %v] after %d iterations, want [%v, %v]", lmin, lmax, res.Iterations, wantMin, wantMax)
	}
}

func TestSpectrumEstimateErrors(t *testing.T) {
	if _, _, err := SpectrumEstimate(nil, nil); err == nil {
		t.Error("empty coefficients accepted")
	}
}

func BenchmarkPCGJacobiGrid(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	g := workload.Grid3D(15, 15, 15, workload.Lognormal(1), 1)
	rhs := meanFreeRHS(rng, g.N())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pcg(b, LapOperator(g), Jacobi(g), rhs, DefaultOptions())
	}
}
