package solver

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"hcd/internal/hierarchy"
	"hcd/internal/workload"
)

// chebyshevBounds widens the Ritz interval of a 40-step PCG probe on b by
// [0.8, 1.2], as hcd.Do's Chebyshev method does.
func chebyshevBounds(t *testing.T, a Operator, m Preconditioner, b []float64) (float64, float64) {
	t.Helper()
	probe := pcg(t, a, m, b, Options{Tol: 1e-12, MaxIter: 40})
	lmin, lmax, err := SpectrumEstimate(probe.Alphas, probe.Betas)
	if err != nil {
		t.Fatal(err)
	}
	return 0.8 * lmin, 1.2 * lmax
}

// TestChebyshevBlockMatchesColumns: every column of a k = 4 Chebyshev solve
// takes the iteration count its k = 1 solve takes and lands on the same
// iterate to 1e-10 — the recurrence's α and β are shared scalars, so only the
// summation order of the mean projection and the norms differs.
func TestChebyshevBlockMatchesColumns(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	g := workload.Grid3D(16, 16, 16, workload.Lognormal(1), 2)
	h, err := hierarchy.New(g, hierarchy.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	bs := make([][]float64, 4)
	for j := range bs {
		bs[j] = meanFreeRHS(rng, g.N())
	}
	lmin, lmax := chebyshevBounds(t, LapOperator(g), h, bs[0])
	opt := Options{Tol: 1e-8, MaxIter: 400}
	block, err := ChebyshevCtx(context.Background(), LapOperator(g), h, bs, lmin, lmax, opt)
	if err != nil {
		t.Fatal(err)
	}
	for j, b := range bs {
		one, err := chebyshev(context.Background(), LapOperator(g), h, b, lmin, lmax, opt)
		if err != nil {
			t.Fatal(err)
		}
		got := block[j]
		if !got.Converged || got.Iterations != one.Iterations {
			t.Fatalf("column %d: %v after %d iterations, alone %v after %d", j, got.Outcome, got.Iterations, one.Outcome, one.Iterations)
		}
		scale := 0.0
		for _, x := range one.X {
			scale = math.Max(scale, math.Abs(x))
		}
		for v := range one.X {
			if d := math.Abs(got.X[v] - one.X[v]); d > 1e-10*scale {
				t.Fatalf("column %d: x[%d] = %v, alone %v (|Δ| %.3g of max |x| %.3g)", j, v, got.X[v], one.X[v], d, scale)
			}
		}
		if len(got.Alphas) != 0 || len(got.Betas) != 0 {
			t.Errorf("column %d: Chebyshev recorded %d α and %d β", j, len(got.Alphas), len(got.Betas))
		}
	}
}

// traversals counts the passes a solve makes over an operator: one per Apply
// or ApplyBlock call, whatever the width.
type traversals struct {
	op    Operator
	calls int
}

func (c *traversals) Dim() int { return c.op.Dim() }

func (c *traversals) Apply(dst, x []float64) {
	c.calls++
	c.op.Apply(dst, x)
}

func (c *traversals) ApplyBlock(dst, x []float64, k int) {
	c.calls++
	c.op.(BlockApplier).ApplyBlock(dst, x, k)
}

// TestChebyshevOneTraversalPerIteration: a k-column Chebyshev solve walks A
// once and M once per iteration for all its columns — not once per column —
// both when it spends its whole budget and when columns converge and deflate
// at different iterations.
func TestChebyshevOneTraversalPerIteration(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	g := workload.Grid2D(40, 40, workload.Lognormal(1), 3)
	n := g.N()
	lmin, lmax := chebyshevBounds(t, LapOperator(g), Jacobi(g), meanFreeRHS(rng, n))
	for _, tc := range []struct {
		name string
		k    int
		opt  Options
	}{
		{"budget k=4", 4, Options{MaxIter: 25}},
		{"budget k=8", 8, Options{MaxIter: 25}},
		{"converging k=4", 4, Options{MaxIter: 2000, Tol: 1e-6}},
	} {
		bs := make([][]float64, tc.k)
		for j := range bs {
			bs[j] = meanFreeRHS(rng, n)
		}
		if tc.opt.Tol > 0 {
			bs[1] = make([]float64, n) // converged before the first iteration
		}
		a := &traversals{op: LapOperator(g)}
		m := &traversals{op: Jacobi(g)}
		results, err := ChebyshevCtx(context.Background(), a, m, bs, lmin, lmax, tc.opt)
		if err != nil {
			t.Fatal(err)
		}
		iters := 0
		for _, res := range results {
			iters = max(iters, res.Iterations)
		}
		if iters == 0 {
			t.Fatalf("%s: no iterations ran", tc.name)
		}
		if a.calls != iters || m.calls != iters {
			t.Errorf("%s: %d iterations walked A %d times and M %d times, want once each per iteration",
				tc.name, iters, a.calls, m.calls)
		}
	}
}

// TestChebyshevGOMAXPROCSInvariant: a Chebyshev solve on a graph above the
// kernel grain, at k = 1 and k = 4, is bit-identical at one and two workers —
// iterate, residual history and iteration count.
func TestChebyshevGOMAXPROCSInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	g := workload.Grid2D(200, 200, workload.Lognormal(1), 4)
	n := g.N()
	if n <= kernelGrain {
		t.Fatalf("%d vertices do not cross the kernel grain", n)
	}
	h, err := hierarchy.New(g, hierarchy.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	bs := make([][]float64, 4)
	for j := range bs {
		bs[j] = meanFreeRHS(rng, n)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	runtime.GOMAXPROCS(1)
	lmin, lmax := chebyshevBounds(t, LapOperator(g), h, bs[0])
	opt := Options{Tol: 1e-10, MaxIter: 60}
	solve := func(procs, k int) []Result {
		runtime.GOMAXPROCS(procs)
		results, err := ChebyshevCtx(context.Background(), LapOperator(g), h, bs[:k], lmin, lmax, opt)
		if err != nil {
			t.Fatal(err)
		}
		return results
	}
	for _, k := range []int{1, 4} {
		ref, got := solve(1, k), solve(2, k)
		for j := range ref {
			if got[j].Iterations != ref[j].Iterations {
				t.Fatalf("k=%d column %d: %d iterations at 2 workers vs %d at 1", k, j, got[j].Iterations, ref[j].Iterations)
			}
			sameBits(t, "X", got[j].X, ref[j].X)
			sameBits(t, "residuals", got[j].Residuals, ref[j].Residuals)
		}
	}
}

func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d entries vs %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v at 2 workers, %v at 1", what, i, got[i], want[i])
		}
	}
}
