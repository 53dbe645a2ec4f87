package solver

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"hcd/internal/graph"
	"hcd/internal/hierarchy"
	"hcd/internal/workload"
)

// TestBlockPCGMatchesScalarPerColumn: every column of a k=5 block solve
// converges to the scalar solution, and per-column iteration counts stay
// within ±10% of the scalar path's (the block recurrences are the same
// arithmetic, only summation order differs).
func TestBlockPCGMatchesScalarPerColumn(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	g := workload.Grid2D(24, 24, workload.Lognormal(1), 5)
	n := g.N()
	const k = 5
	bs := make([][]float64, k)
	for j := range bs {
		bs[j] = meanFreeRHS(rng, n)
	}
	opt := DefaultOptions()

	results, err := BlockPCGCtx(context.Background(), LapOperator(g), Jacobi(g), bs, opt)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < k; j++ {
		scalar, err := PCGCtx(context.Background(), LapOperator(g), Jacobi(g), bs[j], opt)
		if err != nil {
			t.Fatal(err)
		}
		res := results[j]
		if !res.Converged {
			t.Fatalf("column %d: %v after %d iterations: %s", j, res.Outcome, res.Iterations, res.Reason)
		}
		if rn := residualNorm(g, res.X, bs[j]); rn > 1e-5 {
			t.Errorf("column %d: true residual %v", j, rn)
		}
		lo := int(math.Floor(0.9 * float64(scalar.Iterations)))
		hi := int(math.Ceil(1.1*float64(scalar.Iterations))) + 1
		if res.Iterations < lo || res.Iterations > hi {
			t.Errorf("column %d: %d block iterations vs %d scalar (outside ±10%%)",
				j, res.Iterations, scalar.Iterations)
		}
		if res.Metrics.MatVecs != res.Iterations {
			t.Errorf("column %d: %d matvecs vs %d iterations", j, res.Metrics.MatVecs, res.Iterations)
		}
	}
}

// TestBlockPCGDeflation: columns that converge at different iterations —
// including a zero column that deflates before the first iteration — all end
// with correct solutions, and the early columns stop counting iterations
// when they deflate.
func TestBlockPCGDeflation(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	g := workload.Grid2D(24, 24, workload.Lognormal(1), 9)
	n := g.N()
	// Column 1 is all-zero (immediate convergence); column 2 is a tiny,
	// near-solved system seeded from one PCG step's residual scale; the rest
	// are independent random right-hand sides.
	bs := [][]float64{
		meanFreeRHS(rng, n),
		make([]float64, n),
		nil,
		meanFreeRHS(rng, n),
		meanFreeRHS(rng, n),
	}
	// An "easy" column: b = L·x* for a localized x*, which PCG resolves in
	// fewer iterations than a dense random rhs on this graph.
	easy := make([]float64, n)
	spike := make([]float64, n)
	spike[n/2] = 1
	g.LapMul(easy, spike)
	bs[2] = easy

	opt := DefaultOptions()
	results, err := BlockPCGCtx(context.Background(), LapOperator(g), Jacobi(g), bs, opt)
	if err != nil {
		t.Fatal(err)
	}
	for j, res := range results {
		if !res.Converged {
			t.Fatalf("column %d: %v after %d iterations: %s", j, res.Outcome, res.Iterations, res.Reason)
		}
		if rn := residualNorm(g, res.X, bs[j]); rn > 1e-5 {
			t.Errorf("column %d: true residual %v", j, rn)
		}
	}
	if results[1].Iterations != 0 {
		t.Errorf("zero column ran %d iterations, want 0", results[1].Iterations)
	}
	// Deflation must actually trigger mid-solve: iteration counts differ.
	iters := map[int]bool{}
	for _, res := range results {
		iters[res.Iterations] = true
	}
	if len(iters) < 2 {
		t.Errorf("all columns converged at the same iteration %v; deflation untested", results[0].Iterations)
	}
	// A deflated column's history stops at its own convergence.
	for j, res := range results {
		if len(res.Residuals) != res.Iterations+1 {
			t.Errorf("column %d: %d residual samples for %d iterations", j, len(res.Residuals), res.Iterations)
		}
	}
}

// TestBlockPCGGOMAXPROCSInvariant: every reduction uses a fixed chunk
// partition, so a whole solve — iterates and histories — is bit-identical at
// any worker count, one column wide or four. The graph is large enough that
// the level-1 kernels, the matvec and the hierarchy's sweeps all cross their
// parallel grains.
func TestBlockPCGGOMAXPROCSInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	g := workload.Grid3D(40, 40, 40, workload.Lognormal(1), 3)
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
	opt := DefaultOptions()
	opt.Tol = 1e-10

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, k := range []int{1, 4} {
		runtime.GOMAXPROCS(1)
		ref, err := BlockPCGCtx(context.Background(), LapOperator(g), h, bs[:k], opt)
		if err != nil {
			t.Fatal(err)
		}
		for _, procs := range []int{2, 4} {
			runtime.GOMAXPROCS(procs)
			got, err := BlockPCGCtx(context.Background(), LapOperator(g), h, bs[:k], opt)
			if err != nil {
				t.Fatal(err)
			}
			for j := range ref {
				if got[j].Iterations != ref[j].Iterations {
					t.Fatalf("k=%d procs=%d column %d: %d iterations vs %d at procs=1",
						k, procs, j, got[j].Iterations, ref[j].Iterations)
				}
				for i := range ref[j].X {
					if got[j].X[i] != ref[j].X[i] {
						t.Fatalf("k=%d procs=%d column %d X[%d]: %v != %v",
							k, procs, j, i, got[j].X[i], ref[j].X[i])
					}
				}
				for i := range ref[j].Residuals {
					if got[j].Residuals[i] != ref[j].Residuals[i] {
						t.Fatalf("k=%d procs=%d column %d residual[%d]: %v != %v",
							k, procs, j, i, got[j].Residuals[i], ref[j].Residuals[i])
					}
				}
			}
		}
	}
}

// TestEngineSolveBlockWarmAllocs: a warmed engine's block solves reuse every
// packed buffer.
func TestEngineSolveBlockWarmAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	g := workload.Grid2D(16, 16, workload.Lognormal(1), 2)
	n := g.N()
	eng, err := NewEngine(LapOperator(g), Jacobi(g), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	const k = 4
	bs := make([][]float64, k)
	for j := range bs {
		bs[j] = meanFreeRHS(rng, n)
	}
	if _, err := eng.SolveBlock(context.Background(), bs, DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	warm, err := eng.SolveBlock(context.Background(), bs, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for j, res := range warm {
		if res.Metrics.ScratchAllocs != 0 {
			t.Errorf("column %d: %d scratch allocs on a warm engine", j, res.Metrics.ScratchAllocs)
		}
	}
}

// TestBlockPCGNonBlockPrecondFallback: a preconditioner without ApplyBlock
// still works through the column-staging fallback.
func TestBlockPCGNonBlockPrecondFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	g := workload.Grid2D(16, 16, workload.UniformWeight(0.5, 2), 4)
	n := g.N()
	vols := g.Volumes()
	m := OpFunc{N: n, F: func(dst, r []float64) {
		for i := range dst {
			if vols[i] > 0 {
				dst[i] = r[i] / vols[i]
			} else {
				dst[i] = r[i]
			}
		}
	}}
	bs := [][]float64{meanFreeRHS(rng, n), meanFreeRHS(rng, n), meanFreeRHS(rng, n)}
	results, err := BlockPCGCtx(context.Background(), LapOperator(g), m, bs, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for j, res := range results {
		if !res.Converged {
			t.Fatalf("column %d: %v: %s", j, res.Outcome, res.Reason)
		}
		if rn := residualNorm(g, res.X, bs[j]); rn > 1e-5 {
			t.Errorf("column %d: true residual %v", j, rn)
		}
	}
}

// TestBlockPCGDimensionErrors: a column of the wrong length fails alone — its
// Result stays the zero value, its neighbors are solved, and the error wraps
// ErrBadDimension; an empty block is an error.
func TestBlockPCGDimensionErrors(t *testing.T) {
	g := workload.Grid2D(5, 5, nil, 1)
	rng := rand.New(rand.NewSource(17))
	bs := [][]float64{meanFreeRHS(rng, g.N()), make([]float64, g.N()-1), meanFreeRHS(rng, g.N())}
	results, err := BlockPCGCtx(context.Background(), LapOperator(g), nil, bs, DefaultOptions())
	if !errors.Is(err, graph.ErrBadDimension) {
		t.Fatalf("err = %v, want ErrBadDimension", err)
	}
	if len(results) != 3 || !results[0].Converged || !results[2].Converged {
		t.Fatalf("good columns lost: %+v", results)
	}
	if results[1].Outcome != OutcomeUnknown || results[1].X != nil {
		t.Errorf("bad column has a result: %+v", results[1])
	}
	if _, err := BlockPCGCtx(context.Background(), LapOperator(g), nil, nil, DefaultOptions()); err == nil {
		t.Fatal("want error for empty block")
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

// TestPCGBudgetStopsBeforeApply: a PCG solve whose budget runs out applies M
// once per matvec — the apply that opens the solve and one after every
// iteration but the last — and records one β fewer than α: no direction
// follows the last iteration, so none is paid for. At k = 4 the block walks
// M as often as one column does.
func TestPCGBudgetStopsBeforeApply(t *testing.T) {
	g := workload.Grid2D(20, 20, nil, 1)
	rng := rand.New(rand.NewSource(40))
	const budget = 5
	for _, k := range []int{1, 4} {
		bs := make([][]float64, k)
		for j := range bs {
			bs[j] = meanFreeRHS(rng, g.N())
		}
		m := &traversals{op: Jacobi(g)}
		results, err := BlockPCGCtx(context.Background(), LapOperator(g), m, bs, Options{MaxIter: budget})
		if err != nil {
			t.Fatal(err)
		}
		for j, res := range results {
			if res.Outcome != OutcomeMaxIter || res.Metrics.MatVecs != budget || res.Metrics.PrecondApplies != budget ||
				len(res.Alphas) != budget || len(res.Betas) != budget-1 {
				t.Errorf("k=%d column %d: %v after %d matvecs, %d applies, %d α, %d β; want max-iterations after %d, %d, %d, %d",
					k, j, res.Outcome, res.Metrics.MatVecs, res.Metrics.PrecondApplies, len(res.Alphas), len(res.Betas),
					budget, budget, budget, budget-1)
			}
		}
		if m.calls != budget {
			t.Errorf("k=%d: M walked %d times, want %d", k, m.calls, budget)
		}
	}
}
