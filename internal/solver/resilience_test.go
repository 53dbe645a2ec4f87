package solver

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"hcd/internal/faultinject"
	"hcd/internal/graph"
	"hcd/internal/workload"
)

func testSystem(t *testing.T, seed int64) (*graph.Graph, []float64) {
	t.Helper()
	g := workload.Grid2D(12, 12, workload.UniformWeight(0.5, 2), 1)
	return g, meanFreeRHS(rand.New(rand.NewSource(seed)), g.N())
}

func TestInjectedMatvecNaNBreaksDown(t *testing.T) {
	g, b := testSystem(t, 11)
	restore := faultinject.Activate(map[string]faultinject.Spec{
		faultinject.MatvecNaN: {OnHit: 3, Count: 1},
	})
	defer restore()
	res, err := PCGCtx(context.Background(), LapOperator(g), nil, b, DefaultOptions())
	if err != nil {
		t.Fatalf("PCGCtx: %v", err)
	}
	if res.Outcome != OutcomeBreakdown {
		t.Fatalf("outcome %v, want breakdown", res.Outcome)
	}
	if res.Reason == "" || !strings.Contains(res.Reason, "non-finite") && !strings.Contains(res.Reason, "pᵀAp") {
		t.Errorf("reason %q does not explain the breakdown", res.Reason)
	}
	if res.Converged {
		t.Error("breakdown must not report convergence")
	}
}

func TestInjectedForceBreakdown(t *testing.T) {
	g, b := testSystem(t, 12)
	restore := faultinject.Activate(map[string]faultinject.Spec{
		faultinject.ForceBreakdown: {OnHit: 2, Count: 1},
	})
	defer restore()
	res, err := PCGCtx(context.Background(), LapOperator(g), nil, b, DefaultOptions())
	if err != nil {
		t.Fatalf("PCGCtx: %v", err)
	}
	if res.Outcome != OutcomeBreakdown {
		t.Fatalf("outcome %v, want breakdown", res.Outcome)
	}
	if res.Iterations != 1 {
		t.Errorf("breakdown fired on hit 2, so exactly 1 completed iteration; got %d", res.Iterations)
	}
}

func TestSolveCancelledOutcome(t *testing.T) {
	g, b := testSystem(t, 15)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := PCGCtx(ctx, LapOperator(g), nil, b, DefaultOptions())
	if err != nil {
		t.Fatalf("PCGCtx: %v", err)
	}
	if res.Outcome != OutcomeCancelled {
		t.Fatalf("outcome %v, want cancelled", res.Outcome)
	}
}

// TestPCGDivergenceGuard: one apply of A returns A·p plus a huge finite error
// orthogonal to p. pᵀAp is unchanged, so the curvature check passes, but the
// residual update takes the error in; the divergence guard must stop the
// solve there instead of iterating on.
func TestPCGDivergenceGuard(t *testing.T) {
	g, b := testSystem(t, 17)
	lap, n, calls := LapOperator(g), g.N(), 0
	bad := OpFunc{N: n, F: func(dst, x []float64) {
		lap.Apply(dst, x)
		if calls++; calls != 3 {
			return
		}
		qx, xx := 1e12*(x[0]-x[1]), 0.0
		for _, v := range x {
			xx += v * v
		}
		for i := range dst {
			dst[i] -= qx / xx * x[i]
		}
		dst[0] += 1e12
		dst[1] -= 1e12
	}}
	res, err := PCGCtx(context.Background(), bad, nil, b, Options{MaxIter: 500})
	if err != nil {
		t.Fatalf("PCGCtx: %v", err)
	}
	if res.Outcome != OutcomeDiverged || res.Iterations != 3 {
		t.Fatalf("outcome %v after %d iterations (reason %q), want diverged at 3", res.Outcome, res.Iterations, res.Reason)
	}
	if res.Reason == "" {
		t.Error("guard-terminated solve must carry a Reason")
	}
}

func TestSolverPanicBecomesError(t *testing.T) {
	n := 16
	bad := OpFunc{N: n, F: func(dst, x []float64) { panic("operator exploded") }}
	b := make([]float64, n)
	b[0], b[n-1] = 1, -1
	_, err := PCGCtx(context.Background(), bad, nil, b, Options{Tol: 1e-8, MaxIter: 10})
	if err == nil {
		t.Fatal("panicking operator must surface as an error")
	}
	if !strings.Contains(err.Error(), "panic during solve") || !strings.Contains(err.Error(), "operator exploded") {
		t.Errorf("error %q does not describe the panic", err)
	}
}

func TestPCGDimensionMismatchError(t *testing.T) {
	g, _ := testSystem(t, 20)
	_, err := PCGCtx(context.Background(), LapOperator(g), nil, make([]float64, 3), DefaultOptions())
	if !errors.Is(err, graph.ErrBadDimension) {
		t.Fatalf("err = %v, want ErrBadDimension", err)
	}
}

// TestBlockBreakdownStaysInStruckColumn: one column of a 4-RHS engine solve
// breaks down; it alone stops, keeping the iterate it reached — the one a
// budget of five iterations leaves — and the reason, while its neighbours run
// on as if nothing had happened.
func TestBlockBreakdownStaysInStruckColumn(t *testing.T) {
	g, _ := testSystem(t, 24)
	rng := rand.New(rand.NewSource(25))
	bs := make([][]float64, 4)
	for j := range bs {
		bs[j] = meanFreeRHS(rng, g.N())
	}
	opt := DefaultOptions()
	eng, err := NewEngine(LapOperator(g), Jacobi(g), opt)
	if err != nil {
		t.Fatal(err)
	}
	clean, err := eng.SolveBlock(context.Background(), bs, opt)
	if err != nil {
		t.Fatal(err)
	}
	cleanIters := make([]int, len(clean))
	for j, res := range clean {
		if !res.Converged {
			t.Fatalf("clean column %d: %v", j, res.Outcome)
		}
		cleanIters[j] = res.Iterations
	}
	budget := opt
	budget.MaxIter = 5
	five, err := eng.SolveBlock(context.Background(), bs, budget)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]float64(nil), five[0].X...)

	// The sixth curvature check of the solve is forced negative; the fault
	// strikes the first active column, column 0.
	restore := faultinject.Activate(map[string]faultinject.Spec{
		faultinject.ForceBreakdown: {OnHit: 6, Count: 1},
	})
	defer restore()
	results, err := eng.SolveBlock(context.Background(), bs, opt)
	if err != nil {
		t.Fatal(err)
	}
	struck := results[0]
	if struck.Outcome != OutcomeBreakdown || !strings.Contains(struck.Reason, "pᵀAp") {
		t.Fatalf("struck column: outcome %v (%s), want a curvature breakdown", struck.Outcome, struck.Reason)
	}
	// Five iterations before the breakdown, one residual sample each after
	// ‖r₀‖; one matvec per iteration and one lost to the breakdown.
	if struck.Iterations != 5 || len(struck.Residuals) != 6 ||
		struck.Metrics.Iterations != 5 || struck.Metrics.MatVecs != 6 {
		t.Errorf("struck column: %d iterations, %d residuals, metrics %+v; want 5, 6, 6 matvecs",
			struck.Iterations, len(struck.Residuals), struck.Metrics)
	}
	for v := range want {
		if struck.X[v] != want[v] {
			t.Fatalf("struck column's x[%d] = %v, the five-iteration iterate has %v", v, struck.X[v], want[v])
		}
	}
	for j := 1; j < len(results); j++ {
		if res := results[j]; !res.Converged || res.Iterations != cleanIters[j] {
			t.Errorf("column %d: %v, %d iterations; want converged, %d",
				j, res.Outcome, res.Iterations, cleanIters[j])
		}
	}
}

// TestCleanSolveIsOneAttempt: a clean solve is one attempt from x = 0 — one
// matvec per iteration and none besides — and ends on a finite residual.
func TestCleanSolveIsOneAttempt(t *testing.T) {
	g, b := testSystem(t, 22)
	res, err := PCGCtx(context.Background(), LapOperator(g), nil, b, DefaultOptions())
	if err != nil {
		t.Fatalf("PCGCtx: %v", err)
	}
	if !res.Converged || res.Metrics.MatVecs != res.Iterations {
		t.Errorf("clean solve: converged=%v, %d matvecs for %d iterations", res.Converged, res.Metrics.MatVecs, res.Iterations)
	}
	if math.IsNaN(res.Metrics.FinalResidual) {
		t.Error("final residual is NaN")
	}
}

func TestEngineBusyDetected(t *testing.T) {
	g, b := testSystem(t, 23)
	entered := make(chan struct{})
	release := make(chan struct{})
	var once bool
	blocking := OpFunc{N: g.N(), F: func(dst, r []float64) {
		if !once {
			once = true
			close(entered)
			<-release
		}
		copy(dst, r)
	}}
	eng, err := NewEngine(LapOperator(g), blocking, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := eng.Solve(context.Background(), b)
		done <- err
	}()
	<-entered
	if _, err := eng.Solve(context.Background(), b); !errors.Is(err, ErrEngineBusy) {
		t.Errorf("overlapping solve: err = %v, want ErrEngineBusy", err)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("first solve: %v", err)
	}
	// The engine is free again after the first solve returns.
	if _, err := eng.Solve(context.Background(), b); err != nil {
		t.Errorf("post-release solve: %v", err)
	}
}
