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

func TestRecoveryRestartsAfterBreakdown(t *testing.T) {
	g, b := testSystem(t, 13)
	// One NaN strikes mid-solve; the restart recomputes r = b − A·x from the
	// surviving iterate and must then run clean to convergence.
	restore := faultinject.Activate(map[string]faultinject.Spec{
		faultinject.MatvecNaN: {OnHit: 5, Count: 1},
	})
	defer restore()
	opt := DefaultOptions()
	opt.MaxRestarts = 2
	res, err := PCGCtx(context.Background(), LapOperator(g), nil, b, opt)
	if err != nil {
		t.Fatalf("PCGCtx: %v", err)
	}
	if !res.Converged {
		t.Fatalf("restarted solve did not converge: outcome %v reason %q", res.Outcome, res.Reason)
	}
	if res.Metrics.Restarts < 1 {
		t.Errorf("Restarts = %d, want >= 1", res.Metrics.Restarts)
	}
	if rn := residualNorm(g, res.X, b); rn > 1e-5 {
		t.Errorf("residual after recovery %v", rn)
	}
	// The stitched history must cover both attempts.
	if len(res.Residuals) < res.Iterations {
		t.Errorf("history %d entries for %d iterations", len(res.Residuals), res.Iterations)
	}
}

func TestRecoveryGivesUpAfterMaxRestarts(t *testing.T) {
	g, b := testSystem(t, 14)
	// Every attempt is poisoned, so all restarts burn out.
	restore := faultinject.Activate(map[string]faultinject.Spec{
		faultinject.MatvecNaN: {OnHit: 1, Count: 0},
	})
	defer restore()
	opt := DefaultOptions()
	opt.MaxRestarts = 2
	res, err := PCGCtx(context.Background(), LapOperator(g), nil, b, opt)
	if err != nil {
		t.Fatalf("PCGCtx: %v", err)
	}
	if res.Outcome != OutcomeBreakdown {
		t.Fatalf("outcome %v, want breakdown", res.Outcome)
	}
	if res.Metrics.Restarts != 2 {
		t.Errorf("Restarts = %d, want 2", res.Metrics.Restarts)
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

func TestWarmRestartKeepsReferenceNorm(t *testing.T) {
	g, b := testSystem(t, 21)
	restore := faultinject.Activate(map[string]faultinject.Spec{
		faultinject.ForceBreakdown: {OnHit: 6, Count: 1},
	})
	defer restore()
	opt := DefaultOptions()
	opt.MaxRestarts = 1
	res, err := PCGCtx(context.Background(), LapOperator(g), nil, b, opt)
	if err != nil {
		t.Fatalf("PCGCtx: %v", err)
	}
	if !res.Converged {
		t.Fatalf("outcome %v reason %q", res.Outcome, res.Reason)
	}
	// Convergence is relative to the FIRST attempt's ‖r₀‖: the true
	// residual must meet the original tolerance, not a restart-relative one.
	if rn := residualNorm(g, res.X, b); rn > 1e-6*res.Residuals[0]+1e-9 {
		t.Errorf("restarted solve converged against a weakened threshold: ‖r‖ = %v, ‖r₀‖ = %v", rn, res.Residuals[0])
	}
}

// TestBlockRecoveryRestartsStruckColumn: Options.MaxRestarts is honoured at any
// width. One column of a 4-RHS engine solve breaks down; it alone restarts —
// warm, as a one-column block — and converges against the first attempt's
// ‖r₀‖ with its history stitched across both attempts, while its neighbours
// run on as if nothing had happened.
func TestBlockRecoveryRestartsStruckColumn(t *testing.T) {
	g, _ := testSystem(t, 24)
	rng := rand.New(rand.NewSource(25))
	bs := make([][]float64, 4)
	for j := range bs {
		bs[j] = meanFreeRHS(rng, g.N())
	}
	opt := DefaultOptions()
	opt.MaxRestarts = 1
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
		if !res.Converged || res.Metrics.Restarts != 0 {
			t.Fatalf("clean column %d: %v, %d restarts", j, res.Outcome, res.Metrics.Restarts)
		}
		cleanIters[j] = res.Iterations
	}

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
	if !struck.Converged || struck.Metrics.Restarts != 1 {
		t.Fatalf("struck column: outcome %v (%s), %d restarts, want converged after 1",
			struck.Outcome, struck.Reason, struck.Metrics.Restarts)
	}
	// Five iterations before the breakdown plus the restart's, one residual
	// sample each after ‖r₀‖; one matvec per iteration, one lost to the
	// breakdown and one spent on the restart's r = b − A·x.
	if struck.Iterations <= 5 || len(struck.Residuals) != struck.Iterations+1 ||
		struck.Metrics.Iterations != struck.Iterations || struck.Metrics.MatVecs != struck.Iterations+2 {
		t.Errorf("struck column stitched wrong: %d iterations, %d residuals, metrics %+v",
			struck.Iterations, len(struck.Residuals), struck.Metrics)
	}
	if rn := residualNorm(g, struck.X, bs[0]); rn > 1e-6*struck.Residuals[0]+1e-9 {
		t.Errorf("struck column converged against a weakened threshold: ‖r‖ = %v, ‖r₀‖ = %v", rn, struck.Residuals[0])
	}
	for j := 1; j < len(results); j++ {
		if res := results[j]; !res.Converged || res.Metrics.Restarts != 0 || res.Iterations != cleanIters[j] {
			t.Errorf("column %d: %v, %d restarts, %d iterations; want converged, 0, %d",
				j, res.Outcome, res.Metrics.Restarts, res.Iterations, cleanIters[j])
		}
	}
}

func TestNoFaultsNoRestarts(t *testing.T) {
	g, b := testSystem(t, 22)
	opt := DefaultOptions()
	opt.MaxRestarts = 3
	res, err := PCGCtx(context.Background(), LapOperator(g), nil, b, opt)
	if err != nil {
		t.Fatalf("PCGCtx: %v", err)
	}
	if !res.Converged || res.Metrics.Restarts != 0 {
		t.Errorf("clean solve: converged=%v restarts=%d", res.Converged, res.Metrics.Restarts)
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
