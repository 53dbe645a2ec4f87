package solver

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"hcd/internal/graph"
	"hcd/internal/hierarchy"
	"hcd/internal/kernel"
	"hcd/internal/obs"
	"hcd/internal/par"
	"hcd/internal/workload"
)

// forceParallel raises GOMAXPROCS so the chunked kernel paths actually fan
// out even on single-core CI machines; returns a restore function.
func forceParallel(p int) func() {
	prev := runtime.GOMAXPROCS(p)
	return func() { runtime.GOMAXPROCS(prev) }
}

func randomConnectedGraph(rng *rand.Rand, n, extra int) *graph.Graph {
	es := make([]graph.Edge, 0, n-1+extra)
	for v := 1; v < n; v++ {
		es = append(es, graph.Edge{U: rng.Intn(v), V: v, W: 0.1 + rng.Float64()})
	}
	for i := 0; i < extra; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			es = append(es, graph.Edge{U: u, V: v, W: 0.1 + rng.Float64()})
		}
	}
	return graph.MustFromEdges(n, es)
}

// The parallel row-blocked matvec computes every row exactly as the serial
// loop does, so the results must be bitwise identical.
func TestParallelMatvecBitwiseEqualsSerial(t *testing.T) {
	defer forceParallel(8)()
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{50, 1000, 20000} {
		g := randomConnectedGraph(rng, n, n/2)
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		want := make([]float64, n)
		got := make([]float64, n)
		g.LapMulSerial(want, x)
		g.LapMul(got, x)
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("n=%d: row %d differs: serial %v parallel %v", n, i, want[i], got[i])
			}
		}
	}
}

// At width 1 the chunked reductions agree with one serial sum to rounding,
// and the elementwise direction update and mean shift are exact.
func TestParallelKernelsMatchSerial(t *testing.T) {
	defer forceParallel(8)()
	rng := rand.New(rand.NewSource(12))
	n := 3*kernelGrain + 137 // force multiple chunks
	a := make([]float64, n)
	b := make([]float64, n)
	for i := range a {
		a[i] = rng.NormFloat64()
		b[i] = rng.NormFloat64()
	}
	var s scratch
	out := make([]float64, 1)
	serialDot := 0.0
	for i := range a {
		serialDot += a[i] * b[i]
	}
	if s.blockDots(a, b, n, 1, out); math.Abs(out[0]-serialDot) > 1e-9*(1+math.Abs(serialDot)) {
		t.Errorf("dot: parallel %v vs serial %v", out[0], serialDot)
	}
	serialSum := 0.0
	for _, v := range a {
		serialSum += v
	}
	if s.blockColSums(a, n, 1, out); math.Abs(out[0]-serialSum) > 1e-9*(1+math.Abs(serialSum)) {
		t.Errorf("sum: parallel %v vs serial %v", out[0], serialSum)
	}

	p := append([]float64(nil), a...)
	par.For(n, kernel.ChunkRows(1), xpbySweep{p, b, []float64{0.37}, 1})
	for i := range p {
		if want := b[i] + 0.37*a[i]; p[i] != want {
			t.Fatalf("xpby row %d: %v vs %v", i, p[i], want)
		}
	}

	pm := append([]float64(nil), a...)
	mean := []float64{serialSum / float64(n)}
	s.blockSubMeanDot(pm, pm, n, 1, mean, out)
	for i := range pm {
		if want := a[i] - mean[0]; pm[i] != want {
			t.Fatalf("mean shift row %d: %v vs %v", i, pm[i], want)
		}
	}
}

// PCG under forced parallelism must solve to the same tolerance as the
// serial path and agree with it closely (identical recurrence, reassociated
// reductions).
func TestPCGParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	g := workload.Grid2D(40, 40, workload.Lognormal(1), 5)
	b := meanFreeRHS(rng, g.N())
	serial := pcg(t, LapOperator(g), Jacobi(g), b, DefaultOptions())

	restore := forceParallel(8)
	par := pcg(t, LapOperator(g), Jacobi(g), b, DefaultOptions())
	restore()

	if !serial.Converged || !par.Converged {
		t.Fatalf("convergence: serial %v parallel %v", serial.Outcome, par.Outcome)
	}
	for i := range serial.X {
		if math.Abs(serial.X[i]-par.X[i]) > 1e-6 {
			t.Fatalf("x[%d]: serial %v parallel %v", i, serial.X[i], par.X[i])
		}
	}
}

// slowOp wraps an operator with a per-apply delay so a cancellation arriving
// mid-solve is observable.
type slowOp struct {
	op    Operator
	delay time.Duration
}

func (s slowOp) Dim() int { return s.op.Dim() }
func (s slowOp) Apply(dst, x []float64) {
	time.Sleep(s.delay)
	s.op.Apply(dst, x)
}

func TestCancellationReturnsPromptly(t *testing.T) {
	g := workload.Grid2D(30, 30, workload.Lognormal(1), 7)
	rng := rand.New(rand.NewSource(14))
	b := meanFreeRHS(rng, g.N())
	op := slowOp{op: LapOperator(g), delay: 2 * time.Millisecond}
	opt := DefaultOptions()
	opt.Tol = 1e-14 // keep it iterating until cancelled
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	res, err := PCGCtx(ctx, op, Jacobi(g), b, opt)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != OutcomeCancelled {
		t.Fatalf("outcome %v, want cancelled (after %d iterations)", res.Outcome, res.Iterations)
	}
	if res.Converged {
		t.Error("cancelled solve reported Converged")
	}
	// The context is polled every iteration → at most one 2ms apply after
	// the cancel lands.
	if elapsed > 500*time.Millisecond {
		t.Errorf("cancelled solve took %v", elapsed)
	}
}

func TestCancelledBeforeStart(t *testing.T) {
	g := workload.Grid2D(10, 10, workload.Lognormal(1), 7)
	rng := rand.New(rand.NewSource(15))
	b := meanFreeRHS(rng, g.N())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := PCGCtx(ctx, LapOperator(g), Jacobi(g), b, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != OutcomeCancelled || res.Iterations != 0 {
		t.Errorf("outcome %v after %d iterations, want immediate cancel", res.Outcome, res.Iterations)
	}
}

func TestOutcomeMaxIter(t *testing.T) {
	g := workload.Grid2D(20, 20, workload.Lognormal(1), 3)
	rng := rand.New(rand.NewSource(17))
	b := meanFreeRHS(rng, g.N())
	opt := DefaultOptions()
	opt.MaxIter = 2
	res := pcg(t, LapOperator(g), Jacobi(g), b, opt)
	if res.Outcome != OutcomeMaxIter || res.Converged {
		t.Errorf("outcome %v converged=%v, want max-iterations", res.Outcome, res.Converged)
	}
	if errors.Is(ErrNotConverged, ErrNotConverged) != true {
		t.Error("sentinel identity broken")
	}
}

func TestMetricsPopulated(t *testing.T) {
	g := workload.Grid3D(8, 8, 8, workload.Lognormal(1), 2)
	rng := rand.New(rand.NewSource(18))
	b := meanFreeRHS(rng, g.N())
	res := pcg(t, LapOperator(g), Jacobi(g), b, DefaultOptions())
	m := res.Metrics
	if !res.Converged {
		t.Fatalf("solve did not converge: %v", res.Outcome)
	}
	if m.MatVecs != res.Iterations {
		t.Errorf("MatVecs %d vs iterations %d", m.MatVecs, res.Iterations)
	}
	if m.PrecondApplies < res.Iterations {
		t.Errorf("PrecondApplies %d < iterations %d", m.PrecondApplies, res.Iterations)
	}
	if m.Iterations != res.Iterations || m.TotalTime <= 0 {
		t.Errorf("metrics %+v inconsistent with result", m)
	}
	if m.FinalResidual != res.Residuals[len(res.Residuals)-1] {
		t.Errorf("FinalResidual %v vs history tail %v", m.FinalResidual, res.Residuals[len(res.Residuals)-1])
	}
	if m.TotalTime < m.IterTime {
		t.Errorf("TotalTime %v < IterTime %v", m.TotalTime, m.IterTime)
	}
}

func TestProgressCallback(t *testing.T) {
	g := workload.Grid2D(15, 15, workload.Lognormal(1), 4)
	rng := rand.New(rand.NewSource(19))
	b := meanFreeRHS(rng, g.N())
	var iters []int
	opt := DefaultOptions()
	opt.Observer = obs.ObserverFunc(func(iter int, resid float64) {
		iters = append(iters, iter)
		if resid < 0 || math.IsNaN(resid) {
			t.Errorf("bad residual %v at iter %d", resid, iter)
		}
	})
	res := pcg(t, LapOperator(g), Jacobi(g), b, opt)
	if len(iters) != res.Iterations {
		t.Errorf("progress called %d times for %d iterations", len(iters), res.Iterations)
	}
	for i, it := range iters {
		if it != i+1 {
			t.Fatalf("progress sequence broken at %d: %v", i, it)
		}
	}
}

// TestEngineRepeatedSolvesZeroAlloc holds the Engine to its contract: at one
// worker, warm solves allocate nothing — SolveBlock at k ∈ {1, 4, 8} under
// the default hierarchy and under Jacobi on grid2d:64, Solve on a small grid,
// and Solve of a right-hand side whose ‖b‖² underflows, which is rescaled in
// place.
func TestEngineRepeatedSolvesZeroAlloc(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	rng := rand.New(rand.NewSource(20))
	grid := workload.Grid2D(64, 64, workload.Lognormal(1), 1)
	if raceBuild {
		// The race detector slows the solves many times over, and its
		// sync.Pool drops a share of the hierarchy's work buffers, which are
		// then allocated again: a small grid, and Jacobi's count only.
		grid = workload.Grid2D(8, 8, workload.Lognormal(1), 1)
	}
	h, err := hierarchy.New(grid, hierarchy.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, pc := range []struct {
		name string
		m    Preconditioner
	}{{"hierarchy", h}, {"jacobi", Jacobi(grid)}} {
		eng, err := NewEngine(LapOperator(grid), pc.m, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{1, 4, 8} {
			bs := make([][]float64, k)
			for j := range bs {
				bs[j] = meanFreeRHS(rng, grid.N())
			}
			solve := func() {
				res, err := eng.SolveBlock(context.Background(), bs, DefaultOptions())
				if err != nil {
					t.Fatal(err)
				}
				for j, r := range res {
					if !r.Converged || r.Metrics.ScratchAllocs != 0 {
						t.Fatalf("%s k=%d column %d: converged %v, %d scratch buffers allocated", pc.name, k, j, r.Converged, r.Metrics.ScratchAllocs)
					}
				}
			}
			if _, err := eng.SolveBlock(context.Background(), bs, DefaultOptions()); err != nil {
				t.Fatal(err)
			}
			if allocs := testing.AllocsPerRun(5, solve); allocs != 0 && !(raceBuild && pc.name == "hierarchy") {
				t.Errorf("%s k=%d: a warm SolveBlock allocates %v times, want 0", pc.name, k, allocs)
			}
		}
	}

	g := workload.Grid2D(16, 16, workload.Lognormal(1), 5)
	b := meanFreeRHS(rng, g.N())
	eng, err := NewEngine(LapOperator(g), Jacobi(g), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	warm, err := eng.Solve(context.Background(), b)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Converged {
		t.Fatalf("warmup did not converge: %v", warm.Outcome)
	}
	if warm.Metrics.ScratchAllocs == 0 {
		t.Error("first solve should report its buffer allocations")
	}
	allocs := testing.AllocsPerRun(10, func() {
		res, err := eng.Solve(context.Background(), b)
		if err != nil || !res.Converged {
			t.Fatal("warm solve failed")
		}
		if res.Metrics.ScratchAllocs != 0 {
			t.Fatalf("warm solve allocated %d scratch buffers", res.Metrics.ScratchAllocs)
		}
	})
	if allocs != 0 {
		t.Errorf("warm engine solve allocates %v times per run, want 0", allocs)
	}
	// A right-hand side whose ‖b‖² underflows is rescaled in place.
	tiny := make([]float64, len(b))
	for v, x := range b {
		tiny[v] = math.Ldexp(x, -560)
	}
	allocs = testing.AllocsPerRun(10, func() {
		if res, err := eng.Solve(context.Background(), tiny); err != nil || !res.Converged || res.Iterations == 0 {
			t.Fatal("warm solve of a tiny b failed")
		}
	})
	if allocs != 0 {
		t.Errorf("warm engine solve of a tiny b allocates %v times per run, want 0", allocs)
	}
}

// TestEngineWarmSolvesAllocateNothingOnTwoWorkers: at two workers a warm
// SolveBlock on a 4 096-vertex graph, whose every sweep is shorter than one
// chunk, runs each of them on the calling goroutine and allocates nothing —
// restrict too, on the small levels where a sweep of its own grain fanned out
// and allocated its closure on every call. It counts with runtime.MemStats:
// testing.AllocsPerRun pins GOMAXPROCS to 1.
func TestEngineWarmSolvesAllocateNothingOnTwoWorkers(t *testing.T) {
	if raceBuild {
		t.Skip("the race detector's sync.Pool drops work buffers, which are then allocated again")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	// No collection while counting: one would empty the hierarchy's pool.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	fem, err := workload.FEMesh(64, 64, -1, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(21))
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{{"femesh:64", fem}, {"grid3d:16", workload.Grid3D(16, 16, 16, workload.Lognormal(1), 1)}} {
		h, err := hierarchy.New(tc.g, hierarchy.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		eng, err := NewEngine(LapOperator(tc.g), h, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{1, 2} {
			bs := make([][]float64, k)
			for j := range bs {
				bs[j] = meanFreeRHS(rng, tc.g.N())
			}
			solve := func() {
				res, err := eng.SolveBlock(context.Background(), bs, DefaultOptions())
				if err != nil {
					t.Fatal(err)
				}
				for j, r := range res {
					if !r.Converged {
						t.Fatalf("%s k=%d column %d did not converge: %v", tc.name, k, j, r.Outcome)
					}
				}
			}
			// The counter is the process's: a sync.Pool miss when the test
			// goroutine moves to the other P (the hierarchy's work buffers
			// sit in the P that put them), or the runtime starting a thread,
			// adds a few allocations to a round that are not the solve's.
			// What the solve allocates it allocates in every round, so the
			// least round is the solve's count.
			solve()
			least := uint64(math.MaxUint64)
			for round := 0; round < 8; round++ {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				solve()
				solve()
				runtime.ReadMemStats(&after)
				least = min(least, after.Mallocs-before.Mallocs)
			}
			if least != 0 {
				t.Errorf("%s k=%d: two warm SolveBlock calls at two workers allocate at least %d times, want 0", tc.name, k, least)
			}
		}
	}
}

func TestEngineResultsAliasBuffers(t *testing.T) {
	g := workload.Grid2D(12, 12, workload.Lognormal(1), 6)
	rng := rand.New(rand.NewSource(21))
	b1 := meanFreeRHS(rng, g.N())
	b2 := meanFreeRHS(rng, g.N())
	eng, err := NewEngine(LapOperator(g), Jacobi(g), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	r1, _ := eng.Solve(context.Background(), b1)
	x1 := append([]float64(nil), r1.X...)
	r2, _ := eng.Solve(context.Background(), b2)
	// r1.X aliases the engine buffer and has been overwritten by r2.
	if &r1.X[0] != &r2.X[0] {
		t.Error("engine results should share the X buffer")
	}
	// Sanity: the copied snapshot still verifies against b1.
	ax := make([]float64, g.N())
	g.LapMul(ax, x1)
	for i := range ax {
		if math.Abs(ax[i]-b1[i]) > 1e-5 {
			t.Fatalf("snapshot of first solve no longer solves b1 at %d", i)
		}
	}
}

func TestEngineDimErrors(t *testing.T) {
	g := workload.Grid2D(12, 12, workload.Lognormal(1), 6)
	rng := rand.New(rand.NewSource(22))
	b := meanFreeRHS(rng, g.N())
	eng, err := NewEngine(LapOperator(g), Jacobi(g), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Solve(context.Background(), b[:10]); !errors.Is(err, graph.ErrBadDimension) {
		t.Errorf("short rhs error %v, want ErrBadDimension", err)
	}
	if _, err := NewEngine(LapOperator(g), Identity(3), DefaultOptions()); !errors.Is(err, graph.ErrBadDimension) {
		t.Errorf("mismatched preconditioner error %v, want ErrBadDimension", err)
	}
}
