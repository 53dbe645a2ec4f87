package hcd_test

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"hcd"
)

func meanFree(rng *rand.Rand, n int) []float64 {
	b := make([]float64, n)
	s := 0.0
	for i := range b {
		b[i] = rng.NormFloat64()
		s += b[i]
	}
	for i := range b {
		b[i] -= s / float64(n)
	}
	return b
}

func residual(g *hcd.Graph, x, b []float64) float64 {
	ax := make([]float64, len(x))
	g.LapMul(ax, x)
	worst := 0.0
	for i := range ax {
		if d := math.Abs(ax[i] - b[i]); d > worst {
			worst = d
		}
	}
	return worst
}

// decompose runs one method of DecomposeCtx without the report stage.
func decompose(tb testing.TB, g *hcd.Graph, opt hcd.DecomposeOptions) *hcd.DecomposeResult {
	tb.Helper()
	opt.SkipReport = true
	res, err := hcd.DecomposeCtx(context.Background(), g, opt)
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

// fixedDegree is the Section 3.1 clustering of g.
func fixedDegree(tb testing.TB, g *hcd.Graph, sizeCap int, seed int64) *hcd.Decomposition {
	tb.Helper()
	return decompose(tb, g, hcd.DecomposeOptions{Method: hcd.MethodFixedDegree, SizeCap: sizeCap, Seed: seed}).D
}

func TestQuickstartFlow(t *testing.T) {
	g := hcd.Grid3D(8, 8, 8, hcd.LognormalWeights(1), 1)
	d := fixedDegree(t, g, 4, 1)
	if err := hcd.Validate(d); err != nil {
		t.Fatal(err)
	}
	rep := hcd.Evaluate(d)
	if rep.Phi <= 0 || rep.Rho < 2 {
		t.Fatalf("report %+v", rep)
	}
	p, err := hcd.NewSteinerPreconditioner(d)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	b := meanFree(rng, g.N())
	res, err := hcd.SolvePCGCtx(context.Background(), g, b, p, hcd.DefaultSolveOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("not converged after %d iterations", res.Iterations)
	}
	if r := residual(g, res.X, b); r > 1e-5 {
		t.Errorf("residual %v", r)
	}
}

func TestSolveDefaultPath(t *testing.T) {
	g := hcd.OCT3D(8, 8, 16, hcd.DefaultOCTOptions())
	rng := rand.New(rand.NewSource(3))
	b := meanFree(rng, g.N())
	res, err := hcd.SolveCtx(context.Background(), g, b)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("default Solve did not converge (%d iters)", res.Iterations)
	}
	if r := residual(g, res.X, b); r > 1e-5 {
		t.Errorf("residual %v", r)
	}
}

func TestPlanarPipelineEndToEnd(t *testing.T) {
	g := hcd.PlanarMesh(16, 16, hcd.LognormalWeights(1), 4)
	res := decompose(t, g, hcd.DefaultDecomposeOptions(hcd.MethodPlanar))
	if err := hcd.Validate(res.D); err != nil {
		t.Fatal(err)
	}
	rep := hcd.Evaluate(res.D)
	if rep.Phi <= 0 {
		t.Errorf("φ = %v", rep.Phi)
	}
	if rep.Rho <= 1 {
		t.Errorf("ρ = %v", rep.Rho)
	}
	if res.CoreSize <= 0 || res.CutEdges <= 0 {
		t.Errorf("pipeline stats %+v", res)
	}
	t.Logf("planar: φ=%.3f ρ=%.2f core=%d cut=%d avgStretch=%.2f",
		rep.Phi, rep.Rho, res.CoreSize, res.CutEdges, res.AvgStretch)
}

func TestMinorFreePipeline(t *testing.T) {
	g := hcd.Grid2D(20, 20, hcd.LognormalWeights(1.5), 5)
	opt := hcd.DefaultDecomposeOptions(hcd.MethodMinorFree)
	opt.Seed = 7
	res := decompose(t, g, opt)
	if err := hcd.Validate(res.D); err != nil {
		t.Fatal(err)
	}
	if rep := hcd.Evaluate(res.D); rep.Phi <= 0 || rep.Rho <= 1 {
		t.Errorf("report %+v", rep)
	}
}

func TestTreeDecompositionAPI(t *testing.T) {
	g := hcd.RandomTree(200, hcd.UniformWeights(0.1, 10), 6)
	d := decompose(t, g, hcd.DecomposeOptions{Method: hcd.MethodTree}).D
	rep := hcd.Evaluate(d)
	if rep.Phi < 1.0/3-1e-9 {
		t.Errorf("tree φ = %v below certified floor", rep.Phi)
	}
	if rep.Rho < 6.0/5 {
		t.Errorf("tree ρ = %v", rep.Rho)
	}
}

func TestSteinerVsSubgraphFigure6Shape(t *testing.T) {
	// The Figure 6 claim: at matched reduction factor, Steiner PCG needs
	// fewer iterations than subgraph PCG on a weighted 3D grid with large
	// weight variation.
	g := hcd.OCT3D(10, 10, 10, hcd.OCTOptions{Layers: 4, Contrast: 100, NoiseSigma: 1, Seed: 8})
	rng := rand.New(rand.NewSource(9))
	b := meanFree(rng, g.N())

	d := fixedDegree(t, g, 4, 1)
	steinerP, err := hcd.NewSteinerPreconditioner(d)
	if err != nil {
		t.Fatal(err)
	}
	subOpt := hcd.DefaultPlanarOptions()
	subOpt.ExtraFraction = 0.12
	subRes, err := hcd.NewSubgraphPreconditioner(g, subOpt)
	if err != nil {
		t.Fatal(err)
	}
	opt := hcd.DefaultSolveOptions()
	sres, serr := hcd.SolvePCGCtx(context.Background(), g, b, steinerP, opt)
	gres, gerr := hcd.SolvePCGCtx(context.Background(), g, b, subRes.P, opt)
	if serr != nil || gerr != nil {
		t.Fatalf("solve errors: steiner=%v subgraph=%v", serr, gerr)
	}
	if !sres.Converged || !gres.Converged {
		t.Fatalf("convergence: steiner=%v subgraph=%v", sres.Converged, gres.Converged)
	}
	t.Logf("iterations: steiner=%d subgraph=%d (core=%d, quotient=%d)",
		sres.Iterations, gres.Iterations, subRes.CoreSize, d.Count)
	if sres.Iterations > gres.Iterations {
		t.Errorf("Steiner (%d iters) should beat subgraph (%d iters) on OCT volume",
			sres.Iterations, gres.Iterations)
	}
}

func TestMeasureSupportSteiner(t *testing.T) {
	g := hcd.Grid2D(12, 12, hcd.LognormalWeights(1), 10)
	d := fixedDegree(t, g, 4, 2)
	p, err := hcd.NewSteinerPreconditioner(d)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	nums, err := hcd.MeasureSupport(g, p, meanFree(rng, g.N()), 60)
	if err != nil {
		t.Fatal(err)
	}
	rep := hcd.Evaluate(d)
	bound := 3 * (1 + 2/math.Pow(rep.Phi, 3))
	// σ(B,A) must respect Theorem 3.5 (the probe may slightly underestimate,
	// never overestimate beyond roundoff).
	if nums.SigmaBA > bound*1.01 {
		t.Errorf("σ(B,A)=%v exceeds Theorem 3.5 bound %v (φ=%v)", nums.SigmaBA, bound, rep.Phi)
	}
	if nums.Kappa < 1 {
		t.Errorf("κ = %v", nums.Kappa)
	}
	t.Logf("κ(A,B)=%.2f σ(A,B)=%.2f σ(B,A)=%.2f bound=%.1f", nums.Kappa, nums.SigmaAB, nums.SigmaBA, bound)
}

// TestLaminarHierarchyLevels: the hierarchy's level loop is the paper's
// recursive clustering. Every level's assignment, read back with DumpLevels
// and applied to the quotient contracted from the level above, is a valid
// decomposition that reduces its graph at least twofold.
func TestLaminarHierarchyLevels(t *testing.T) {
	g := hcd.Grid3D(10, 10, 10, hcd.LognormalWeights(1), 12)
	hopt := hcd.DefaultHierarchyOptions()
	hopt.DirectLimit = 50
	h, err := hcd.NewHierarchyCtx(context.Background(), g, hopt)
	if err != nil {
		t.Fatal(err)
	}
	levels, _ := h.DumpLevels()
	if len(levels) < 2 {
		t.Fatalf("expected multiple levels, got %d", len(levels))
	}
	cur := g
	for i, l := range levels {
		d := &hcd.Decomposition{G: cur, Assign: l.Assign, Count: l.Count}
		if err := hcd.Validate(d); err != nil {
			t.Fatalf("level %d invalid: %v", i, err)
		}
		if float64(l.Count) > float64(cur.N())/2+1 {
			t.Errorf("level %d reduction below 2: %d -> %d", i, cur.N(), l.Count)
		}
		cur = cur.Contract(l.Assign, l.Count)
	}
	if sizes := h.LevelSizes(); sizes[len(sizes)-1] != cur.N() || cur.N() > hopt.DirectLimit {
		t.Errorf("coarse graph has %d vertices, level sizes %v, direct limit %d", cur.N(), sizes, hopt.DirectLimit)
	}
}

func TestSpectralAPI(t *testing.T) {
	g := hcd.Grid2D(10, 10, nil, 1)
	vals, vecs, err := hcd.SmallestEigenpairs(g, 2, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if vals[0] <= 0 || vals[0] > vals[1]+1e-12 {
		t.Errorf("eigenvalues %v", vals)
	}
	d := fixedDegree(t, g, 4, 1)
	a := hcd.Alignment(d, vecs[0])
	if a < 0 || a > 1+1e-9 {
		t.Errorf("alignment %v", a)
	}
	// Theorem 4.1 shape: the lowest eigenvector aligns well with the
	// cluster space.
	if a < 0.5 {
		t.Errorf("low eigenvector alignment %v suspiciously small", a)
	}
	lo, hi, err := hcd.CheegerBounds(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if lo > hi {
		t.Errorf("Cheeger bracket inverted: [%v, %v]", lo, hi)
	}
}

func TestNewGraphValidation(t *testing.T) {
	if _, err := hcd.NewGraph(2, []hcd.Edge{{U: 0, V: 0, W: 1}}); err == nil {
		t.Error("self-loop accepted")
	}
	if _, err := hcd.NewGraph(2, []hcd.Edge{{U: 0, V: 1, W: -1}}); err == nil {
		t.Error("negative weight accepted")
	}
}
