package hierarchy

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"hcd/internal/decomp"
	"hcd/internal/dense"
	"hcd/internal/graph"
	"hcd/internal/solver"
	"hcd/internal/workload"
)

func hcdEdge(u, v int, w float64) graph.Edge { return graph.Edge{U: u, V: v, W: w} }

func mustGraph(n int, es []graph.Edge) *graph.Graph { return graph.MustFromEdges(n, es) }

// newSmooth builds g's hierarchy under opt with the cycle smooth names: 1 is
// the smoothed cycle New builds, 0 the unsmoothed Steiner recursion over the
// same levels (Rebuild of New's dump).
func newSmooth(tb testing.TB, g *graph.Graph, opt Options, smooth int) *Hierarchy {
	tb.Helper()
	h, err := New(g, opt)
	if err != nil {
		tb.Fatal(err)
	}
	if smooth == 0 {
		levels, _ := h.DumpLevels()
		if h, err = Rebuild(context.Background(), g, levels, 0); err != nil {
			tb.Fatal(err)
		}
	}
	return h
}

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

func TestHierarchyBuilds(t *testing.T) {
	g := workload.Grid3D(10, 10, 10, workload.Lognormal(1), 1)
	h, err := New(g, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if h.Dim() != g.N() {
		t.Fatalf("Dim = %d", h.Dim())
	}
	sizes := h.LevelSizes()
	if sizes[0] != g.N() {
		t.Fatalf("level sizes %v", sizes)
	}
	for i := 1; i < len(sizes); i++ {
		if sizes[i] >= sizes[i-1] {
			t.Fatalf("no reduction between levels: %v", sizes)
		}
		if float64(sizes[i]) > float64(sizes[i-1])/1.8 {
			t.Errorf("reduction below ~2 between levels %d and %d: %v", i-1, i, sizes)
		}
	}
	if h.CoarseSize() > DefaultOptions().DirectLimit {
		t.Errorf("coarse size %d above direct limit", h.CoarseSize())
	}
}

func TestHierarchyApplyIsSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := workload.Grid2D(15, 15, workload.Lognormal(1), 2)
	for _, smooth := range []int{0, 1} {
		opt := DefaultOptions()
		opt.DirectLimit = 20
		h := newSmooth(t, g, opt, smooth)
		x := meanFree(rng, g.N())
		y := meanFree(rng, g.N())
		hx := make([]float64, g.N())
		hy := make([]float64, g.N())
		h.Apply(hx, x)
		h.Apply(hy, y)
		xy := dot(y, hx)
		yx := dot(x, hy)
		if math.Abs(xy-yx) > 1e-8*math.Max(1, math.Abs(xy)) {
			t.Errorf("smooth=%d: apply not symmetric: %v vs %v", smooth, xy, yx)
		}
		// PSD along the probes.
		if dot(x, hx) < -1e-9 {
			t.Errorf("smooth=%d: negative quadratic form", smooth)
		}
	}
}

func TestHierarchyPCGConvergesOCT(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := workload.OCT3D(10, 10, 20, workload.DefaultOCTOptions())
	for _, smooth := range []int{0, 1} {
		opt := DefaultOptions()
		opt.DirectLimit = 100
		h := newSmooth(t, g, opt, smooth)
		b := meanFree(rng, g.N())
		res, _ := solver.PCGCtx(context.Background(), solver.LapOperator(g), h, b, solver.DefaultOptions())
		if !res.Converged {
			t.Fatalf("smooth=%d: multilevel PCG did not converge in %d iters", smooth, res.Iterations)
		}
		t.Logf("smooth=%d: depth=%d iters=%d", smooth, h.Depth(), res.Iterations)
	}
}

// TestSteinerLargeQuotient: a Steiner preconditioner whose quotient is above
// the direct limit recurses on it, and stays a fixed symmetric operator,
// positive definite on mean-free vectors, under which PCG converges.
func TestSteinerLargeQuotient(t *testing.T) {
	g := workload.OCT3D(24, 24, 24, workload.DefaultOCTOptions())
	d, err := decomp.FixedDegreeCtx(context.Background(), g, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewSteiner(context.Background(), d)
	if err != nil {
		t.Fatal(err)
	}
	sizes := h.LevelSizes()
	if d.Count <= steinerDirectLimit || h.Depth() < 2 || sizes[1] != d.Count || h.CoarseSize() > steinerDirectLimit {
		t.Fatalf("levels %v for a %d-vertex quotient, want level 0 onto it and recursion below %d", sizes, d.Count, steinerDirectLimit)
	}
	if s := h.LevelScales(); s[0].Visits != 1 || s[len(s)-1].Visits != 1 {
		t.Fatalf("pure recursion visits %+v", s)
	}
	n := g.N()
	rng := rand.New(rand.NewSource(4))
	const probes = 8
	xs, mxs := make([][]float64, probes), make([][]float64, probes)
	for i := range xs {
		xs[i], mxs[i] = meanFree(rng, n), make([]float64, n)
		h.Apply(mxs[i], xs[i])
	}
	gram := dense.NewMatrix(probes, probes)
	scale := 0.0
	for i := range xs {
		for j := range xs {
			gram.Set(i, j, dot(xs[i], mxs[j]))
			scale = math.Max(scale, math.Abs(gram.At(i, j)))
		}
	}
	for i := 0; i < probes; i++ {
		for j := 0; j < i; j++ {
			if diff := math.Abs(gram.At(i, j) - gram.At(j, i)); diff > 1e-12*scale {
				t.Fatalf("⟨x%d, M x%d⟩ and its transpose differ by %.3g (scale %.3g)", i, j, diff, scale)
			}
			gram.Set(i, j, gram.At(j, i))
		}
	}
	vals, _, err := dense.SymEig(gram)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range vals {
		if v < 1e-10*scale {
			t.Fatalf("Gram matrix of %d mean-free probes has eigenvalue %v (scale %.3g): %v", probes, v, scale, vals)
		}
	}
	res, _ := solver.PCGCtx(context.Background(), solver.LapOperator(g), h, meanFree(rng, n), solver.DefaultOptions())
	if !res.Converged {
		t.Fatalf("PCG did not converge in %d iterations", res.Iterations)
	}
	t.Logf("levels %v, %d iterations to 1e-8", sizes, res.Iterations)
}

func TestHierarchyIterationsNearlyFlat(t *testing.T) {
	// Multilevel behaviour: iteration counts grow at most mildly with n.
	rng := rand.New(rand.NewSource(3))
	var iters []int
	for _, side := range []int{8, 12, 16} {
		g := workload.OCT3D(side, side, side, workload.OCTOptions{Layers: 3, Contrast: 50, NoiseSigma: 1, Seed: 5})
		opt := DefaultOptions()
		opt.DirectLimit = 200
		h, err := New(g, opt)
		if err != nil {
			t.Fatal(err)
		}
		b := meanFree(rng, g.N())
		res, _ := solver.PCGCtx(context.Background(), solver.LapOperator(g), h, b, solver.DefaultOptions())
		if !res.Converged {
			t.Fatalf("side=%d did not converge", side)
		}
		iters = append(iters, res.Iterations)
	}
	t.Logf("iterations across sizes: %v", iters)
	if iters[2] > 4*iters[0]+10 {
		t.Errorf("iteration growth too steep: %v", iters)
	}
}

func TestHierarchySmallGraphDirect(t *testing.T) {
	g := workload.Grid2D(5, 5, nil, 1)
	opt := DefaultOptions()
	opt.DirectLimit = 100 // graph smaller than limit: zero levels
	h, err := New(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	if h.Depth() != 0 {
		t.Errorf("depth = %d, want 0", h.Depth())
	}
	rng := rand.New(rand.NewSource(4))
	b := meanFree(rng, g.N())
	x := make([]float64, g.N())
	h.Apply(x, b)
	ax := make([]float64, g.N())
	g.LapMul(ax, x)
	for i := range ax {
		if math.Abs(ax[i]-b[i]) > 1e-8 {
			t.Fatalf("direct solve residual[%d] = %v", i, ax[i]-b[i])
		}
	}
}

func TestHierarchyDisconnectedGraph(t *testing.T) {
	// Two separate grids in one graph: the hierarchy must build (per-
	// component pinning at the coarse level) and PCG must converge for a
	// right-hand side that is mean-free per component.
	a := workload.Grid2D(8, 8, workload.Lognormal(1), 1)
	edges := a.Edges()
	off := a.N()
	for _, e := range a.Edges() {
		edges = append(edges, hcdEdge(e.U+off, e.V+off, e.W))
	}
	g := mustGraph(2*a.N(), edges)
	opt := DefaultOptions()
	opt.DirectLimit = 30
	h, err := New(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	b := make([]float64, g.N())
	for comp := 0; comp < 2; comp++ {
		s := 0.0
		for v := 0; v < a.N(); v++ {
			b[comp*a.N()+v] = rng.NormFloat64()
			s += b[comp*a.N()+v]
		}
		for v := 0; v < a.N(); v++ {
			b[comp*a.N()+v] -= s / float64(a.N())
		}
	}
	res, _ := solver.PCGCtx(context.Background(), solver.LapOperator(g), h, b, solver.DefaultOptions())
	if !res.Converged {
		t.Fatalf("disconnected solve did not converge (%d iters)", res.Iterations)
	}
	ax := make([]float64, g.N())
	g.LapMul(ax, res.X)
	for i := range ax {
		if math.Abs(ax[i]-b[i]) > 1e-6 {
			t.Fatalf("residual[%d] = %v", i, ax[i]-b[i])
		}
	}
}

func TestHierarchyOptionsValidation(t *testing.T) {
	g := workload.Grid2D(4, 4, nil, 1)
	opt := DefaultOptions()
	opt.SizeCap = 1
	if _, err := New(g, opt); err == nil {
		t.Error("SizeCap 1 accepted")
	}
}

// TestBuildAllocationBudget pins the allocation count of a whole build. The
// clustering and the contraction work in flat arrays sized once per level,
// so the count follows the depth of the hierarchy, not the size of the graph
// (an edge-list contraction and per-vertex child slices made it ~50 000 here).
func TestBuildAllocationBudget(t *testing.T) {
	g := workload.Grid3D(32, 32, 32, workload.Lognormal(1), 1)
	ctx := context.Background()
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := NewCtx(ctx, g, DefaultOptions()); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocations per build", allocs)
	if allocs > 2000 {
		t.Errorf("a 32³ build made %.0f allocations, budget 2000", allocs)
	}
}

// TestBuildAllocBudget bounds the bytes a build allocates, the deterministic
// cost beside the build's wall-clock: at one worker a warm NewCtx on the
// lognormal 32³ grid allocates at most 1.55× the bytes of the hierarchy it
// returns — no level is stored twice: a quotient laid out through a renumbered
// copy made it 1.60× — and the level-0 clustering alone at most 60 B per
// vertex — the heaviest-edge pointers, an int32 forest adjacency and the kept
// assignment, not a weighted forest graph (2.40× and 138 B with one).
func TestBuildAllocBudget(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	g := workload.Grid3D(32, 32, 32, workload.Lognormal(1), 1)
	ctx := context.Background()
	allocated := func(f func()) float64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc - before.TotalAlloc)
	}
	opt := DefaultOptions()
	var h *Hierarchy
	build := func() {
		var err error
		if h, err = NewCtx(ctx, g, opt); err != nil {
			t.Fatal(err)
		}
	}
	build() // warm: pools and lazily initialised runtime state
	ratio := allocated(build) / float64(h.MemoryBytes())
	perVertex := allocated(func() {
		if _, err := decomp.FixedDegreeCtx(ctx, g, opt.SizeCap, opt.Seed); err != nil {
			t.Fatal(err)
		}
	}) / float64(g.N())
	t.Logf("build allocates %.2f× MemoryBytes, level-0 clustering %.1f B/vertex", ratio, perVertex)
	if ratio > 1.55 {
		t.Errorf("a 32³ build allocates %.2f× the hierarchy's MemoryBytes, budget 1.55×", ratio)
	}
	if perVertex > 60 {
		t.Errorf("the level-0 clustering allocates %.1f B/vertex, budget 60", perVertex)
	}
}

func dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

func BenchmarkHierarchyPCGSolve(b *testing.B) {
	g := workload.OCT3D(16, 16, 16, workload.DefaultOCTOptions())
	h, err := New(g, DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	rhs := meanFree(rng, g.N())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		solver.PCGCtx(context.Background(), solver.LapOperator(g), h, rhs, solver.DefaultOptions())
	}
}
