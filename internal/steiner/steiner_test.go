package steiner

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"hcd/internal/decomp"
	"hcd/internal/dense"
	"hcd/internal/graph"
	"hcd/internal/hierarchy"
	"hcd/internal/solver"
	"hcd/internal/sparse"
	"hcd/internal/support"
	"hcd/internal/treealg"
	"hcd/internal/workload"
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

func fixedDecomp(t *testing.T, g *graph.Graph) *decomp.Decomposition {
	t.Helper()
	d, err := decomp.FixedDegreeCtx(context.Background(), g, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// steinerReference is the two-level Steiner apply B⁺r = D⁻¹r + R·Q⁺(Rᵀr)
// written out on its own: each cluster sums its members' residuals in
// ascending vertex order, the quotient is solved by its direct factor, and
// every vertex adds its cluster's value to its scaled residual.
// hierarchy.NewSteiner must reproduce it bit for bit whenever it factors the
// quotient directly.
func steinerReference(t *testing.T, d *decomp.Decomposition) func(dst, r []float64) {
	t.Helper()
	g := d.G
	fac, err := sparse.NewLapFactor(g.Contract(d.Assign, d.Count))
	if err != nil {
		t.Fatal(err)
	}
	members := make([][]int, d.Count)
	for v, c := range d.Assign {
		members[c] = append(members[c], v)
	}
	rq, yq := make([]float64, d.Count), make([]float64, d.Count)
	return func(dst, r []float64) {
		for c, vs := range members {
			acc := 0.0
			for _, v := range vs {
				acc += r[v]
			}
			rq[c] = acc
		}
		fac.Solve(yq, rq)
		for v := range dst {
			dInv := 0.0
			if vol := g.Vol(v); vol > 0 {
				dInv = 1 / vol
			}
			dst[v] = r[v]*dInv + yq[d.Assign[v]]
		}
	}
}

// TestSteinerMatchesReference: on every decomposition whose quotient is
// factored directly, the Steiner preconditioner is a one-level hierarchy whose
// apply is steinerReference, bit for bit.
func TestSteinerMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	type named struct {
		name string
		d    *decomp.Decomposition
	}
	var cases []named
	for _, side := range []int{8, 12, 20} {
		g := workload.OCT3D(side, side, side, workload.DefaultOCTOptions())
		cases = append(cases, named{fmt.Sprintf("oct:%d", side), fixedDecomp(t, g)})
	}
	cases = append(cases,
		named{"grid3d:12", fixedDecomp(t, workload.Grid3D(12, 12, 12, workload.Lognormal(1), 2))},
		named{"grid2d:40", fixedDecomp(t, workload.Grid2D(40, 40, workload.Lognormal(1), 3))})
	for it := 0; it < 4; it++ {
		g := treealg.RandomTree(rng, 30+rng.Intn(200), func() float64 { return 0.2 + rng.Float64()*4 })
		d, err := decomp.TreeCtx(context.Background(), g)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, named{fmt.Sprintf("tree#%d", it), d})
	}
	singletons := workload.Grid2D(6, 6, nil, 1)
	identity := make([]int, singletons.N())
	for v := range identity {
		identity[v] = v
	}
	cases = append(cases, named{"singletons", &decomp.Decomposition{G: singletons, Assign: identity, Count: singletons.N()}})

	for _, tc := range cases {
		h, err := hierarchy.NewSteiner(context.Background(), tc.d)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if h.Depth() != 1 || h.CoarseSize() != tc.d.Count {
			t.Fatalf("%s: levels %v, want one level onto the %d-vertex quotient", tc.name, h.LevelSizes(), tc.d.Count)
		}
		ref := steinerReference(t, tc.d)
		n := tc.d.G.N()
		got, want := make([]float64, n), make([]float64, n)
		for trial := 0; trial < 3; trial++ {
			r := meanFree(rng, n)
			h.Apply(got, r)
			ref(want, r)
			for v := range got {
				if math.Float64bits(got[v]) != math.Float64bits(want[v]) {
					t.Fatalf("%s trial %d: vertex %d: %v, reference %v", tc.name, trial, v, got[v], want[v])
				}
			}
		}
	}
}

func TestSteinerGraphStructure(t *testing.T) {
	g := workload.Grid2D(4, 4, workload.Lognormal(1), 1)
	d := fixedDecomp(t, g)
	s := SteinerGraph(d)
	if s.N() != g.N()+d.Count {
		t.Fatalf("S_P has %d vertices, want %d", s.N(), g.N()+d.Count)
	}
	// Leaf degrees: each original vertex connects only to its root.
	for v := 0; v < g.N(); v++ {
		if s.Degree(v) != 1 {
			t.Fatalf("leaf %d has degree %d", v, s.Degree(v))
		}
		w, ok := s.Weight(v, g.N()+d.Assign[v])
		if !ok || math.Abs(w-g.Vol(v)) > 1e-12 {
			t.Fatalf("leaf %d weight %v, want vol %v", v, w, g.Vol(v))
		}
	}
	if !s.Connected() {
		t.Error("S_P disconnected for connected input")
	}
}

// The analytic two-level apply must invert the dense Schur complement.
func TestApplyMatchesSchurComplement(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for it := 0; it < 8; it++ {
		g := treealg.RandomTree(rng, 12+rng.Intn(20), func() float64 { return 0.2 + rng.Float64()*4 })
		d, err := decomp.TreeCtx(context.Background(), g)
		if err != nil {
			t.Fatal(err)
		}
		p, err := hierarchy.NewSteiner(context.Background(), d)
		if err != nil {
			t.Fatal(err)
		}
		b, err := SchurDense(d)
		if err != nil {
			t.Fatal(err)
		}
		r := meanFree(rng, g.N())
		x := make([]float64, g.N())
		p.Apply(x, r)
		// Check B·x = r (up to the constant null component).
		bx := make([]float64, g.N())
		b.MulVec(bx, x)
		// Remove means of both sides before comparing.
		demean(bx)
		rr := append([]float64(nil), r...)
		demean(rr)
		for i := range bx {
			if math.Abs(bx[i]-rr[i]) > 1e-7 {
				t.Fatalf("it=%d: (Bx)[%d] = %v, want %v", it, i, bx[i], rr[i])
			}
		}
	}
}

func demean(x []float64) {
	s := 0.0
	for _, v := range x {
		s += v
	}
	for i := range x {
		x[i] -= s / float64(len(x))
	}
}

// The dense Schur complement must agree with eliminating the Steiner block
// of the materialized Steiner graph Laplacian — an independent derivation.
func TestSchurDenseMatchesBlockElimination(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := treealg.RandomTree(rng, 15, func() float64 { return 0.5 + rng.Float64() })
	d, err := decomp.TreeCtx(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SchurDense(d)
	if err != nil {
		t.Fatal(err)
	}
	s := SteinerGraph(d)
	n, m := g.N(), d.Count
	lap := s.LapDense()
	// Block elimination: B' = A_ll − A_lr·A_rr⁻¹·A_rl over root block.
	arr := dense.NewMatrix(m, m)
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			arr.Set(i, j, lap[(n+i)*s.N()+(n+j)])
		}
	}
	ch, err := dense.NewCholesky(arr) // A_rr = Q + D_Q is SPD
	if err != nil {
		t.Fatal(err)
	}
	col := make([]float64, m)
	sol := make([]float64, m)
	for u := 0; u < n; u++ {
		for i := 0; i < m; i++ {
			col[i] = lap[(n+i)*s.N()+u]
		}
		ch.Solve(sol, col)
		for v := 0; v < n; v++ {
			want := lap[v*s.N()+u]
			for i := 0; i < m; i++ {
				want -= lap[v*s.N()+(n+i)] * sol[i]
			}
			if math.Abs(b.At(v, u)-want) > 1e-8 {
				t.Fatalf("Schur mismatch at (%d,%d): %v vs %v", v, u, b.At(v, u), want)
			}
		}
	}
}

// Gremban's original view: preconditioning with S_P means solving the full
// (n+m)-dimensional Steiner system with right-hand side [r; 0] and reading
// the leaf block. The closed-form Apply must agree with that solve.
func TestApplyMatchesFullSteinerSystemSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for it := 0; it < 6; it++ {
		g := treealg.RandomTree(rng, 10+rng.Intn(15), func() float64 { return 0.3 + rng.Float64()*2 })
		d, err := decomp.TreeCtx(context.Background(), g)
		if err != nil {
			t.Fatal(err)
		}
		p, err := hierarchy.NewSteiner(context.Background(), d)
		if err != nil {
			t.Fatal(err)
		}
		s := SteinerGraph(d)
		comp, ncomp := s.Components()
		pin, err := dense.NewPinnedLaplacian(dense.FromRowMajor(s.N(), s.N(), s.LapDense()), comp, ncomp)
		if err != nil {
			t.Fatal(err)
		}
		n := g.N()
		r := meanFree(rng, n)
		full := make([]float64, s.N())
		copy(full, r) // [r; 0]
		sol := make([]float64, s.N())
		pin.Solve(sol, full)
		want := append([]float64(nil), sol[:n]...)
		demean(want)
		got := make([]float64, n)
		p.Apply(got, r)
		demean(got)
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-7 {
				t.Fatalf("it=%d: leaf %d: Apply %v vs full Steiner solve %v", it, i, got[i], want[i])
			}
		}
	}
}

// Theorem 3.5: σ(S_P, A) = σ(B, A) ≤ 3(1 + 2/φ³) with φ the exact minimum
// closure conductance of the decomposition.
func TestTheorem35BoundOnTrees(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for it := 0; it < 12; it++ {
		g := treealg.RandomTree(rng, 8+rng.Intn(16), func() float64 { return 0.2 + rng.Float64()*5 })
		d, err := decomp.TreeCtx(context.Background(), g)
		if err != nil {
			t.Fatal(err)
		}
		rep := decomp.Evaluate(d, graph.MaxExactConductance)
		if !rep.PhiExact || rep.Phi <= 0 {
			t.Fatalf("it=%d: need exact positive φ, got %+v", it, rep)
		}
		b, err := SchurDense(d)
		if err != nil {
			t.Fatal(err)
		}
		a := dense.FromRowMajor(g.N(), g.N(), g.LapDense())
		sigma, err := support.Sigma(b, a)
		if err != nil {
			t.Fatal(err)
		}
		bound := 3 * (1 + 2/math.Pow(rep.Phi, 3))
		if sigma > bound+1e-6 {
			t.Errorf("it=%d: σ(B,A)=%v exceeds Theorem 3.5 bound %v (φ=%v)", it, sigma, bound, rep.Phi)
		}
		if sigma < 1-1e-6 {
			t.Errorf("it=%d: σ(B,A)=%v < 1 (B should dominate A)", it, sigma)
		}
	}
}

func TestTheorem35BoundOnGrids(t *testing.T) {
	g := workload.Grid2D(5, 5, workload.Lognormal(1), 5)
	d := fixedDecomp(t, g)
	rep := decomp.Evaluate(d, graph.MaxExactConductance)
	if !rep.PhiExact {
		t.Fatal("need exact φ")
	}
	b, err := SchurDense(d)
	if err != nil {
		t.Fatal(err)
	}
	a := dense.FromRowMajor(g.N(), g.N(), g.LapDense())
	sigma, err := support.Sigma(b, a)
	if err != nil {
		t.Fatal(err)
	}
	bound := 3 * (1 + 2/math.Pow(rep.Phi, 3))
	if sigma > bound+1e-6 {
		t.Errorf("σ=%v > bound %v (φ=%v)", sigma, bound, rep.Phi)
	}
}

// The key routing step of Theorem 3.5: every quotient edge of S_P + A can
// be routed through S_P + A − Q along length-3 paths (root→u→v→root), with
// per-edge congestion at most its capacity — giving the embedding bound of
// exactly 3, which must also dominate the true support number.
func TestTheorem35RoutingStep(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	g := treealg.RandomTree(rng, 18, func() float64 { return 0.3 + rng.Float64()*3 })
	d, err := decomp.TreeCtx(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if d.Count < 2 {
		t.Skip("single cluster")
	}
	n := g.N()
	sp := SteinerGraph(d)
	// H2 = S_P + A − Q: star edges plus A's edges among the leaves.
	var h2Edges []graph.Edge
	for v := 0; v < n; v++ {
		h2Edges = append(h2Edges, graph.Edge{U: v, V: n + d.Assign[v], W: g.Vol(v)})
	}
	for _, e := range g.Edges() {
		h2Edges = append(h2Edges, e)
	}
	h2 := graph.MustFromEdges(sp.N(), h2Edges)
	// The A-side: the quotient edges lifted to root vertices.
	q := g.Contract(d.Assign, d.Count)
	var qEdges []graph.Edge
	for _, e := range q.Edges() {
		qEdges = append(qEdges, graph.Edge{U: n + e.U, V: n + e.V, W: e.W})
	}
	qLift := graph.MustFromEdges(sp.N(), qEdges)
	// Fractional routes: each crossing edge (u,v) carries its weight along
	// root(u) → u → v → root(v).
	routes := make([][]support.WeightedPath, len(qLift.Edges()))
	idxOf := make(map[[2]int]int)
	for i, e := range qLift.Edges() {
		idxOf[[2]int{e.U, e.V}] = i
	}
	for _, e := range g.Edges() {
		cu, cv := d.Assign[e.U], d.Assign[e.V]
		if cu == cv {
			continue
		}
		a, b := n+cu, n+cv
		if a > b {
			a, b = b, a
		}
		i := idxOf[[2]int{a, b}]
		u, v := e.U, e.V
		if d.Assign[u] != a-n {
			u, v = v, u
		}
		routes[i] = append(routes[i], support.WeightedPath{
			Weight: e.W,
			Edges:  [][2]int{{a, u}, {u, v}, {v, b}},
		})
	}
	bound, err := support.FractionalEmbeddingBound(qLift, h2, routes)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(bound-3) > 1e-9 {
		t.Errorf("embedding bound = %v, want exactly 3", bound)
	}
	// The bound dominates the true support number σ(Q_lift, H2).
	sigma, err := support.Sigma(
		dense.FromRowMajor(sp.N(), sp.N(), qLift.LapDense()),
		dense.FromRowMajor(sp.N(), sp.N(), h2.LapDense()))
	if err != nil {
		t.Fatal(err)
	}
	if sigma > bound+1e-7 {
		t.Errorf("σ(Q, S_P+A−Q) = %v exceeds embedding bound %v", sigma, bound)
	}
}

// The Steiner preconditioner must give a modest condition number and fast
// PCG convergence on the workloads of Section 3.2.
func TestSteinerPCGConvergence(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g := workload.OCT3D(6, 6, 12, workload.DefaultOCTOptions())
	d := fixedDecomp(t, g)
	p, err := hierarchy.NewSteiner(context.Background(), d)
	if err != nil {
		t.Fatal(err)
	}
	bvec := meanFree(rng, g.N())
	res, _ := solver.PCGCtx(context.Background(), solver.LapOperator(g), p, bvec, solver.DefaultOptions())
	if !res.Converged {
		t.Fatalf("Steiner PCG did not converge in %d iterations", res.Iterations)
	}
	// Verify the solve.
	ax := make([]float64, g.N())
	g.LapMul(ax, res.X)
	worst := 0.0
	for i := range ax {
		if dlt := math.Abs(ax[i] - bvec[i]); dlt > worst {
			worst = dlt
		}
	}
	if worst > 1e-5 {
		t.Errorf("residual inf-norm %v", worst)
	}
	// Compare with unpreconditioned CG on the same system.
	cg, _ := solver.PCGCtx(context.Background(), solver.LapOperator(g), nil, bvec, solver.DefaultOptions())
	t.Logf("steiner PCG iters=%d, plain CG iters=%d (converged=%v)", res.Iterations, cg.Iterations, cg.Converged)
	if cg.Converged && res.Iterations > cg.Iterations {
		t.Errorf("Steiner PCG (%d) slower than plain CG (%d) on OCT volume", res.Iterations, cg.Iterations)
	}
}

func TestConditionNumberConstantAcrossSizes(t *testing.T) {
	// Section 3.1's punchline: the two-level Steiner preconditioner keeps
	// κ roughly constant as n grows.
	rng := rand.New(rand.NewSource(9))
	var kappas []float64
	for _, side := range []int{6, 8, 10, 12} {
		g := workload.Grid2D(side, side, workload.Lognormal(1), 3)
		d := fixedDecomp(t, g)
		p, err := hierarchy.NewSteiner(context.Background(), d)
		if err != nil {
			t.Fatal(err)
		}
		nums, err := support.Probe(solver.LapOperator(g), p, meanFree(rng, g.N()), 60)
		if err != nil {
			t.Fatal(err)
		}
		kappas = append(kappas, nums.Kappa)
	}
	for i, k := range kappas {
		if k > 60 {
			t.Errorf("size %d: κ = %v too large for a two-level Steiner preconditioner", i, k)
		}
	}
	t.Logf("κ across sizes: %v", kappas)
}

func BenchmarkSteinerApply(b *testing.B) {
	g := workload.Grid3D(20, 20, 20, workload.Lognormal(1), 1)
	d, err := decomp.FixedDegreeCtx(context.Background(), g, 4, 1)
	if err != nil {
		b.Fatal(err)
	}
	p, err := hierarchy.NewSteiner(context.Background(), d)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	r := meanFree(rng, g.N())
	x := make([]float64, g.N())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Apply(x, r)
	}
}
