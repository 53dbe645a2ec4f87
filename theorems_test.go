package hcd_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"hcd"
	"hcd/internal/decomp"
	"hcd/internal/graph"
	"hcd/internal/workload"
)

// theoremChecks are the paper's guarantees, and the cycle's symmetry and
// definiteness, as checks of one randomized instance each: check i draws its
// instance from the rng it is handed, so (i, seed) names one instance.
var theoremChecks = []struct {
	name string
	run  func(t *testing.T, rng *rand.Rand)
}{
	{"theorem 2.1: tree decomposition [φ≥1/3, ρ≥6/5]", checkTree},
	{"section 2: ≤1 γ-violation per cluster", checkGammaLemma},
	{"section 3.1: fixed-degree clustering [φ≥1/(2d²k), ρ≥2]", checkFixedDegree},
	{"theorem 2.2: planar pipeline validity", checkPlanar},
	{"theorem 3.5: σ(S_P, A) ≤ 3(1+2/φ³)", checkTheorem35},
	{"theorem 4.1: eigenvector alignment bound", checkTheorem41},
	{"two-level identity: PCG solves verified", checkSolve},
	{"V-cycle: symmetric, positive on mean-free vectors", checkCycleSPD},
	{"doubled tail: second coarse visits keep the cycle SPD", checkCycleTailSPD},
	{"scaling: weights ×2^e, b ×2^f solve to 2^(f−e)·x", checkScaling},
	{"arithmetic range: weights at the edges of float64", checkArithmeticRange},
	{"block columns are solo solves", checkBlockColumns},
	{"every clustered level at least halves", checkLevelsHalve},
}

// FuzzTheorems runs theorem check (check mod the check count) on the
// instance seed draws. The seed corpus is 25 seeds per check, so every test
// run checks each claim on 25 random instances; `go test -fuzz FuzzTheorems`
// draws further seeds, and a failing one is kept in testdata/fuzz.
func FuzzTheorems(f *testing.F) {
	for check := range theoremChecks {
		for seed := int64(1); seed <= 25; seed++ {
			f.Add(uint8(check), seed)
		}
	}
	f.Fuzz(func(t *testing.T, check uint8, seed int64) {
		c := theoremChecks[int(check)%len(theoremChecks)]
		defer func() {
			if t.Failed() {
				t.Logf("check %q, seed %d", c.name, seed)
			}
		}()
		c.run(t, rand.New(rand.NewSource(seed)))
	})
}

func randomTree(rng *rand.Rand, lo, hi int) *hcd.Graph {
	n := lo + rng.Intn(hi-lo)
	return hcd.RandomTree(n, hcd.LognormalWeights(1.5), rng.Int63())
}

func checkTree(t *testing.T, rng *rand.Rand) {
	g := randomTree(rng, 4, 200)
	d := decompose(t, g, hcd.DecomposeOptions{Method: hcd.MethodTree}).D
	if err := hcd.Validate(d); err != nil {
		t.Fatal(err)
	}
	rep := hcd.Evaluate(d)
	if !rep.PhiExact {
		t.Fatal("conductance not exact")
	}
	if rep.Phi < 1.0/3-1e-9 {
		t.Fatalf("φ = %v < 1/3", rep.Phi)
	}
	if rep.Rho < 6.0/5 {
		t.Fatalf("ρ = %v < 6/5", rep.Rho)
	}
}

func checkGammaLemma(t *testing.T, rng *rand.Rand) {
	g := randomTree(rng, 5, 150)
	d := decompose(t, g, hcd.DecomposeOptions{Method: hcd.MethodTree}).D
	rep := hcd.Evaluate(d)
	if mv := decomp.MaxGammaViolations(d, rep.Phi*(1-1e-9)); mv > 1 {
		t.Fatalf("%d γ-violations in a cluster", mv)
	}
}

func checkFixedDegree(t *testing.T, rng *rand.Rand) {
	side := 4 + rng.Intn(5)
	g := hcd.Grid3D(side, side, side, hcd.LognormalWeights(1), rng.Int63())
	d := fixedDegree(t, g, 4, rng.Int63())
	if err := hcd.Validate(d); err != nil {
		t.Fatal(err)
	}
	rep := hcd.Evaluate(d)
	if rep.Rho < 2 {
		t.Fatalf("ρ = %v < 2", rep.Rho)
	}
	dmax := g.MaxDegree()
	if floor := 1.0 / (2 * float64(dmax*dmax) * float64(rep.MaxClusterSize)); rep.Phi < floor {
		t.Fatalf("φ = %v below certified floor %v", rep.Phi, floor)
	}
}

func checkPlanar(t *testing.T, rng *rand.Rand) {
	side := 6 + rng.Intn(10)
	g := hcd.PlanarMesh(side, side, hcd.LognormalWeights(1), rng.Int63())
	d := decompose(t, g, hcd.DefaultDecomposeOptions(hcd.MethodPlanar)).D
	if err := hcd.Validate(d); err != nil {
		t.Fatal(err)
	}
	if rep := hcd.Evaluate(d); rep.Phi <= 0 || rep.Rho <= 1 {
		t.Fatalf("degenerate report %+v", rep)
	}
}

func checkTheorem35(t *testing.T, rng *rand.Rand) {
	g := randomTree(rng, 20, 400)
	d := decompose(t, g, hcd.DecomposeOptions{Method: hcd.MethodTree}).D
	rep := hcd.Evaluate(d)
	p, err := hcd.NewSteinerPreconditioner(d)
	if err != nil {
		t.Fatal(err)
	}
	nums, err := hcd.MeasureSupport(g, p, meanFree(rng, g.N()), 60)
	if err != nil {
		t.Fatal(err)
	}
	if bound := 3 * (1 + 2/math.Pow(rep.Phi, 3)); nums.SigmaBA > bound*1.01 {
		t.Fatalf("σ(B,A) = %v > bound %v (φ=%v)", nums.SigmaBA, bound, rep.Phi)
	}
}

func checkTheorem41(t *testing.T, rng *rand.Rand) {
	side := 5 + rng.Intn(6)
	g := hcd.Grid2D(side, side, hcd.LognormalWeights(1), rng.Int63())
	d := fixedDegree(t, g, 4, rng.Int63())
	rep := hcd.Evaluate(d)
	vals, vecs, err := hcd.SmallestEigenpairs(g, 3, 0, rng.Int63())
	if err != nil {
		t.Fatal(err)
	}
	for i := range vals {
		mis := 1 - hcd.Alignment(d, vecs[i])
		if bound := 3 * vals[i] * (1 + 2/math.Pow(rep.Phi, 3)); mis > bound+1e-7 {
			t.Fatalf("eig %d: misalignment %v > bound %v", i, mis, bound)
		}
	}
}

func checkSolve(t *testing.T, rng *rand.Rand) {
	side := 5 + rng.Intn(5)
	g := hcd.OCT3D(side, side, side, hcd.OCTOptions{
		Layers: 3, Contrast: 50, NoiseSigma: 1, Seed: rng.Int63(),
	})
	b := meanFree(rng, g.N())
	resp, err := hcd.Do(context.Background(), g, hcd.SolveRequest{B: [][]float64{b}, Options: hcd.DefaultSolveOptions()})
	if err != nil {
		t.Fatal(err)
	}
	res := resp.Results[0]
	if !res.Converged {
		t.Fatalf("not converged in %d iterations", res.Iterations)
	}
	if r := residual(g, res.X, b); r > 1e-5 {
		t.Fatalf("residual %v", r)
	}
}

// checkCycleSPD: the multilevel V-cycle is a fixed symmetric operator,
// positive on mean-free vectors — what PCG needs of it — on bipartite grids
// (λmax(D⁻¹A) = 2, the damped smoother's worst case) and on trees with
// random chords alike. A forest would be factored whole, with no cycle to
// probe, so a tree draws chords until one closes a cycle, and the depth is
// asserted.
func checkCycleSPD(t *testing.T, rng *rand.Rand) {
	var g *hcd.Graph
	if rng.Intn(2) == 0 {
		g = hcd.Grid2D(3+rng.Intn(8), 3+rng.Intn(8), hcd.LognormalWeights(1.5), rng.Int63())
	} else {
		n := 12 + rng.Intn(80)
		edges := hcd.RandomTree(n, hcd.LognormalWeights(1.5), rng.Int63()).Edges()
		for chords := rng.Intn(n); g == nil || g.M() < n; chords = 1 {
			for ; chords > 0; chords-- {
				if u, v := rng.Intn(n), rng.Intn(n); u != v {
					edges = append(edges, hcd.Edge{U: u, V: v, W: math.Exp(rng.NormFloat64())})
				}
			}
			var err error
			if g, err = hcd.NewGraph(n, edges); err != nil {
				t.Fatal(err)
			}
		}
	}
	if m := probeCycleSPD(t, rng, g, 4); m.Depth() == 0 {
		t.Fatalf("depth 0 on n=%d m=%d: no cycle probed", g.N(), g.M())
	}
}

// checkCycleTailSPD is checkCycleSPD where the cycle takes second coarse
// visits: grids of 400–1600 vertices recursed down to a handful, deep enough
// on every draw — asserted, not left to the draw — that the visit rule
// doubles a tail of levels.
func checkCycleTailSPD(t *testing.T, rng *rand.Rand) {
	g := hcd.Grid2D(20+rng.Intn(21), 20+rng.Intn(21), hcd.LognormalWeights(1.5), rng.Int63())
	m := probeCycleSPD(t, rng, g, 8)
	doubled := 0
	for _, s := range m.LevelScales() {
		if s.Visits == 2 {
			doubled++
		}
	}
	if doubled < 2 {
		t.Fatalf("%d doubled levels in %+v, want a tail of at least two (n=%d)", doubled, m.LevelScales(), g.N())
	}
}

// probeCycleSPD builds g's hierarchy down to directLimit vertices at a random
// seed and probes the cycle M with two mean-free vectors:
// ⟨Mu,v⟩ = ⟨u,Mv⟩ and ⟨Mu,u⟩, ⟨Mv,v⟩ > 0.
func probeCycleSPD(t *testing.T, rng *rand.Rand, g *hcd.Graph, directLimit int) *hcd.Hierarchy {
	opt := hcd.DefaultHierarchyOptions()
	opt.DirectLimit = directLimit
	opt.Seed = rng.Int63()
	m, err := hcd.NewHierarchyCtx(context.Background(), g, opt)
	if err != nil {
		t.Fatal(err)
	}
	n := g.N()
	u, v := meanFree(rng, n), meanFree(rng, n)
	mu, mv := make([]float64, n), make([]float64, n)
	m.Apply(mu, u)
	m.Apply(mv, v)
	dot := func(a, b []float64) float64 {
		s := 0.0
		for i := range a {
			s += a[i] * b[i]
		}
		return s
	}
	muv, umv, muu, mvv := dot(mu, v), dot(u, mv), dot(mu, u), dot(mv, v)
	if math.Abs(muv-umv) > 1e-10*math.Sqrt(muu*mvv) {
		t.Fatalf("⟨Mu,v⟩ = %v, ⟨u,Mv⟩ = %v (n=%d depth=%d)", muv, umv, n, m.Depth())
	}
	if !(muu > 0 && mvv > 0) {
		t.Fatalf("⟨Mu,u⟩ = %v, ⟨Mv,v⟩ = %v, want both positive (n=%d depth=%d)", muu, mvv, n, m.Depth())
	}
	return m
}

// checkScaling draws a graph family, an even weight exponent e, a
// right-hand-side exponent f and a width k ∈ {1, 3}: the graph with every
// weight times 2^e and the k right-hand sides times 2^f are solved along the
// unscaled system's path — the same outcome and iteration count — to exactly
// 2^(f−e)·x, by PCG and by block PCG on a warm engine
// (TestWeightScaleInvariant gives the reasons; an odd e moves x by a few ulps
// through the coarse factor's square roots). |2f − e| ≤ 600 keeps rᵀz in
// range.
func checkScaling(t *testing.T, rng *rand.Rand) {
	g := drawFamily(t, rng, 6)
	e, f, k := 2*(rng.Intn(201)-100), rng.Intn(401)-200, 1+2*rng.Intn(2)
	B, sB := make([][]float64, k), make([][]float64, k)
	for j := range B {
		B[j] = meanFree(rng, g.N())
		sB[j] = make([]float64, g.N())
		for v, x := range B[j] {
			sB[j][v] = math.Ldexp(x, f)
		}
	}
	solve := func(g *hcd.Graph, B [][]float64) [][]hcd.SolveResult {
		ctx := context.Background()
		m, err := hcd.NewPreconditioner(ctx, g, hcd.PrecondSpec{})
		if err != nil {
			t.Fatal(err)
		}
		opt := hcd.DefaultSolveOptions()
		eng, err := hcd.NewEngine(g, m, opt)
		if err != nil {
			t.Fatal(err)
		}
		var out [][]hcd.SolveResult
		for _, req := range []hcd.SolveRequest{
			{B: B[:1], M: m, Options: opt},
			{B: B, Engine: eng, Options: opt},
		} {
			resp, err := hcd.Do(ctx, g, req)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, resp.Results)
		}
		return out
	}
	base, got := solve(g, B), solve(scaledWeights(t, g, e), sB)
	for i, name := range []string{"pcg", "block pcg"} {
		for j, res := range got[i] {
			want := base[i][j]
			if res.Outcome != want.Outcome || res.Iterations != want.Iterations {
				t.Fatalf("%s e=%d f=%d k=%d rhs %d: %v after %d iterations, unscaled: %v after %d",
					name, e, f, k, j, res.Outcome, res.Iterations, want.Outcome, want.Iterations)
			}
			for v, x := range res.X {
				if x != math.Ldexp(want.X[v], f-e) {
					t.Fatalf("%s e=%d f=%d k=%d rhs %d: x[%d] = %v, want %v",
						name, e, f, k, j, v, x, math.Ldexp(want.X[v], f-e))
				}
			}
		}
	}
}

// scaledWeights is g with every weight times 2^e and its CSR unchanged.
func scaledWeights(t *testing.T, g *hcd.Graph, e int) *hcd.Graph {
	off, adj, w := g.CompactCSR()
	sw := make([]float64, len(w))
	for i, x := range w {
		sw[i] = math.Ldexp(x, e)
	}
	sg, err := graph.NewFromCSR(slices.Clone(off), slices.Clone(adj), sw)
	if err != nil {
		t.Fatal(err)
	}
	return sg
}

// drawFamily draws one small weighted graph: grid3d, road, FE mesh,
// power-law, OCT and (with families = 6) an anisotropic grid.
func drawFamily(t *testing.T, rng *rand.Rand, families int) *hcd.Graph {
	var g *hcd.Graph
	var err error
	seed := rng.Int63()
	switch rng.Intn(families) {
	case 0:
		s := 5 + rng.Intn(5)
		g = hcd.Grid3D(s, s, s, hcd.LognormalWeights(1), seed)
	case 1:
		s := 12 + rng.Intn(12)
		g, err = workload.RoadNetwork(s, s, 6, workload.Lognormal(0.5), seed)
	case 2:
		s := 10 + rng.Intn(12)
		g, err = workload.FEMesh(s, s, -1, workload.Lognormal(1), seed)
	case 3:
		g, err = workload.PowerLaw(200+rng.Intn(600), 3, workload.Lognormal(1), seed)
	case 4:
		s := 5 + rng.Intn(5)
		g = hcd.OCT3D(s, s, s, hcd.OCTOptions{Layers: 3, Contrast: 50, NoiseSigma: 1, Seed: seed})
	case 5:
		s := 5 + rng.Intn(5)
		g = hcd.Grid3DAnisotropic(s, s, s, 1, 1, math.Exp(5*rng.Float64()))
	}
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// checkArithmeticRange pushes a drawn graph's weights to the edges of the
// range a graph may hold — every merged weight finite and ≥ 2^−1022, Σ vol(v)
// finite — by ×2^e with e near +1 000 or −1 000, the top edge also as every
// edge split into two parallel halves merged by ReadEdgeList. One draw in
// four steps past the edge — the parallel draw by one more pair of parallel
// edges near MaxFloat64 — and must be rejected; the rest must be accepted.
// Every solve,
// under every preconditioner kind, ends in one of three ways: ErrInvalidInput
// at construction; a converged, finite x whose residual, with the weights
// scaled back by 2^−e, is small; or a typed non-convergence with a finite x.
// A graph that constructs reads back from WriteEdgeList bit for bit. The
// right-hand side is scaled by 2^f, f ≈ e/2, so that rᵀz stays in range; for
// e < 0, one draw in two takes f from [−620, −540] instead, where ‖b‖²
// underflows and the solver must rescale b to solve it.
func checkArithmeticRange(t *testing.T, rng *rand.Rand) {
	g0 := drawFamily(t, rng, 5)
	edges := g0.Edges()
	lo, total := math.MaxInt, 0.0
	for _, e := range edges {
		_, exp := math.Frexp(e.W)
		lo = min(lo, exp)
		total += 2 * e.W
	}
	_, hi := math.Frexp(total) // Σ vol(v) < 2^hi
	mode, over := rng.Intn(3), rng.Intn(4) == 0
	var e int
	switch {
	case mode == 1 && over: // the lightest weight below 2^−1022
		e = -1022 - lo - rng.Intn(3)
	case mode == 1: // every weight ≥ 2^(lo−1+e) ≥ 2^−1022
		e = -1021 - lo + rng.Intn(3)
	case over && mode == 0: // Σ vol(v) ≥ 2^1025
		e = 1026 - hi + rng.Intn(3)
	default: // Σ vol(v) < 2^1023
		e = 1023 - hi - rng.Intn(3)
	}
	var text strings.Builder
	fmt.Fprintf(&text, "n %d\n", g0.N())
	scaled := make([]hcd.Edge, len(edges))
	for i, ed := range edges {
		ed.W = math.Ldexp(ed.W, e)
		scaled[i] = ed
		fmt.Fprintf(&text, "%d %d %.17g\n%d %d %.17g\n", ed.U, ed.V, ed.W/2, ed.U, ed.V, ed.W/2)
	}
	var g *hcd.Graph
	var err error
	if mode == 2 {
		if over {
			ed := edges[rng.Intn(len(edges))]
			for range 2 {
				fmt.Fprintf(&text, "%d %d %.17g\n", ed.U, ed.V, math.MaxFloat64*(0.5+rng.Float64()/2))
			}
		}
		g, err = hcd.ReadEdgeList(strings.NewReader(text.String()))
	} else {
		g, err = hcd.NewGraph(g0.N(), scaled)
	}
	switch {
	case over && !errors.Is(err, hcd.ErrInvalidInput):
		t.Fatalf("mode %d, e = %d: past the range's edge: %v, want ErrInvalidInput", mode, e, err)
	case over:
		return
	case err != nil:
		t.Fatalf("mode %d, e = %d: in range: %v", mode, e, err)
	}

	var buf bytes.Buffer
	if err := hcd.WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	back, err := hcd.ReadEdgeList(&buf)
	if err != nil {
		t.Fatalf("mode %d, e = %d: ReadEdgeList rejects what WriteEdgeList wrote: %v", mode, e, err)
	}
	if !slices.Equal(back.Edges(), g.Edges()) {
		t.Fatalf("mode %d, e = %d: the edge list does not read back bit for bit", mode, e)
	}

	f := e/2 - 8
	if e < 0 {
		f = e/2 + 8
		if rng.Intn(2) == 0 { // ‖b‖² underflows; x = 2^(f−e)·x₀ stays in range
			f = -620 + rng.Intn(81)
		}
	}
	b0 := meanFree(rng, g.N())
	b := make([]float64, len(b0))
	for v, x := range b0 {
		b[v] = math.Ldexp(x, f)
	}
	unscaled := scaledWeights(t, g, -e)
	for _, kind := range []hcd.PrecondKind{hcd.PrecondHierarchy, hcd.PrecondJacobi, hcd.PrecondSteiner, hcd.PrecondTree, hcd.PrecondSubgraph} {
		resp, err := hcd.Do(context.Background(), g, hcd.SolveRequest{
			B: [][]float64{b}, Precond: hcd.PrecondSpec{Kind: kind}, Options: hcd.DefaultSolveOptions(),
		})
		if err != nil {
			if !errors.Is(err, hcd.ErrInvalidInput) {
				t.Fatalf("%s, mode %d, e = %d: %v, want ErrInvalidInput or a result", kind, mode, e, err)
			}
			continue
		}
		res := resp.Results[0]
		x0 := make([]float64, len(res.X))
		for v, x := range res.X {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				t.Fatalf("%s, mode %d, e = %d: x[%d] = %v beside a nil error (%v: %s)", kind, mode, e, v, x, res.Outcome, res.Reason)
			}
			x0[v] = math.Ldexp(x, e-f)
		}
		switch res.Outcome {
		case hcd.OutcomeConverged:
			if r := residual(unscaled, x0, b0); r > 1e-5 {
				t.Fatalf("%s, mode %d, e = %d: converged, rescaled residual %v", kind, mode, e, r)
			}
		case hcd.OutcomeMaxIter, hcd.OutcomeBreakdown, hcd.OutcomeDiverged:
		default:
			t.Fatalf("%s, mode %d, e = %d: outcome %v", kind, mode, e, res.Outcome)
		}
	}
}

// checkBlockColumns draws a graph family, a width k ∈ [2, 12] and a
// preconditioner kind — the hierarchy, the Steiner hierarchy or Jacobi — and
// holds every column of one hcd.Do call, and of one call on a warm Engine, to
// that column's solo hcd.Do, bit for bit: X, residual history, α, β,
// iteration count and outcome. A block solve is k solo solves done together.
func checkBlockColumns(t *testing.T, rng *rand.Rand) {
	g := drawFamily(t, rng, 6)
	k := 2 + rng.Intn(11)
	kind := []hcd.PrecondKind{hcd.PrecondHierarchy, hcd.PrecondSteiner, hcd.PrecondJacobi}[rng.Intn(3)]
	B := make([][]float64, k)
	for j := range B {
		B[j] = meanFree(rng, g.N())
	}
	ctx := context.Background()
	opt := hcd.DefaultSolveOptions()
	m, err := hcd.NewPreconditioner(ctx, g, hcd.PrecondSpec{Kind: kind})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := hcd.NewEngine(g, m, opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hcd.Do(ctx, g, hcd.SolveRequest{B: B[:1], Engine: eng, Options: opt}); err != nil {
		t.Fatal(err) // the engine's first solve: the block below runs warm
	}
	block, err := hcd.Do(ctx, g, hcd.SolveRequest{B: B, M: m, Options: opt})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := hcd.Do(ctx, g, hcd.SolveRequest{B: B, Engine: eng, Options: opt})
	if err != nil {
		t.Fatal(err)
	}
	for j, b := range B {
		solo, err := hcd.Do(ctx, g, hcd.SolveRequest{B: [][]float64{b}, M: m, Options: opt})
		if err != nil {
			t.Fatal(err)
		}
		for path, res := range map[string]hcd.SolveResult{"Do": block.Results[j], "Engine": warm.Results[j]} {
			if d := sameSolve(res, solo.Results[0]); d != "" {
				t.Fatalf("%s, n=%d, k=%d, %s column %d: %s", kind, g.N(), k, path, j, d)
			}
		}
	}
}

// checkLevelsHalve draws a graph family and appends e ∈ [0, n] edgeless
// vertices and p ∈ [0, n/4] disjoint pairs: every level the build clusters
// has at most ⌊n_ℓ/2⌋ + 1 clusters — §3.1's ρ ≥ 2 on the vertices with an
// edge, plus the one cluster the edgeless vertices share — and the default
// solve of a right-hand side that sums to zero on every component converges.
func checkLevelsHalve(t *testing.T, rng *rand.Rand) {
	fam := drawFamily(t, rng, 6)
	n0 := fam.N()
	e, p := rng.Intn(n0+1), rng.Intn(n0/4+1)
	n := n0 + e + 2*p
	es := fam.Edges()
	b := append(meanFree(rng, n0), make([]float64, e+2*p)...)
	for u := n0 + e; u < n; u += 2 {
		es = append(es, hcd.Edge{U: u, V: u + 1, W: math.Exp(rng.NormFloat64())})
		b[u] = rng.NormFloat64()
		b[u+1] = -b[u]
	}
	g, err := hcd.NewGraph(n, es)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	h, err := hcd.NewHierarchyCtx(ctx, g, hcd.DefaultHierarchyOptions())
	if err != nil {
		t.Fatal(err)
	}
	sizes := h.LevelSizes()
	for l := 0; l < h.Depth(); l++ {
		if sizes[l+1] > sizes[l]/2+1 {
			t.Fatalf("n=%d (%d edgeless, %d pairs): level %d of %v has %d clusters on %d vertices", n0, e, p, l, sizes, sizes[l+1], sizes[l])
		}
	}
	resp, err := hcd.Do(ctx, g, hcd.SolveRequest{B: [][]float64{b}, Options: hcd.DefaultSolveOptions()})
	if err != nil {
		t.Fatal(err)
	}
	if res := resp.Results[0]; !res.Converged {
		t.Fatalf("n=%d (%d edgeless, %d pairs): %v after %d iterations", n0, e, p, res.Outcome, res.Iterations)
	}
}
