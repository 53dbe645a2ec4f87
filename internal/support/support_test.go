package support

import (
	"math"
	"math/rand"
	"testing"

	"hcd/internal/dense"
	"hcd/internal/graph"
	"hcd/internal/solver"
	"hcd/internal/workload"
)

func randomConnected(rng *rand.Rand, n, extra int) *graph.Graph {
	var es []graph.Edge
	for v := 1; v < n; v++ {
		es = append(es, graph.Edge{U: rng.Intn(v), V: v, W: 0.2 + rng.Float64()*3})
	}
	for i := 0; i < extra; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			es = append(es, graph.Edge{U: u, V: v, W: 0.2 + rng.Float64()*3})
		}
	}
	return graph.MustFromEdges(n, es)
}

func lapDense(g *graph.Graph) *dense.Matrix {
	return dense.FromRowMajor(g.N(), g.N(), g.LapDense())
}

func TestGeneralizedExtremesScaledPencil(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := randomConnected(rng, 12, 10)
	a := lapDense(g)
	b := lapDense(g)
	for i := range b.Data {
		b.Data[i] *= 2.5
	}
	lo, hi, err := GeneralizedExtremes(b, a, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(lo-2.5) > 1e-6 || math.Abs(hi-2.5) > 1e-6 {
		t.Errorf("extremes [%v, %v], want [2.5, 2.5]", lo, hi)
	}
}

func TestSigmaSubgraphBound(t *testing.T) {
	// For B a subgraph of A (same vertex set): σ(B, A) ≤ 1 and σ(A, B) ≥ 1.
	rng := rand.New(rand.NewSource(2))
	g := randomConnected(rng, 10, 12)
	tree := graph.MustFromEdges(g.N(), g.Edges()[:0:0])
	// Build a spanning subgraph: drop ~30% of edges but keep connectivity
	// by keeping a BFS tree.
	_, parent := g.BFS(0)
	inTree := make(map[[2]int]bool)
	var es []graph.Edge
	for v := 1; v < g.N(); v++ {
		w, _ := g.Weight(v, parent[v])
		u, x := v, parent[v]
		if u > x {
			u, x = x, u
		}
		inTree[[2]int{u, x}] = true
		es = append(es, graph.Edge{U: u, V: x, W: w})
	}
	for _, e := range g.Edges() {
		u, x := e.U, e.V
		if u > x {
			u, x = x, u
		}
		if !inTree[[2]int{u, x}] && rng.Float64() < 0.5 {
			es = append(es, e)
		}
	}
	sub := graph.MustFromEdges(g.N(), es)
	_ = tree
	sig, err := Sigma(lapDense(sub), lapDense(g))
	if err != nil {
		t.Fatal(err)
	}
	if sig > 1+1e-6 {
		t.Errorf("σ(B,A) = %v > 1 for subgraph", sig)
	}
	sigBack, err := Sigma(lapDense(g), lapDense(sub))
	if err != nil {
		t.Fatal(err)
	}
	if sigBack < 1-1e-6 {
		t.Errorf("σ(A,B) = %v < 1 for supergraph", sigBack)
	}
}

func TestConditionNumberIdentityPencil(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := randomConnected(rng, 9, 6)
	k, err := ConditionNumber(lapDense(g), lapDense(g))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(k-1) > 1e-6 {
		t.Errorf("κ(A,A) = %v", k)
	}
}

func TestProbeMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := randomConnected(rng, 40, 60)
	// B: the same graph with perturbed weights (×[1,3]).
	es := g.Edges()
	for i, e := range es {
		es[i].W = e.W * (1 + 2*perturb01(e.U, e.V))
	}
	h, err := graph.NewFromEdges(g.N(), es)
	if err != nil {
		t.Fatal(err)
	}
	// Dense truth.
	lo, hi, err := GeneralizedExtremes(lapDense(g), lapDense(h), 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	// Probe: preconditioner = exact H⁺ via dense pinned solve.
	comp := make([]int, g.N())
	pin, err := dense.NewPinnedLaplacian(lapDense(h), comp, 1)
	if err != nil {
		t.Fatal(err)
	}
	probe := make([]float64, g.N())
	for i := range probe {
		probe[i] = rng.NormFloat64()
	}
	nums, err := Probe(solver.LapOperator(g), solver.OpFunc{N: g.N(), F: pin.Solve}, probe, 80)
	if err != nil {
		t.Fatal(err)
	}
	// λ(H⁺A) extremes: λmax = σ(A,H), λmin = 1/σ(H,A).
	wantHi, wantLo := hi, lo // extremes of (A, H) pencil
	if math.Abs(nums.SigmaAB-wantHi)/wantHi > 0.05 {
		t.Errorf("σ(A,H) probe %v vs dense %v", nums.SigmaAB, wantHi)
	}
	if math.Abs(1/nums.SigmaBA-wantLo)/wantLo > 0.05 {
		t.Errorf("λmin probe %v vs dense %v", 1/nums.SigmaBA, wantLo)
	}
	if nums.Kappa < 1 {
		t.Errorf("κ = %v < 1", nums.Kappa)
	}
}

// perturb01 is a deterministic pseudo-random value in [0,1) per edge.
func perturb01(u, v int) float64 {
	if u > v {
		u, v = v, u
	}
	x := uint64(u)*1000003 + uint64(v) + 12345
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	return float64(x>>11) / float64(1<<53)
}

func TestEmbeddingBoundCycleIntoPath(t *testing.T) {
	// Route the cycle edge (0, n−1) along the path: classic example with
	// congestion·dilation = n−1 per edge.
	n := 6
	var cyc, path []graph.Edge
	for i := 0; i < n-1; i++ {
		e := graph.Edge{U: i, V: i + 1, W: 1}
		cyc = append(cyc, e)
		path = append(path, e)
	}
	cyc = append(cyc, graph.Edge{U: 0, V: n - 1, W: 1})
	a := graph.MustFromEdges(n, cyc)
	b := graph.MustFromEdges(n, path)
	paths := make([][][2]int, 0, a.M())
	for _, e := range a.Edges() {
		if (e.U == 0 && e.V == n-1) || (e.V == 0 && e.U == n-1) {
			var long [][2]int
			for i := 0; i < n-1; i++ {
				long = append(long, [2]int{i, i + 1})
			}
			paths = append(paths, long)
		} else {
			paths = append(paths, [][2]int{{e.U, e.V}})
		}
	}
	bound, err := EmbeddingBound(a, b, paths)
	if err != nil {
		t.Fatal(err)
	}
	// Each path edge carries its own unit load (dilation 1) plus the long
	// route's load (n−1): bound = 1 + (n−1) = n.
	if math.Abs(bound-float64(n)) > 1e-9 {
		t.Errorf("bound = %v, want %v", bound, n)
	}
	// The bound must dominate the true support number.
	sig, err := Sigma(lapDense(a), lapDense(b))
	if err != nil {
		t.Fatal(err)
	}
	if sig > bound+1e-9 {
		t.Errorf("true σ %v exceeds embedding bound %v", sig, bound)
	}
}

func TestGeneralizedExtremesErrors(t *testing.T) {
	a := dense.NewMatrix(2, 3)
	b := dense.NewMatrix(2, 2)
	if _, _, err := GeneralizedExtremes(b, a, 1e-9); err == nil {
		t.Error("non-square accepted")
	}
	zero := dense.NewMatrix(2, 2)
	if _, _, err := GeneralizedExtremes(b, zero, 1e-9); err == nil {
		t.Error("zero A accepted")
	}
}

func TestConditionNumberSingularPencil(t *testing.T) {
	// κ(A, B) with B = a disconnected subgraph of the path A: on range(A)
	// the pencil (B, A) has λmin = 0 (a vector varying only across B's
	// missing edge), so the condition number is +Inf.
	g := graph.MustFromEdges(3, []graph.Edge{{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1}})
	sub := graph.MustFromEdges(3, []graph.Edge{{U: 0, V: 1, W: 1}})
	k, err := ConditionNumber(lapDense(g), lapDense(sub))
	if err != nil {
		t.Fatal(err)
	}
	// λmin is zero up to eigensolver roundoff, so κ is numerically infinite.
	if !(math.IsInf(k, 1) || k > 1e12) {
		t.Errorf("κ = %v, want (numerically) +Inf for rank-deficient B", k)
	}
}

func TestFractionalEmbeddingBoundValidation(t *testing.T) {
	a := graph.MustFromEdges(2, []graph.Edge{{U: 0, V: 1, W: 2}})
	b := graph.MustFromEdges(2, []graph.Edge{{U: 0, V: 1, W: 1}})
	if _, err := FractionalEmbeddingBound(a, b, nil); err == nil {
		t.Error("missing routes accepted")
	}
	// Underweight routing.
	routes := [][]WeightedPath{{{Weight: 1, Edges: [][2]int{{0, 1}}}}}
	if _, err := FractionalEmbeddingBound(a, b, routes); err == nil {
		t.Error("underweight routing accepted")
	}
	// Correct split routing: 2× weight-1 along the same edge.
	routes = [][]WeightedPath{{
		{Weight: 1, Edges: [][2]int{{0, 1}}},
		{Weight: 1, Edges: [][2]int{{1, 0}}},
	}}
	bound, err := FractionalEmbeddingBound(a, b, routes)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(bound-2) > 1e-12 { // load 2 over capacity 1, dilation 1
		t.Errorf("bound = %v, want 2", bound)
	}
	// Non-contiguous path.
	bad := [][]WeightedPath{{{Weight: 2, Edges: [][2]int{{1, 0}, {1, 0}}}}}
	if _, err := FractionalEmbeddingBound(a, b, bad); err == nil {
		t.Error("non-terminating path accepted")
	}
	// Negative weight.
	neg := [][]WeightedPath{{{Weight: -1, Edges: [][2]int{{0, 1}}}}}
	if _, err := FractionalEmbeddingBound(a, b, neg); err == nil {
		t.Error("negative path weight accepted")
	}
}

func TestEmbeddingBoundValidation(t *testing.T) {
	a := graph.MustFromEdges(2, []graph.Edge{{U: 0, V: 1, W: 1}})
	b := graph.MustFromEdges(2, []graph.Edge{{U: 0, V: 1, W: 1}})
	if _, err := EmbeddingBound(a, b, nil); err == nil {
		t.Error("missing paths accepted")
	}
	if _, err := EmbeddingBound(a, b, [][][2]int{{{0, 1}, {0, 1}}}); err == nil {
		t.Error("non-terminating path accepted")
	}
	if _, err := EmbeddingBound(a, b, [][][2]int{{{1, 0}}}); err != nil {
		t.Errorf("reversed edge orientation rejected: %v", err)
	}
}

// Lemma 3.4 (star complement support): let A be a graph with volumes aᵢ and
// S the star whose i-th edge weight is cᵢ ≤ γ⁻¹·aᵢ (case (i): including the
// largest). Then σ(B, A) ≤ 2/(γ·φ²_A) where B is the Schur complement of
// the star root, bᵢⱼ = cᵢcⱼ/Σc.
func TestLemma34StarComplementSupport(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for it := 0; it < 12; it++ {
		n := 5 + rng.Intn(8)
		g := randomConnected(rng, n, n)
		phi, err := g.ExactConductance()
		if err != nil {
			t.Fatal(err)
		}
		if phi <= 0 {
			continue
		}
		gamma := 0.3 + 0.7*rng.Float64()
		c := make([]float64, n)
		sum := 0.0
		for v := 0; v < n; v++ {
			// cᵢ = fᵢ·γ⁻¹·aᵢ with fᵢ ∈ (0,1]: any weights satisfying the
			// hypothesis.
			c[v] = (0.2 + 0.8*rng.Float64()) / gamma * g.Vol(v)
			sum += c[v]
		}
		b := dense.NewMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i == j {
					b.Add(i, i, c[i]*(sum-c[i])/sum)
				} else {
					b.Add(i, j, -c[i]*c[j]/sum)
				}
			}
		}
		sigma, err := Sigma(b, lapDense(g))
		if err != nil {
			t.Fatal(err)
		}
		bound := 2 / (gamma * phi * phi)
		if sigma > bound+1e-7 {
			t.Fatalf("it=%d: σ(B,A) = %v exceeds Lemma 3.4 bound %v (γ=%v φ=%v)",
				it, sigma, bound, gamma, phi)
		}
	}
}

func TestProbeOnWorkloadGraph(t *testing.T) {
	g := workload.Grid2D(8, 8, workload.Lognormal(1), 5)
	rng := rand.New(rand.NewSource(6))
	probe := make([]float64, g.N())
	for i := range probe {
		probe[i] = rng.NormFloat64()
	}
	nums, err := Probe(solver.LapOperator(g), solver.Jacobi(g), probe, 60)
	if err != nil {
		t.Fatal(err)
	}
	if nums.Kappa < 1 || math.IsNaN(nums.Kappa) {
		t.Errorf("κ = %v", nums.Kappa)
	}
}
