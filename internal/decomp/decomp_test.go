package decomp

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"hcd/internal/graph"
	"hcd/internal/mst"
	"hcd/internal/treealg"
	"hcd/internal/workload"
)

// phiFloor is the closure conductance our tree construction certifies. The
// paper states 1/2; the local cut analysis of its construction yields 1/3 in
// the worst case (see tree.go), and measured values on random weights are
// typically ≥ 1/2.
const phiFloor = 1.0/3.0 - 1e-9

func evalExact(t *testing.T, d *Decomposition) Report {
	t.Helper()
	if err := d.Validate(); err != nil {
		t.Fatalf("invalid decomposition: %v", err)
	}
	r := Evaluate(d, graph.MaxExactConductance)
	return r
}

func TestTreeDecompositionTinyTrees(t *testing.T) {
	for n := 0; n <= 3; n++ {
		g := workload.Caterpillar(max(n, 1), 0, nil, 1)
		if n == 0 {
			g = graph.MustFromEdges(0, nil)
		}
		d, err := TreeCtx(context.Background(), g)
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			if d.Count != 0 {
				t.Errorf("n=0: count %d", d.Count)
			}
			continue
		}
		if d.Count != 1 {
			t.Errorf("n=%d: count %d, want 1", n, d.Count)
		}
	}
}

func TestTreeDecompositionPaths(t *testing.T) {
	for _, n := range []int{4, 5, 7, 10, 23, 50, 101} {
		g := workload.Caterpillar(n, 0, nil, 1)
		d, err := TreeCtx(context.Background(), g)
		if err != nil {
			t.Fatal(err)
		}
		r := evalExact(t, d)
		if !r.PhiExact {
			t.Fatalf("n=%d: expected exact conductances", n)
		}
		if r.Phi < phiFloor {
			t.Errorf("n=%d: φ = %v below floor", n, r.Phi)
		}
		if n >= 4 && r.Rho < 6.0/5.0 {
			t.Errorf("n=%d: ρ = %v < 6/5", n, r.Rho)
		}
	}
}

func TestTreeDecompositionStarsAndCaterpillars(t *testing.T) {
	star := workload.Caterpillar(1, 50, nil, 1)
	d, err := TreeCtx(context.Background(), star)
	if err != nil {
		t.Fatal(err)
	}
	if d.Count != 1 {
		t.Errorf("star should be one cluster, got %d", d.Count)
	}
	cat := workload.Caterpillar(20, 3, workload.UniformWeight(0.1, 10), 7)
	d, err = TreeCtx(context.Background(), cat)
	if err != nil {
		t.Fatal(err)
	}
	r := evalExact(t, d)
	if r.Phi < phiFloor {
		t.Errorf("caterpillar φ = %v", r.Phi)
	}
	if r.Rho < 6.0/5.0 {
		t.Errorf("caterpillar ρ = %v", r.Rho)
	}
}

func TestTreeDecompositionRandomTreesUnitWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	worstPhi, worstRho := math.Inf(1), math.Inf(1)
	for it := 0; it < 60; it++ {
		n := 4 + rng.Intn(150)
		g := treealg.RandomTree(rng, n, nil)
		d, err := TreeCtx(context.Background(), g)
		if err != nil {
			t.Fatal(err)
		}
		r := evalExact(t, d)
		if r.Phi < worstPhi {
			worstPhi = r.Phi
		}
		if r.Rho < worstRho {
			worstRho = r.Rho
		}
		if r.Phi < phiFloor {
			t.Fatalf("n=%d seed-it=%d: φ = %v below floor", n, it, r.Phi)
		}
		if r.Rho < 6.0/5.0 {
			t.Fatalf("n=%d: ρ = %v < 6/5", n, r.Rho)
		}
	}
	// The tight constant of the construction is 1/3, achieved already with
	// unit weights: for a hanging unit 3-chain v–u1–u2–u3 every feasible
	// local partition (whole chain, pair+fold, all folded) has a cut of
	// sparsity exactly 1/3, so the paper's stated 1/2 is not attainable.
	// See EXPERIMENTS.md E3 for the full discussion.
	if worstPhi < phiFloor {
		t.Errorf("unit-weight worst φ = %v below certified 1/3", worstPhi)
	}
	_ = worstRho
}

func TestTreeDecompositionRandomWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for it := 0; it < 60; it++ {
		n := 4 + rng.Intn(120)
		g := treealg.RandomTree(rng, n, func() float64 {
			return math.Exp(rng.NormFloat64() * 2) // heavy-tailed weights
		})
		d, err := TreeCtx(context.Background(), g)
		if err != nil {
			t.Fatal(err)
		}
		r := evalExact(t, d)
		if r.Phi < phiFloor {
			t.Fatalf("n=%d it=%d: φ = %v below certified floor", n, it, r.Phi)
		}
		if r.Rho < 6.0/5.0 {
			t.Fatalf("n=%d it=%d: ρ = %v < 6/5", n, it, r.Rho)
		}
	}
}

func TestTreeDecompositionForest(t *testing.T) {
	// Two trees: a 10-path and a 7-star, plus an isolated vertex.
	var es []graph.Edge
	for i := 0; i < 9; i++ {
		es = append(es, graph.Edge{U: i, V: i + 1, W: 1})
	}
	for i := 11; i < 17; i++ {
		es = append(es, graph.Edge{U: 10, V: i, W: 2})
	}
	g := graph.MustFromEdges(18, es)
	d, err := TreeCtx(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	r := evalExact(t, d)
	if r.Phi < phiFloor {
		t.Errorf("forest φ = %v", r.Phi)
	}
	// No cluster may span components.
	label, _ := g.Components()
	compOf := make(map[int]int)
	for v, c := range d.Assign {
		if prev, ok := compOf[c]; ok && prev != label[v] {
			t.Fatalf("cluster %d spans components", c)
		}
		compOf[c] = label[v]
	}
}

func TestTreeRejectsCycles(t *testing.T) {
	cyc := graph.MustFromEdges(3, []graph.Edge{{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1}, {U: 0, V: 2, W: 1}})
	if _, err := TreeCtx(context.Background(), cyc); err == nil {
		t.Error("cycle accepted")
	}
}

func TestFixedDegreeGrid(t *testing.T) {
	g := workload.Grid3D(8, 8, 8, workload.Lognormal(1), 3)
	d, err := FixedDegreeCtx(context.Background(), g, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	r := Evaluate(d, graph.MaxExactConductance)
	if r.Rho < 2 {
		t.Errorf("ρ = %v < 2", r.Rho)
	}
	if r.Singletons != 0 {
		t.Errorf("%d singleton clusters", r.Singletons)
	}
	// Paper bound for d=6, k=4 is 1/(2·36·4) ≈ 0.0035; in practice much
	// better. Require the certified paper bound.
	dmax := g.MaxDegree()
	bound := 1.0 / (2 * float64(dmax*dmax) * float64(r.MaxClusterSize))
	if r.Phi < bound {
		t.Errorf("φ = %v below paper bound %v", r.Phi, bound)
	}
}

func TestFixedDegreeRegular(t *testing.T) {
	g, err := workload.RandomRegular(200, 4, workload.UniformWeight(0.5, 5), 9)
	if err != nil {
		t.Fatal(err)
	}
	d, err := FixedDegreeCtx(context.Background(), g, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	r := Evaluate(d, graph.MaxExactConductance)
	if r.Rho < 2 || r.Singletons != 0 {
		t.Errorf("ρ=%v singletons=%d", r.Rho, r.Singletons)
	}
	if r.Phi <= 0 {
		t.Errorf("φ = %v", r.Phi)
	}
}

func TestFixedDegreeDeterministic(t *testing.T) {
	g := workload.Grid2D(15, 15, workload.Lognormal(1), 4)
	d1, _ := FixedDegreeCtx(context.Background(), g, 4, 7)
	d2, _ := FixedDegreeCtx(context.Background(), g, 4, 7)
	for v := range d1.Assign {
		if d1.Assign[v] != d2.Assign[v] {
			t.Fatal("FixedDegree not deterministic under fixed seed")
		}
	}
	d3, _ := FixedDegreeCtx(context.Background(), g, 4, 8)
	same := true
	for v := range d1.Assign {
		if d1.Assign[v] != d3.Assign[v] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds gave identical clustering (suspicious)")
	}
}

func TestFixedDegreeUniformTies(t *testing.T) {
	// Unit weights everywhere: only the perturbation breaks ties. The
	// forest property must still hold (this is ablation A2's premise).
	g := workload.Grid2D(20, 20, nil, 1)
	d, err := FixedDegreeCtx(context.Background(), g, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if r := Evaluate(d, graph.MaxExactConductance); r.Rho < 2 {
		t.Errorf("ρ = %v", r.Rho)
	}
}

func TestFixedDegreeSizeCapValidation(t *testing.T) {
	g := workload.Grid2D(4, 4, nil, 1)
	if _, err := FixedDegreeCtx(context.Background(), g, 1, 1); err == nil {
		t.Error("sizeCap 1 accepted")
	}
	if _, err := FixedDegreeCtx(context.Background(), graph.MustFromEdges(0, nil), 4, 1); err != nil {
		t.Error("empty graph should succeed")
	}
}

// sparseCore runs the Theorem 2.2 engine as the planar pipeline does:
// CoreCutCtx, TreeCtx on the forest, and the clustering read on b itself, so
// closure conductances count the cut edges as boundary stubs.
func sparseCore(b *graph.Graph) (*Decomposition, SparseStats, error) {
	forest, stats, err := CoreCutCtx(context.Background(), b)
	if err != nil {
		return nil, stats, err
	}
	td, err := TreeCtx(context.Background(), forest)
	if err != nil {
		return nil, stats, err
	}
	return &Decomposition{G: b, Assign: td.Assign, Count: td.Count}, stats, nil
}

func TestSparseCoreOnTreePlusEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for it := 0; it < 20; it++ {
		n := 30 + rng.Intn(120)
		tree := treealg.RandomTree(rng, n, func() float64 { return 0.1 + 10*rng.Float64() })
		es := tree.Edges()
		// Add ~n/8 extra edges.
		for i := 0; i < n/8; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				es = append(es, graph.Edge{U: u, V: v, W: 0.1 + 10*rng.Float64()})
			}
		}
		b := graph.MustFromEdges(n, es)
		d, stats, err := sparseCore(b)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Validate(); err != nil {
			t.Fatal(err)
		}
		r := Evaluate(d, graph.MaxExactConductance)
		if r.Phi <= 0 {
			t.Fatalf("n=%d: φ = %v", n, r.Phi)
		}
		if r.Rho < 1.1 {
			t.Errorf("n=%d: ρ = %v (stats %+v)", n, r.Rho, stats)
		}
	}
}

func TestSparseCoreCycle(t *testing.T) {
	// A pure cycle has no degree-3 vertex; the representative path trick
	// must still cut it.
	var es []graph.Edge
	n := 30
	for i := 0; i < n; i++ {
		es = append(es, graph.Edge{U: i, V: (i + 1) % n, W: 1 + float64(i%5)})
	}
	g := graph.MustFromEdges(n, es)
	d, stats, err := sparseCore(g)
	if err != nil {
		t.Fatal(err)
	}
	if stats.CutEdges < 1 {
		t.Errorf("no edges cut on a cycle")
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if r := Evaluate(d, graph.MaxExactConductance); r.Phi <= 0 {
		t.Errorf("φ = %v", r.Phi)
	}
}

func TestSparseCoreFallsBackToTree(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	tree := treealg.RandomTree(rng, 40, nil)
	d, stats, err := sparseCore(tree)
	if err != nil {
		t.Fatal(err)
	}
	if stats.CoreSize != 0 || stats.CutEdges != 0 {
		t.Errorf("tree input should bypass the core pipeline: %+v", stats)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSparseCoreRejectsDisconnected(t *testing.T) {
	g := graph.MustFromEdges(4, []graph.Edge{{U: 0, V: 1, W: 1}, {U: 2, V: 3, W: 1}})
	if _, _, err := sparseCore(g); err == nil {
		t.Error("disconnected graph accepted")
	}
}

func TestSparseCoreWithMaxSpanningTreeBase(t *testing.T) {
	// Build B = max-weight spanning tree + 10% heaviest off-tree edges of a
	// planar mesh, then check the induced decomposition of the mesh itself.
	g := workload.GridDiag2D(12, 12, workload.Lognormal(1), 5)
	treeEdges := mst.Kruskal(g, mst.Max)
	inTree := make(map[[2]int]bool)
	key := func(u, v int) [2]int {
		if u > v {
			u, v = v, u
		}
		return [2]int{u, v}
	}
	for _, e := range treeEdges {
		inTree[key(e.U, e.V)] = true
	}
	bEdges := append([]graph.Edge(nil), treeEdges...)
	budget := g.N() / 10
	for _, e := range g.Edges() {
		if budget == 0 {
			break
		}
		if !inTree[key(e.U, e.V)] {
			bEdges = append(bEdges, e)
			budget--
		}
	}
	b := graph.MustFromEdges(g.N(), bEdges)
	d, _, err := sparseCore(b)
	if err != nil {
		t.Fatal(err)
	}
	// Rebind to the original planar graph (Theorem 2.2's final step).
	da, err := Rebind(d, g)
	if err != nil {
		t.Fatal(err)
	}
	if err := da.Validate(); err != nil {
		t.Fatal(err)
	}
	rb := Evaluate(d, graph.MaxExactConductance)
	ra := Evaluate(da, graph.MaxExactConductance)
	if ra.Phi <= 0 {
		t.Errorf("φ in A = %v", ra.Phi)
	}
	if ra.Phi > rb.Phi+1e-9 {
		t.Errorf("conductance should not improve moving from B (%v) to A (%v)", rb.Phi, ra.Phi)
	}
}

func TestEvaluateGamma(t *testing.T) {
	// Cluster {0,1} in a path 0-1-2 with unit weights: vertex 1 keeps 1 of
	// its volume 2 inside → γ = 1/2; vertex 0 keeps everything → γ = 1.
	g := graph.MustFromEdges(3, []graph.Edge{{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1}})
	d := &Decomposition{G: g, Assign: []int{0, 0, 1}, Count: 2}
	r := Evaluate(d, graph.MaxExactConductance)
	if r.GammaMin != 0 { // singleton {2} has γ = 0
		t.Errorf("GammaMin = %v", r.GammaMin)
	}
	if r.Singletons != 1 {
		t.Errorf("Singletons = %d", r.Singletons)
	}
}

// Section 2's lemma: if a cluster's closure has conductance ≥ φ, at most
// one of its vertices can violate cap(v, C−v) ≥ φ·vol(v). We verify it with
// the measured exact φ on random tree decompositions.
func TestAtMostOneGammaViolationPerCluster(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for it := 0; it < 30; it++ {
		n := 5 + rng.Intn(120)
		g := treealg.RandomTree(rng, n, func() float64 {
			return math.Exp(rng.NormFloat64())
		})
		d, err := TreeCtx(context.Background(), g)
		if err != nil {
			t.Fatal(err)
		}
		rep := Evaluate(d, graph.MaxExactConductance)
		if !rep.PhiExact {
			continue
		}
		// Strictly below φ the paper's argument applies; use φ−ε to stay on
		// the safe side of boundary cases.
		if mv := MaxGammaViolations(d, rep.Phi*(1-1e-9)); mv > 1 {
			t.Fatalf("n=%d it=%d: %d γ-violations in one cluster (φ=%v)", n, it, mv, rep.Phi)
		}
	}
}

func TestGammaViolationsCounts(t *testing.T) {
	// Path 0-1-2 clustered as {0,1},{2}: vertex 1 keeps 1/2 of its volume,
	// vertex 0 keeps all, singleton keeps none.
	g := graph.MustFromEdges(3, []graph.Edge{{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1}})
	d := &Decomposition{G: g, Assign: []int{0, 0, 1}, Count: 2}
	viol := gammaViolations(d, 0.75)
	if viol[0] != 1 { // only vertex 1 violates γ=0.75
		t.Errorf("cluster 0 violations = %d, want 1", viol[0])
	}
	if viol[1] != 1 { // the singleton keeps nothing
		t.Errorf("cluster 1 violations = %d, want 1", viol[1])
	}
	if MaxGammaViolations(d, 0.1) != 1 {
		t.Errorf("γ=0.1 violations = %d", MaxGammaViolations(d, 0.1))
	}
}

func TestValidateCatchesBrokenPartitions(t *testing.T) {
	g := workload.Grid2D(3, 3, nil, 1)
	d := &Decomposition{G: g, Assign: []int{0, 0, 0, 1, 1, 1, 2, 2, 5}, Count: 3}
	if err := d.Validate(); err == nil {
		t.Error("out-of-range cluster accepted")
	}
	// Disconnected cluster: two opposite corners.
	d = &Decomposition{G: g, Assign: []int{0, 1, 1, 1, 1, 1, 1, 1, 0}, Count: 2}
	if err := d.Validate(); err == nil {
		t.Error("disconnected cluster accepted")
	}
	// Empty cluster id.
	d = &Decomposition{G: g, Assign: []int{0, 0, 0, 0, 0, 0, 0, 0, 0}, Count: 2}
	if err := d.Validate(); err == nil {
		t.Error("empty cluster accepted")
	}
}

func TestAgreementMetrics(t *testing.T) {
	// Identical clusterings: purity 1, Rand 1.
	a := []int{0, 0, 1, 1, 2}
	rep, err := Agreement(a, a)
	if err != nil || rep.Purity != 1 || rep.RandIndex != 1 {
		t.Errorf("identical: %+v err=%v", rep, err)
	}
	// Relabeled clusterings are still perfect.
	b := []int{5, 5, 9, 9, 7}
	rep, _ = Agreement(a, b)
	if rep.Purity != 1 || rep.RandIndex != 1 {
		t.Errorf("relabel: %+v", rep)
	}
	// All-singletons vs all-one-cluster: every a-cluster is trivially pure
	// (purity 1), but every vertex pair disagrees about togetherness
	// (together in b, apart in a) → Rand index 0.
	rep, _ = Agreement([]int{0, 1, 2}, []int{0, 0, 0})
	if rep.Purity != 1 || rep.RandIndex != 0 {
		t.Errorf("singletons-vs-one: %+v", rep)
	}
	// The reverse direction is impure: one a-cluster spans 3 b-clusters.
	rep, _ = Agreement([]int{0, 0, 0}, []int{0, 1, 2})
	if rep.Purity != 1.0/3 || rep.RandIndex != 0 {
		t.Errorf("one-vs-singletons: %+v", rep)
	}
	if _, err := Agreement([]int{0}, []int{0, 1}); err == nil {
		t.Error("length mismatch accepted")
	}
	if rep, _ := Agreement(nil, nil); rep.Purity != 1 || rep.RandIndex != 1 {
		t.Errorf("empty agreement: %+v", rep)
	}
}

func TestMergeSingletonsImprovesRho(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for it := 0; it < 10; it++ {
		n := 50 + rng.Intn(200)
		g := treealg.RandomTree(rng, n, func() float64 { return 0.2 + rng.Float64()*5 })
		d, err := TreeCtx(context.Background(), g)
		if err != nil {
			t.Fatal(err)
		}
		before := Evaluate(d, graph.MaxExactConductance)
		minPhi := 1.0 / 3
		md, merges := MergeSingletons(d, minPhi, graph.MaxExactConductance)
		if err := md.Validate(); err != nil {
			t.Fatal(err)
		}
		after := Evaluate(md, graph.MaxExactConductance)
		if after.Rho < before.Rho-1e-12 {
			t.Fatalf("it=%d: ρ decreased %v -> %v", it, before.Rho, after.Rho)
		}
		if merges > 0 && after.Singletons >= before.Singletons {
			t.Fatalf("it=%d: %d merges but singletons %d -> %d",
				it, merges, before.Singletons, after.Singletons)
		}
		// Conductance floor preserved.
		if after.Phi < math.Min(before.Phi, minPhi)-1e-12 {
			t.Fatalf("it=%d: φ dropped below floor: %v -> %v", it, before.Phi, after.Phi)
		}
	}
}

func TestMergeSingletonsNoOpWhenNoSingletons(t *testing.T) {
	g := workload.Grid2D(8, 8, workload.Lognormal(1), 1)
	d, err := FixedDegreeCtx(context.Background(), g, 4, 1) // guaranteed singleton-free
	if err != nil {
		t.Fatal(err)
	}
	md, merges := MergeSingletons(d, 0.5, graph.MaxExactConductance)
	if merges != 0 || md.Count != d.Count {
		t.Errorf("unexpected merges: %d (count %d -> %d)", merges, d.Count, md.Count)
	}
}

func TestDetailsConsistentWithEvaluate(t *testing.T) {
	g := workload.Grid2D(10, 10, workload.Lognormal(1), 8)
	d, err := FixedDegreeCtx(context.Background(), g, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	rep := Evaluate(d, graph.MaxExactConductance)
	var runs [2][]ClusterStats
	for i, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		runs[i] = Details(d, graph.MaxExactConductance)
		runtime.GOMAXPROCS(prev)
	}
	if !slices.Equal(runs[0], runs[1]) {
		t.Fatal("details differ between one worker and four")
	}
	det := runs[0]
	if len(det) != d.Count {
		t.Fatalf("details for %d clusters, want %d", len(det), d.Count)
	}
	// Sorted ascending by φ; the first entry is the report's Phi, and the
	// least γ the report's GammaMin, bit for bit: both read one measurement.
	if det[0].Phi != rep.Phi {
		t.Errorf("min φ mismatch: details %v vs report %v", det[0].Phi, rep.Phi)
	}
	gm := math.Inf(1)
	for i, s := range det {
		if i > 0 && s.Phi < det[i-1].Phi {
			t.Fatal("details not sorted by φ")
		}
		gm = min(gm, s.GammaMin)
	}
	if gm != rep.GammaMin {
		t.Errorf("min γ mismatch: details %v vs report %v", gm, rep.GammaMin)
	}
	totalVol := 0.0
	for _, s := range det {
		totalVol += s.Vol
		if s.BoundaryRatio < 0 || s.BoundaryRatio > 1+1e-12 {
			t.Errorf("cluster %d ψ = %v", s.ID, s.BoundaryRatio)
		}
		if s.Size < 1 {
			t.Errorf("cluster %d empty", s.ID)
		}
		if s.String() == "" {
			t.Error("empty string rendering")
		}
	}
	if math.Abs(totalVol-g.TotalVol()) > 1e-9 {
		t.Errorf("cluster volumes sum to %v, want %v", totalVol, g.TotalVol())
	}
}

// TestTreeWorkerCountInvariant: the per-bridge case analysis fans out over
// par.For, which runs serially at one worker; the decomposition is the same
// at one worker and at four.
func TestTreeWorkerCountInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for it := 0; it < 20; it++ {
		n := 4 + rng.Intn(400)
		g := treealg.RandomTree(rng, n, func() float64 { return 0.2 + rng.Float64()*5 })
		var ds [2]*Decomposition
		for i, procs := range []int{1, 4} {
			prev := runtime.GOMAXPROCS(procs)
			d, err := TreeCtx(context.Background(), g)
			runtime.GOMAXPROCS(prev)
			if err != nil {
				t.Fatal(err)
			}
			ds[i] = d
		}
		if ds[0].Count != ds[1].Count {
			t.Fatalf("n=%d: counts differ %d vs %d", n, ds[0].Count, ds[1].Count)
		}
		for v := range ds[0].Assign {
			if ds[0].Assign[v] != ds[1].Assign[v] {
				t.Fatalf("n=%d: assignment differs at %d", n, v)
			}
		}
	}
}

func BenchmarkTreeDecomposition(b *testing.B) {
	rng := rand.New(rand.NewSource(13))
	g := treealg.RandomTree(rng, 100000, func() float64 { return 0.1 + rng.Float64() })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := TreeCtx(context.Background(), g); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFixedDegreeGrid32(b *testing.B) {
	g := workload.Grid3D(32, 32, 32, workload.Lognormal(1), 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FixedDegreeCtx(context.Background(), g, 4, 1); err != nil {
			b.Fatal(err)
		}
	}
}
