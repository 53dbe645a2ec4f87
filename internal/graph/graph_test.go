package graph

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func pathGraph(n int) *Graph {
	es := make([]Edge, 0, n-1)
	for i := 0; i < n-1; i++ {
		es = append(es, Edge{U: i, V: i + 1, W: 1})
	}
	return MustFromEdges(n, es)
}

func cycleGraph(n int) *Graph {
	es := make([]Edge, 0, n)
	for i := 0; i < n; i++ {
		es = append(es, Edge{U: i, V: (i + 1) % n, W: 1})
	}
	return MustFromEdges(n, es)
}

func starGraph(n int) *Graph { // center 0, n−1 leaves
	es := make([]Edge, 0, n-1)
	for i := 1; i < n; i++ {
		es = append(es, Edge{U: 0, V: i, W: 1})
	}
	return MustFromEdges(n, es)
}

func completeGraph(n int) *Graph {
	var es []Edge
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			es = append(es, Edge{U: i, V: j, W: 1})
		}
	}
	return MustFromEdges(n, es)
}

func randomConnected(rng *rand.Rand, n int, extra int) *Graph {
	var es []Edge
	for v := 1; v < n; v++ {
		es = append(es, Edge{U: rng.Intn(v), V: v, W: 0.5 + rng.Float64()})
	}
	for i := 0; i < extra; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			es = append(es, Edge{U: u, V: v, W: 0.5 + rng.Float64()})
		}
	}
	return MustFromEdges(n, es)
}

func TestNewFromEdgesValidation(t *testing.T) {
	cases := []struct {
		name  string
		n     int
		edges []Edge
	}{
		{"negative n", -1, nil},
		{"out of range", 2, []Edge{{U: 0, V: 2, W: 1}}},
		{"negative endpoint", 2, []Edge{{U: -1, V: 1, W: 1}}},
		{"self loop", 2, []Edge{{U: 1, V: 1, W: 1}}},
		{"zero weight", 2, []Edge{{U: 0, V: 1, W: 0}}},
		{"negative weight", 2, []Edge{{U: 0, V: 1, W: -2}}},
		{"NaN weight", 2, []Edge{{U: 0, V: 1, W: math.NaN()}}},
		{"Inf weight", 2, []Edge{{U: 0, V: 1, W: math.Inf(1)}}},
	}
	for _, c := range cases {
		if _, err := NewFromEdges(c.n, c.edges); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestEmptyAndTrivialGraphs(t *testing.T) {
	g, err := NewFromEdges(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 0 || g.M() != 0 || !g.Connected() {
		t.Errorf("empty graph: N=%d M=%d connected=%v", g.N(), g.M(), g.Connected())
	}
	g = MustFromEdges(1, nil)
	if !g.Connected() || g.TotalVol() != 0 {
		t.Errorf("singleton: connected=%v vol=%v", g.Connected(), g.TotalVol())
	}
	if exactPhi(t, g) != math.Inf(1) {
		t.Errorf("singleton conductance should be +Inf")
	}
}

func TestParallelEdgeMerging(t *testing.T) {
	g := MustFromEdges(2, []Edge{{0, 1, 1.5}, {1, 0, 2.5}})
	if g.M() != 1 {
		t.Fatalf("M = %d, want 1", g.M())
	}
	if w, ok := g.Weight(0, 1); !ok || w != 4 {
		t.Errorf("merged weight = %v, want 4", w)
	}
	if g.Vol(0) != 4 || g.Vol(1) != 4 {
		t.Errorf("volumes = %v %v, want 4 4", g.Vol(0), g.Vol(1))
	}
}

func TestDegreesAndVolumes(t *testing.T) {
	g := starGraph(5)
	if g.Degree(0) != 4 || g.MaxDegree() != 4 {
		t.Errorf("star degrees wrong: %d %d", g.Degree(0), g.MaxDegree())
	}
	if g.Vol(0) != 4 || g.Vol(3) != 1 {
		t.Errorf("star volumes wrong")
	}
	if g.TotalVol() != 8 {
		t.Errorf("TotalVol = %v, want 8", g.TotalVol())
	}
}

func TestEdgesRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := randomConnected(rng, 40, 60)
	h := MustFromEdges(g.N(), g.Edges())
	if h.M() != g.M() {
		t.Fatalf("edge count changed: %d vs %d", h.M(), g.M())
	}
	for v := 0; v < g.N(); v++ {
		if math.Abs(h.Vol(v)-g.Vol(v)) > 1e-12 {
			t.Fatalf("vol mismatch at %d", v)
		}
	}
}

func TestWeightLookup(t *testing.T) {
	g := pathGraph(4)
	if _, ok := g.Weight(0, 2); ok {
		t.Error("nonexistent edge reported present")
	}
	if w, ok := g.Weight(2, 1); !ok || w != 1 {
		t.Error("edge (1,2) lookup failed")
	}
}

func TestBFSAndComponents(t *testing.T) {
	g := MustFromEdges(6, []Edge{{0, 1, 1}, {1, 2, 1}, {3, 4, 1}})
	order, parent := g.BFS(0)
	if len(order) != 3 || order[0] != 0 {
		t.Errorf("BFS order = %v", order)
	}
	if parent[1] != 0 || parent[2] != 1 || parent[5] != -1 {
		t.Errorf("BFS parents = %v", parent)
	}
	label, k := g.Components()
	if k != 3 {
		t.Fatalf("components = %d, want 3", k)
	}
	if label[0] != label[2] || label[3] != label[4] || label[0] == label[3] || label[5] == label[0] {
		t.Errorf("labels = %v", label)
	}
	if g.Connected() {
		t.Error("disconnected graph reported connected")
	}
}

func TestForestAndTreePredicates(t *testing.T) {
	if !pathGraph(5).IsTree() || !pathGraph(5).IsForest() {
		t.Error("path should be tree and forest")
	}
	if cycleGraph(4).IsForest() {
		t.Error("cycle is not a forest")
	}
	forest := MustFromEdges(5, []Edge{{0, 1, 1}, {2, 3, 1}})
	if !forest.IsForest() || forest.IsTree() {
		t.Error("two-component forest misclassified")
	}
}

func TestCutMetrics(t *testing.T) {
	// Two triangles joined by one light edge.
	es := []Edge{{0, 1, 2}, {1, 2, 2}, {0, 2, 2}, {3, 4, 2}, {4, 5, 2}, {3, 5, 2}, {2, 3, 0.5}}
	g := MustFromEdges(6, es)
	s := []int{0, 1, 2}
	if out := g.Out(s); math.Abs(out-0.5) > 1e-12 {
		t.Errorf("Out = %v, want 0.5", out)
	}
	wantVol := 2.0*2*3 + 0.5 // per side: three weight-2 edges fully inside + half... compute directly
	_ = wantVol
	if v := g.VolSet(s); math.Abs(v-(4+4+4.5)) > 1e-12 {
		t.Errorf("VolSet = %v, want 12.5", v)
	}
	sp := g.Out(s) / g.VolSet(s) // both sides have volume 12.5
	if math.Abs(sp-0.5/12.5) > 1e-12 {
		t.Errorf("sparsity = %v", sp)
	}
	// Exact conductance must find this (or a better) cut.
	phi := exactPhi(t, g)
	if phi > sp+1e-12 {
		t.Errorf("ExactConductance %v > sparsity of known cut %v", phi, sp)
	}
	if phi <= 0 {
		t.Errorf("conductance should be positive on connected graph, got %v", phi)
	}
}

func TestExactConductanceKnownValues(t *testing.T) {
	// Complete graph K4, unit weights: conductance = min over |S|=1,2.
	// |S|=1: cut 3, vol 3 → 1. |S|=2: cut 4, vol 6 → 2/3.
	if phi := exactPhi(t, completeGraph(4)); math.Abs(phi-2.0/3.0) > 1e-12 {
		t.Errorf("K4 conductance = %v, want 2/3", phi)
	}
	// Path P3 (unit): best cut splits an end edge: cut 1, min vol 1 → 1.
	if phi := exactPhi(t, pathGraph(3)); math.Abs(phi-1) > 1e-12 {
		t.Errorf("P3 conductance = %v, want 1", phi)
	}
	// Path P4: cut middle edge: cut 1, vol 3 each side → 1/3.
	if phi := exactPhi(t, pathGraph(4)); math.Abs(phi-1.0/3.0) > 1e-12 {
		t.Errorf("P4 conductance = %v, want 1/3", phi)
	}
	// Star on 5 vertices: any leaf subset S (not containing center) has
	// cut=|S|, vol=|S| → 1; best is 1... with center: S={center} cut 4 vol 4 → 1.
	if phi := exactPhi(t, starGraph(5)); math.Abs(phi-1) > 1e-12 {
		t.Errorf("star conductance = %v, want 1", phi)
	}
	// Disconnected graph: conductance 0.
	g := MustFromEdges(4, []Edge{{0, 1, 1}, {2, 3, 1}})
	if phi := exactPhi(t, g); phi != 0 {
		t.Errorf("disconnected conductance = %v, want 0", phi)
	}
}

func TestSweepCutMatchesExactOnPath(t *testing.T) {
	g := pathGraph(8)
	perm := make([]int, 8)
	for i := range perm {
		perm[i] = i
	}
	s, set := g.SweepCut(perm)
	if exact := exactPhi(t, g); math.Abs(s-exact) > 1e-12 {
		t.Errorf("sweep %v vs exact %v", s, exact)
	}
	if len(set) != 4 {
		t.Errorf("sweep set = %v, want the middle cut", set)
	}
}

func TestConductanceUpperBoundIsUpperBound(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for it := 0; it < 25; it++ {
		n := 4 + rng.Intn(10)
		g := randomConnected(rng, n, rng.Intn(12))
		exact := exactPhi(t, g)
		ub := g.ConductanceUpperBound()
		if ub < exact-1e-9 {
			t.Fatalf("upper bound %v below exact %v (n=%d)", ub, exact, n)
		}
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := cycleGraph(6)
	sub, back, err := g.InducedSubgraph([]int{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if sub.N() != 3 || sub.M() != 2 {
		t.Fatalf("induced N=%d M=%d", sub.N(), sub.M())
	}
	if back[0] != 1 || back[2] != 3 {
		t.Errorf("back map = %v", back)
	}
	if !sub.IsTree() {
		t.Error("induced path should be a tree")
	}
	if _, _, err := g.InducedSubgraph([]int{1, 1}); err == nil {
		t.Error("duplicate vertex accepted")
	}
	if _, _, err := g.InducedSubgraph([]int{99}); err == nil {
		t.Error("out-of-range vertex accepted")
	}
}

func TestClosure(t *testing.T) {
	g := cycleGraph(6)
	clo, back, err := g.Closure([]int{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	// Cluster path 1-2-3 has two boundary edges (0,1) and (3,4): two stubs.
	if clo.N() != 5 || clo.M() != 4 {
		t.Fatalf("closure N=%d M=%d, want 5 4", clo.N(), clo.M())
	}
	if len(back) != 3 {
		t.Fatalf("back = %v", back)
	}
	// Stubs must be degree 1.
	for v := 3; v < 5; v++ {
		if clo.Degree(v) != 1 {
			t.Errorf("stub %d degree %d", v, clo.Degree(v))
		}
	}
	// Cluster vertex volumes in closure equal their volumes in g.
	for i, orig := range back {
		if math.Abs(clo.Vol(i)-g.Vol(orig)) > 1e-12 {
			t.Errorf("closure vol mismatch at %d", orig)
		}
	}
}

func TestClosureConductanceSmallerThanInduced(t *testing.T) {
	// Adding boundary stubs can only create sparser cuts.
	rng := rand.New(rand.NewSource(11))
	for it := 0; it < 20; it++ {
		g := randomConnected(rng, 12, 8)
		s := []int{0, 1, 2, 3}
		clo, _, cerr := g.Closure(s)
		if cerr != nil {
			t.Fatal(cerr)
		}
		ind, _, err := g.InducedSubgraph(s)
		if err != nil {
			t.Fatal(err)
		}
		if clo.N() > MaxExactConductance || !ind.Connected() {
			continue
		}
		pc := exactPhi(t, clo)
		pi := exactPhi(t, ind)
		if pc > pi+1e-9 {
			t.Fatalf("closure conductance %v > induced %v", pc, pi)
		}
	}
}

func TestContract(t *testing.T) {
	// 6-cycle contracted into 3 consecutive pairs → triangle with weights 1.
	g := cycleGraph(6)
	assign := []int{0, 0, 1, 1, 2, 2}
	q := g.Contract(assign, 3)
	if q.N() != 3 || q.M() != 3 {
		t.Fatalf("quotient N=%d M=%d", q.N(), q.M())
	}
	for _, pr := range [][2]int{{0, 1}, {1, 2}, {0, 2}} {
		if w, ok := q.Weight(pr[0], pr[1]); !ok || math.Abs(w-1) > 1e-12 {
			t.Errorf("quotient edge %v weight %v", pr, w)
		}
	}
	// Total quotient edge weight = total cut weight between clusters.
	if tv := q.TotalVol(); math.Abs(tv-6) > 1e-12 {
		t.Errorf("quotient total vol %v, want 6", tv)
	}
}

func TestContractMatchesCap(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for it := 0; it < 15; it++ {
		g := randomConnected(rng, 20, 25)
		m := 4
		assign := make([]int, 20)
		clusters := make([][]int, m)
		for v := range assign {
			c := rng.Intn(m)
			assign[v] = c
			clusters[c] = append(clusters[c], v)
		}
		q := g.Contract(assign, m)
		for i := 0; i < m; i++ {
			for j := i + 1; j < m; j++ {
				want := capacity(g, clusters[i], clusters[j])
				got, ok := q.Weight(i, j)
				if want == 0 {
					if ok {
						t.Fatalf("phantom quotient edge %d-%d", i, j)
					}
					continue
				}
				if math.Abs(got-want) > 1e-9*math.Max(1, want) {
					t.Fatalf("quotient weight %d-%d = %v, want %v", i, j, got, want)
				}
			}
		}
	}
}

// capacity returns cap(U, V): the total weight of edges between the disjoint
// vertex sets U and V.
func capacity(g *Graph, us, vs []int) float64 {
	inV := make([]bool, g.N())
	for _, v := range vs {
		inV[v] = true
	}
	t := 0.0
	for _, u := range us {
		nbr, w := g.Neighbors(u)
		for i, x := range nbr {
			if inV[x] {
				t += w[i]
			}
		}
	}
	return t
}

// lapQuad returns the Laplacian quadratic form xᵀAx through LapMul.
func lapQuad(g *Graph, x []float64) float64 {
	ax := make([]float64, g.N())
	g.LapMul(ax, x)
	q := 0.0
	for i, v := range ax {
		q += x[i] * v
	}
	return q
}

func TestLapMulAndQuad(t *testing.T) {
	g := pathGraph(3)
	x := []float64{1, 0, -1}
	dst := make([]float64, 3)
	g.LapMul(dst, x)
	want := []float64{1, 0, -1}
	for i := range want {
		if math.Abs(dst[i]-want[i]) > 1e-12 {
			t.Errorf("LapMul[%d] = %v, want %v", i, dst[i], want[i])
		}
	}
	if q := lapQuad(g, x); math.Abs(q-2) > 1e-12 {
		t.Errorf("xᵀAx = %v, want 2", q)
	}
}

func TestLapDenseAgreesWithLapMul(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := randomConnected(rng, 15, 20)
	n := g.N()
	a := g.LapDense()
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	got := make([]float64, n)
	g.LapMul(got, x)
	for i := 0; i < n; i++ {
		want := 0.0
		for j := 0; j < n; j++ {
			want += a[i*n+j] * x[j]
		}
		if math.Abs(got[i]-want) > 1e-9 {
			t.Fatalf("row %d: %v vs %v", i, got[i], want)
		}
	}
}

func TestLaplacianPSDProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	g := randomConnected(rng, 25, 30)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		x := make([]float64, g.N())
		for i := range x {
			x[i] = r.NormFloat64() * 10
		}
		return lapQuad(g, x) >= -1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestLapQuadZeroOnConstants(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	g := randomConnected(rng, 20, 10)
	x := make([]float64, g.N())
	for i := range x {
		x[i] = 42.5
	}
	if q := lapQuad(g, x); math.Abs(q) > 1e-9 {
		t.Errorf("quad on constants = %v", q)
	}
	dst := make([]float64, g.N())
	g.LapMul(dst, x)
	for _, v := range dst {
		if math.Abs(v) > 1e-9 {
			t.Errorf("LapMul on constants nonzero: %v", v)
		}
	}
}

func TestVolumesIsDiagonal(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	g := randomConnected(rng, 12, 10)
	a := g.LapDense()
	vols := g.Volumes()
	for i := 0; i < g.N(); i++ {
		if math.Abs(a[i*g.N()+i]-vols[i]) > 1e-12 {
			t.Fatalf("diagonal mismatch at %d", i)
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	g := pathGraph(3)
	c := g.Clone()
	if c.N() != g.N() || c.M() != g.M() {
		t.Fatal("clone shape mismatch")
	}
	c.w[0] = 99
	if g.w[0] == 99 {
		t.Error("clone shares storage with original")
	}
}

func TestNewFromUniqueEdgesMatchesNewFromEdges(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		seen := map[[2]int]bool{}
		var es []Edge
		for i := 0; i < n*2; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			if u > v {
				u, v = v, u
			}
			if seen[[2]int{u, v}] {
				continue
			}
			seen[[2]int{u, v}] = true
			es = append(es, Edge{U: u, V: v, W: 0.1 + rng.Float64()})
		}
		a, err := NewFromEdges(n, es)
		if err != nil {
			return false
		}
		b, err := NewFromUniqueEdges(n, es)
		if err != nil {
			return false
		}
		if a.N() != b.N() || a.M() != b.M() {
			return false
		}
		for v := 0; v < n; v++ {
			if math.Abs(a.Vol(v)-b.Vol(v)) > 1e-12 {
				return false
			}
		}
		// Adjacency order may differ (sorted vs input order); compare the
		// edge sets, not the sequences.
		ea, eb := a.Edges(), b.Edges()
		key := func(e Edge) [2]int { return [2]int{e.U, e.V} }
		wa := map[[2]int]float64{}
		for _, e := range ea {
			wa[key(e)] = e.W
		}
		for _, e := range eb {
			w, ok := wa[key(e)]
			if !ok || math.Abs(w-e.W) > 1e-15 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestNewFromUniqueEdgesValidation(t *testing.T) {
	if _, err := NewFromUniqueEdges(2, []Edge{{U: 0, V: 0, W: 1}}); err == nil {
		t.Error("self-loop accepted")
	}
	if _, err := NewFromUniqueEdges(2, []Edge{{U: 0, V: 3, W: 1}}); err == nil {
		t.Error("out-of-range accepted")
	}
	if _, err := NewFromUniqueEdges(2, []Edge{{U: 0, V: 1, W: -1}}); err == nil {
		t.Error("negative weight accepted")
	}
	if _, err := NewFromUniqueEdges(-1, nil); err == nil {
		t.Error("negative n accepted")
	}
}

func BenchmarkLapMulPath(b *testing.B) {
	g := pathGraph(100000)
	x := make([]float64, g.N())
	dst := make([]float64, g.N())
	for i := range x {
		x[i] = float64(i % 17)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.LapMul(dst, x)
	}
}

func BenchmarkExactConductance16(b *testing.B) {
	g := completeGraph(16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = g.ExactConductance()
	}
}

// exactPhi is ExactConductance for test graphs known to be under the
// enumeration limit.
func exactPhi(t *testing.T, g *Graph) float64 {
	t.Helper()
	phi, err := g.ExactConductance()
	if err != nil {
		t.Fatalf("ExactConductance: %v", err)
	}
	return phi
}

func TestClosureInvalidInput(t *testing.T) {
	g := cycleGraph(6)
	if _, _, err := g.Closure([]int{1, 2, 1}); !errors.Is(err, ErrInvalidInput) {
		t.Fatalf("duplicate vertex: err = %v, want ErrInvalidInput", err)
	}
	if _, _, err := g.Closure([]int{1, 99}); !errors.Is(err, ErrInvalidInput) {
		t.Fatalf("out-of-range vertex: err = %v, want ErrInvalidInput", err)
	}
	if _, _, err := g.Closure([]int{1, -1}); !errors.Is(err, ErrInvalidInput) {
		t.Fatalf("negative vertex: err = %v, want ErrInvalidInput", err)
	}
}

func TestExactConductanceTooLarge(t *testing.T) {
	// A cycle has no pendant stubs, so its core is the whole vertex set and
	// the enumeration limit applies to it directly.
	g := cycleGraph(MaxExactConductance + 1)
	if _, err := g.ExactConductance(); !errors.Is(err, ErrInvalidInput) {
		t.Fatalf("oversized core: err = %v, want ErrInvalidInput", err)
	}
	// A path of the same size certifies fine: its two endpoints are stubs,
	// leaving a core of MaxExactConductance − 1 vertices.
	p := pathGraph(MaxExactConductance + 1)
	if _, err := p.ExactConductance(); err != nil {
		t.Fatalf("path with %d-vertex core: %v", p.CoreSize(), err)
	}
	if _, err := p.ExactConductanceBruteForce(); !errors.Is(err, ErrInvalidInput) {
		t.Fatalf("oversized brute force: err = %v, want ErrInvalidInput", err)
	}
}
