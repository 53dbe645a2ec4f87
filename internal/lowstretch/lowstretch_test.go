package lowstretch

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"hcd/internal/dense"
	"hcd/internal/graph"
	"hcd/internal/mst"
	"hcd/internal/support"
	"hcd/internal/workload"
)

// akpw runs AKPWCtx without a deadline, failing the test on an error.
func akpw(t testing.TB, g *graph.Graph, seed int64) []graph.Edge {
	t.Helper()
	out, err := AKPWCtx(context.Background(), g, seed)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestAKPWSpanningTreeOnConnected(t *testing.T) {
	cases := map[string]*graph.Graph{
		"grid2d":     workload.Grid2D(15, 15, workload.Lognormal(1), 1),
		"grid3d":     workload.Grid3D(6, 6, 6, workload.UniformWeight(0.1, 10), 2),
		"mesh":       workload.GridDiag2D(12, 12, workload.Lognormal(2), 3),
		"oct":        workload.OCT3D(5, 5, 10, workload.DefaultOCTOptions()),
		"unitgrid":   workload.Grid2D(10, 10, nil, 4),
		"singleEdge": graph.MustFromEdges(2, []graph.Edge{{U: 0, V: 1, W: 3}}),
	}
	for name, g := range cases {
		edges := akpw(t, g, 7)
		if len(edges) != g.N()-1 {
			t.Fatalf("%s: %d tree edges for n=%d", name, len(edges), g.N())
		}
		f := graph.MustFromEdges(g.N(), edges)
		if !f.IsTree() {
			t.Fatalf("%s: AKPW result is not a spanning tree", name)
		}
	}
}

func TestAKPWDisconnectedAndTrivial(t *testing.T) {
	g := graph.MustFromEdges(5, []graph.Edge{{U: 0, V: 1, W: 1}, {U: 2, V: 3, W: 2}})
	edges := akpw(t, g, 1)
	if len(edges) != 2 {
		t.Fatalf("forest edges = %d, want 2", len(edges))
	}
	if akpw(t, graph.MustFromEdges(0, nil), 1) != nil {
		t.Error("empty graph should yield nil")
	}
	if akpw(t, graph.MustFromEdges(3, nil), 1) != nil {
		t.Error("edgeless graph should yield nil")
	}
}

func TestTreeMetricPathResistance(t *testing.T) {
	// Path 0-1-2-3 with weights 1, 2, 4: resistance 0→3 = 1 + 1/2 + 1/4.
	edges := []graph.Edge{{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 2}, {U: 2, V: 3, W: 4}}
	tm, err := newTreeMetric(4, edges)
	if err != nil {
		t.Fatal(err)
	}
	if r := tm.resistance(0, 3); math.Abs(r-1.75) > 1e-12 {
		t.Errorf("resistance = %v, want 1.75", r)
	}
	if r := tm.resistance(2, 1); math.Abs(r-0.5) > 1e-12 {
		t.Errorf("resistance = %v, want 0.5", r)
	}
	if r := tm.resistance(1, 1); r != 0 {
		t.Errorf("self resistance = %v", r)
	}
}

func TestTreeMetricCrossComponent(t *testing.T) {
	edges := []graph.Edge{{U: 0, V: 1, W: 1}, {U: 2, V: 3, W: 1}}
	tm, err := newTreeMetric(4, edges)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(tm.resistance(0, 3), 1) {
		t.Error("cross-component resistance should be +Inf")
	}
}

func TestTreeMetricRejectsCycle(t *testing.T) {
	edges := []graph.Edge{{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1}, {U: 0, V: 2, W: 1}}
	if _, err := newTreeMetric(3, edges); err == nil {
		t.Error("cycle accepted")
	}
}

func TestTreeMetricAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for it := 0; it < 10; it++ {
		n := 3 + rng.Intn(40)
		var edges []graph.Edge
		for v := 1; v < n; v++ {
			edges = append(edges, graph.Edge{U: rng.Intn(v), V: v, W: 0.1 + rng.Float64()*5})
		}
		tm, err := newTreeMetric(n, edges)
		if err != nil {
			t.Fatal(err)
		}
		f := graph.MustFromEdges(n, edges)
		// Brute force via BFS path walk.
		for trial := 0; trial < 10; trial++ {
			u, v := rng.Intn(n), rng.Intn(n)
			_, parent := f.BFS(u)
			want := 0.0
			for x := v; x != u; x = parent[x] {
				w, _ := f.Weight(x, parent[x])
				want += 1 / w
			}
			if got := tm.resistance(u, v); math.Abs(got-want) > 1e-9 {
				t.Fatalf("resistance(%d,%d) = %v, want %v", u, v, got, want)
			}
		}
	}
}

func TestStretchesTreeEdgesAreOne(t *testing.T) {
	g := workload.Grid2D(8, 8, workload.Lognormal(1), 9)
	tree := akpw(t, g, 1)
	inTree := make(map[[2]int]bool)
	for _, e := range tree {
		u, v := e.U, e.V
		if u > v {
			u, v = v, u
		}
		inTree[[2]int{u, v}] = true
	}
	stretches, avg, err := Stretches(g, tree)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range g.Edges() {
		u, v := e.U, e.V
		if u > v {
			u, v = v, u
		}
		if inTree[[2]int{u, v}] {
			if math.Abs(stretches[i]-1) > 1e-9 {
				t.Fatalf("tree edge stretch = %v", stretches[i])
			}
		} else if !(stretches[i] > 0) || math.IsInf(stretches[i], 0) {
			// Off-tree stretch may drop below 1 when a light edge crosses a
			// heavy tree path; it must just be positive and finite on a
			// connected graph.
			t.Fatalf("off-tree stretch %v invalid", stretches[i])
		}
	}
	if !(avg > 0) {
		t.Errorf("average stretch %v", avg)
	}
}

func TestAKPWStretchIsReasonable(t *testing.T) {
	// Compare against the max-weight spanning tree: AKPW should not be
	// drastically worse on a noisy grid (usually it is better).
	g := workload.Grid2D(25, 25, workload.Lognormal(2), 11)
	_, avgAKPW, err := Stretches(g, akpw(t, g, 3))
	if err != nil {
		t.Fatal(err)
	}
	_, avgMST, err := Stretches(g, mst.Kruskal(g, mst.Max))
	if err != nil {
		t.Fatal(err)
	}
	if avgAKPW > 10*avgMST {
		t.Errorf("AKPW avg stretch %v vs MST %v", avgAKPW, avgMST)
	}
	t.Logf("avg stretch: AKPW=%.2f maxST=%.2f", avgAKPW, avgMST)
}

// The classical tree-preconditioner bound: σ(A, T) is at most the total
// stretch of A's edges over T (each edge routes along its tree path with
// congestion·dilation ≤ its stretch; the splitting lemma sums them).
func TestTotalStretchBoundsTreeSupport(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for it := 0; it < 8; it++ {
		n := 8 + rng.Intn(10)
		var es []graph.Edge
		for v := 1; v < n; v++ {
			es = append(es, graph.Edge{U: rng.Intn(v), V: v, W: 0.3 + rng.Float64()*3})
		}
		for i := 0; i < n; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				es = append(es, graph.Edge{U: u, V: v, W: 0.3 + rng.Float64()*3})
			}
		}
		g := graph.MustFromEdges(n, es)
		tree := mst.Kruskal(g, mst.Max)
		stretches, _, err := Stretches(g, tree)
		if err != nil {
			t.Fatal(err)
		}
		total := 0.0
		for _, s := range stretches {
			total += s
		}
		forest := graph.MustFromEdges(n, tree)
		sigma, err := support.Sigma(
			dense.FromRowMajor(n, n, g.LapDense()),
			dense.FromRowMajor(n, n, forest.LapDense()))
		if err != nil {
			t.Fatal(err)
		}
		if sigma > total+1e-7 {
			t.Fatalf("it=%d: σ(A,T) = %v exceeds total stretch %v", it, sigma, total)
		}
	}
}

func BenchmarkAKPWGrid50(b *testing.B) {
	g := workload.Grid2D(50, 50, workload.Lognormal(1), 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = akpw(b, g, 1)
	}
}
