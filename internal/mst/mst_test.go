package mst

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"hcd/internal/graph"
)

// boruvka runs BoruvkaCtx without a deadline, failing the test on an error.
func boruvka(t testing.TB, g *graph.Graph, obj Objective, parallel bool) []graph.Edge {
	t.Helper()
	out, err := BoruvkaCtx(context.Background(), g, obj, parallel)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func randomConnected(rng *rand.Rand, n, extra int) *graph.Graph {
	var es []graph.Edge
	for v := 1; v < n; v++ {
		es = append(es, graph.Edge{U: rng.Intn(v), V: v, W: 0.5 + rng.Float64()*9})
	}
	for i := 0; i < extra; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			es = append(es, graph.Edge{U: u, V: v, W: 0.5 + rng.Float64()*9})
		}
	}
	return graph.MustFromEdges(n, es)
}

func TestAllAlgorithmsAgreeOnWeight(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for it := 0; it < 25; it++ {
		g := randomConnected(rng, 3+rng.Intn(60), rng.Intn(120))
		for _, obj := range []Objective{Min, Max} {
			wk := totalWeight(Kruskal(g, obj))
			wp := totalWeight(Prim(g, obj))
			wb := totalWeight(boruvka(t, g, obj, false))
			wbp := totalWeight(boruvka(t, g, obj, true))
			if math.Abs(wk-wp) > 1e-9 || math.Abs(wk-wb) > 1e-9 || math.Abs(wk-wbp) > 1e-9 {
				t.Fatalf("obj=%d weights differ: kruskal=%v prim=%v boruvka=%v parallel=%v",
					obj, wk, wp, wb, wbp)
			}
		}
	}
}

func TestResultIsSpanningTree(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for it := 0; it < 15; it++ {
		n := 2 + rng.Intn(50)
		g := randomConnected(rng, n, rng.Intn(80))
		for name, edges := range map[string][]graph.Edge{
			"kruskal":      Kruskal(g, Max),
			"prim":         Prim(g, Max),
			"boruvka":      boruvka(t, g, Max, false),
			"boruvka(par)": boruvka(t, g, Max, true),
		} {
			if len(edges) != n-1 {
				t.Fatalf("%s: %d edges for n=%d", name, len(edges), n)
			}
			f := graph.MustFromEdges(n, edges)
			if !f.IsTree() {
				t.Fatalf("%s: result is not a spanning tree", name)
			}
		}
	}
}

func TestSpanningForestOnDisconnected(t *testing.T) {
	g := graph.MustFromEdges(6, []graph.Edge{
		{U: 0, V: 1, W: 3}, {U: 1, V: 2, W: 1}, {U: 0, V: 2, W: 2},
		{U: 3, V: 4, W: 5}, {U: 4, V: 5, W: 4}, {U: 3, V: 5, W: 6},
	})
	for name, edges := range map[string][]graph.Edge{
		"kruskal": Kruskal(g, Max),
		"prim":    Prim(g, Max),
		"boruvka": boruvka(t, g, Max, false),
	} {
		if len(edges) != 4 {
			t.Fatalf("%s: %d edges, want 4 (two trees)", name, len(edges))
		}
		want := 3.0 + 2 + 5 + 6
		if got := totalWeight(edges); math.Abs(got-want) > 1e-12 {
			t.Fatalf("%s: weight %v, want %v", name, got, want)
		}
	}
}

func TestKnownMST(t *testing.T) {
	// Square with diagonal: MaxST must pick the three heaviest acyclic edges.
	g := graph.MustFromEdges(4, []graph.Edge{
		{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 2}, {U: 2, V: 3, W: 3},
		{U: 3, V: 0, W: 4}, {U: 0, V: 2, W: 5},
	})
	// Max ST: take 5 (0-2) and 4 (3-0); 3 (2-3) would close the cycle
	// 0-2-3-0, so the next edge is 2 (1-2): total 11.
	if w := totalWeight(Kruskal(g, Max)); math.Abs(w-11) > 1e-12 {
		t.Errorf("max ST weight = %v, want 11", w)
	}
	if w := totalWeight(Kruskal(g, Min)); math.Abs(w-6) > 1e-12 { // 1+2+3
		t.Errorf("min ST weight = %v, want 6", w)
	}
}

func TestMaxSpanningTreeIsOptimal(t *testing.T) {
	// Brute-force check on tiny graphs: no spanning tree is heavier.
	rng := rand.New(rand.NewSource(3))
	for it := 0; it < 10; it++ {
		n := 5
		g := randomConnected(rng, n, 4)
		best := totalWeight(Kruskal(g, Max))
		es := g.Edges()
		m := len(es)
		// Enumerate all edge subsets of size n−1 that form a tree.
		var rec func(start int, chosen []graph.Edge)
		heaviest := 0.0
		rec = func(start int, chosen []graph.Edge) {
			if len(chosen) == n-1 {
				f := graph.MustFromEdges(n, chosen)
				if f.IsTree() {
					if w := totalWeight(chosen); w > heaviest {
						heaviest = w
					}
				}
				return
			}
			for i := start; i < m; i++ {
				rec(i+1, append(chosen, es[i]))
			}
		}
		rec(0, nil)
		if math.Abs(best-heaviest) > 1e-9 {
			t.Fatalf("kruskal max %v but brute force found %v", best, heaviest)
		}
	}
}

func TestEmptyAndSingleton(t *testing.T) {
	empty := graph.MustFromEdges(0, nil)
	single := graph.MustFromEdges(1, nil)
	for _, g := range []*graph.Graph{empty, single} {
		if len(Kruskal(g, Max)) != 0 || len(Prim(g, Max)) != 0 || len(boruvka(t, g, Max, false)) != 0 {
			t.Error("trivial graphs should yield empty forests")
		}
	}
}

func BenchmarkKruskalGrid(b *testing.B) { benchMST(b, func(g *graph.Graph) { Kruskal(g, Max) }) }
func BenchmarkPrimGrid(b *testing.B)    { benchMST(b, func(g *graph.Graph) { Prim(g, Max) }) }
func BenchmarkBoruvkaGrid(b *testing.B) {
	benchMST(b, func(g *graph.Graph) { boruvka(b, g, Max, false) })
}
func BenchmarkBoruvkaParGrid(b *testing.B) {
	benchMST(b, func(g *graph.Graph) { boruvka(b, g, Max, true) })
}

func benchMST(b *testing.B, run func(*graph.Graph)) {
	rng := rand.New(rand.NewSource(4))
	side := 60 // 3600-vertex weighted grid
	var es []graph.Edge
	id := func(i, j int) int { return i*side + j }
	for i := 0; i < side; i++ {
		for j := 0; j < side; j++ {
			if i+1 < side {
				es = append(es, graph.Edge{U: id(i, j), V: id(i+1, j), W: 0.5 + rng.Float64()})
			}
			if j+1 < side {
				es = append(es, graph.Edge{U: id(i, j), V: id(i, j+1), W: 0.5 + rng.Float64()})
			}
		}
	}
	g := graph.MustFromEdges(side*side, es)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run(g)
	}
}

// totalWeight sums the weights of a set of edges.
func totalWeight(edges []graph.Edge) float64 {
	t := 0.0
	for _, e := range edges {
		t += e.W
	}
	return t
}
