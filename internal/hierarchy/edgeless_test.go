package hierarchy

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"hcd/internal/graph"
	"hcd/internal/solver"
	"hcd/internal/workload"
)

// TestEdgelessVerticesShareACluster: vertices without an edge — 10 000 of
// them, or 5 000 disjoint pairs, which are edgeless one level down — beside
// the grid2d:64 grid cost one vertex per level, not one each: the hierarchy
// is as deep as the grid's own, every level (below level 1 for the pairs,
// whose level 1 holds one vertex per pair) is at most one vertex larger than
// the grid's — give or take 2 %: the clustering's edge perturbation hashes the
// vertex count, so the grid's own clusters move with it — a warm solve takes
// at most two iterations more than the grid's, and the DumpLevels → Rebuild
// round trip solves bit for bit the same.
func TestEdgelessVerticesShareACluster(t *testing.T) {
	grid := workload.Grid2D(64, 64, workload.Lognormal(1), 1)
	n0 := grid.N()
	rng := rand.New(rand.NewSource(57))
	gridB := meanFree(rng, n0)
	solve := func(t *testing.T, h *Hierarchy, g *graph.Graph, b []float64) solver.Result {
		t.Helper()
		eng, err := solver.NewEngine(solver.LapOperator(g), h, solver.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Solve(context.Background(), b); err != nil {
			t.Fatal(err)
		}
		res, err := eng.Solve(context.Background(), b)
		if err != nil || !res.Converged {
			t.Fatalf("warm solve: %v, outcome %v", err, res.Outcome)
		}
		return res
	}
	gh, err := New(grid, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	gridSizes, gridIters := gh.LevelSizes(), solve(t, gh, grid, gridB).Iterations
	for _, tc := range []struct {
		name     string
		pairs    bool
		firstCmp int // first level compared with the grid's
	}{{"10000 edgeless", false, 1}, {"5000 pairs", true, 2}} {
		t.Run(tc.name, func(t *testing.T) {
			es := grid.Edges()
			b := append(gridB, make([]float64, 10000)...)
			if tc.pairs {
				for u := n0; u < n0+10000; u += 2 {
					es = append(es, graph.Edge{U: u, V: u + 1, W: 1 + rng.Float64()})
					b[u] = rng.NormFloat64()
					b[u+1] = -b[u]
				}
			}
			g := graph.MustFromEdges(n0+10000, es)
			h, err := New(g, DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			sizes := h.LevelSizes()
			if len(sizes) != len(gridSizes) {
				t.Fatalf("levels %v, the grid's %v: depth differs", sizes, gridSizes)
			}
			for l := tc.firstCmp; l < len(sizes); l++ {
				if sizes[l] > gridSizes[l]+1+gridSizes[l]/50 {
					t.Errorf("level %d holds %d vertices, the grid's %d (levels %v, grid %v)", l, sizes[l], gridSizes[l], sizes, gridSizes)
				}
			}
			res := solve(t, h, g, b)
			if res.Iterations > gridIters+2 {
				t.Errorf("%d iterations, the grid alone %d", res.Iterations, gridIters)
			}
			levels, smooth := h.DumpLevels()
			rh, err := Rebuild(context.Background(), g, levels, smooth)
			if err != nil {
				t.Fatal(err)
			}
			x := append([]float64(nil), res.X...)
			again := solve(t, rh, g, b)
			if again.Iterations != res.Iterations {
				t.Fatalf("rebuilt: %d iterations, built %d", again.Iterations, res.Iterations)
			}
			for v := range x {
				if math.Float64bits(again.X[v]) != math.Float64bits(x[v]) {
					t.Fatalf("rebuilt: x[%d] = %v, built %v", v, again.X[v], x[v])
				}
			}
			t.Logf("levels %v (grid %v), %d iterations (grid %d)", sizes, gridSizes, res.Iterations, gridIters)
		})
	}
}
