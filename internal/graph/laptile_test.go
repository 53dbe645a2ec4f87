package graph_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"hcd"
	"hcd/internal/graph"
	"hcd/internal/hierarchy"
	"hcd/internal/kernel"
	"hcd/internal/workload"
)

// hierarchyLevels returns g and every quotient below it of g's default
// hierarchy, finest first.
func hierarchyLevels(t *testing.T, g *graph.Graph) []*graph.Graph {
	t.Helper()
	h, err := hierarchy.New(g, hierarchy.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	dumped, _ := h.DumpLevels()
	levels := []*graph.Graph{g}
	for _, la := range dumped {
		g = g.Contract(la.Assign, la.Count)
		levels = append(levels, g)
	}
	return levels
}

// tileCorpus are the graphs the AVX2 tiles are held on against the Go tiles:
// the degenerate row shapes (no entries, one entry, one row holding every
// other vertex), weights across twelve decades, and every level of the two
// hierarchies the benchmark's block workloads build.
func tileCorpus(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	corpus := map[string]*graph.Graph{}
	// Vertices 0–2, 10–12 and everything from 20 on are isolated.
	corpus["isolated"] = graph.MustFromEdges(40, []graph.Edge{{U: 3, V: 9, W: 2}, {U: 4, V: 9, W: 0.5}, {U: 13, V: 19, W: 3}, {U: 5, V: 6, W: 1}})
	corpus["single-edge"] = graph.MustFromEdges(2, []graph.Edge{{U: 0, V: 1, W: 0.75}})
	var star []graph.Edge
	for v := 1; v < 300; v++ {
		star = append(star, graph.Edge{U: 137, V: (v + 137) % 300, W: 1 + float64(v%7)})
	}
	corpus["star"] = graph.MustFromEdges(300, star)
	corpus["ring+chords"] = graph.BlockTestGraph(t, 2500, 11)
	rng := rand.New(rand.NewSource(12))
	var wide []graph.Edge
	for v := 0; v < 900; v++ {
		wide = append(wide, graph.Edge{U: v, V: (v + 1) % 900, W: math.Pow(10, -6+12*rng.Float64())})
		if u := rng.Intn(900); u != v {
			wide = append(wide, graph.Edge{U: v, V: u, W: math.Pow(10, -6+12*rng.Float64())})
		}
	}
	corpus["weights-1e-6..1e6"] = graph.MustFromEdges(900, wide)
	fem, err := workload.FEMesh(64, 64, -1, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	for level, g := range hierarchyLevels(t, fem) {
		corpus[fmt.Sprintf("femesh:64/level=%d", level)] = g
	}
	for level, g := range hierarchyLevels(t, workload.OCT3D(16, 16, 16, workload.DefaultOCTOptions())) {
		corpus[fmt.Sprintf("oct:16/level=%d", level)] = g
	}
	return corpus
}

// tileOperands fills x, r (n·k each) and dInv (n) with normal deviates; with
// special set, every fifth value comes from kernel.Specials instead.
func tileOperands(rng *rand.Rand, g *graph.Graph, k int, special bool) (x, r, dInv []float64) {
	n := g.N()
	x, r, dInv = make([]float64, n*k), make([]float64, n*k), make([]float64, n)
	draw := func() float64 {
		if special && rng.Intn(5) == 0 {
			return kernel.Specials[rng.Intn(len(kernel.Specials))]
		}
		return rng.NormFloat64()
	}
	for i := range x {
		x[i], r[i] = draw(), draw()
	}
	for v := range dInv {
		dInv[v] = 1 / g.Vol(v) // +Inf on an isolated vertex
		if special && rng.Intn(50) == 0 {
			dInv[v] = draw()
		}
	}
	return x, r, dInv
}

// blockModes are the three kernels one tile body serves: which of r and dInv
// it is handed selects the mode.
var blockModes = []struct {
	name    string
	r, dInv bool
}{{"mul", false, false}, {"residual", true, false}, {"jacobi", true, true}}

// TestBlockTilesMatchGoReference: on the same operands the block kernels write
// the same words with the AVX2 tiles as with the Go tiles — every mode, widths
// that combine the 8-wide tile at column 0 and 8, the 4-wide tile and the
// tail, row ranges that start and end mid-graph and are longer than one
// parallel chunk, ordinary and special values — and leave every row outside
// the range alone.
func TestBlockTilesMatchGoReference(t *testing.T) {
	if kernel.Name() != "avx2" {
		t.Skip("the AVX2 tiles are not in use in this build on this host")
	}
	const sentinel = 12345.678
	rng := rand.New(rand.NewSource(13))
	for name, g := range tileCorpus(t) {
		n := g.N()
		for _, k := range []int{4, 5, 8, 11, 12, 13, 16} {
			grain := kernel.ChunkRows(k)
			ranges := [][2]int{{0, n}, {n / 3, n/3 + 1}, {n / 2, n / 2}}
			if n > 12 {
				ranges = append(ranges, [2]int{7, n - 5})
			}
			if n > grain+40 {
				ranges = append(ranges, [2]int{n - grain - 33, n - 2}) // one full chunk and a 31-row one
			}
			for _, special := range []bool{false, true} {
				x, r, dInv := tileOperands(rng, g, k, special)
				for _, mode := range blockModes {
					var mr, md []float64
					if mode.r {
						mr = r
					}
					if mode.dInv {
						md = dInv
					}
					for _, rg := range ranges {
						want, got := make([]float64, n*k), make([]float64, n*k)
						for i := range want {
							want[i], got[i] = sentinel, sentinel
						}
						kernel.WithGo(func() { g.BlockRange(want, mr, x, md, 0.5, k, rg[0], rg[1]) })
						g.BlockRange(got, mr, x, md, 0.5, k, rg[0], rg[1])
						for i := range want {
							if !kernel.SameWord(got[i], want[i]) {
								t.Fatalf("%s k=%d %s special=%v rows [%d,%d): row %d column %d: AVX2 tile %v (%#x), Go tile %v (%#x)",
									name, k, mode.name, special, rg[0], rg[1], i/k, i%k,
									got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
							}
						}
					}
				}
			}
		}
	}
}

// TestDoBlockIdenticalAcrossKernels: a whole multi-RHS solve — hierarchy
// cycle, block PCG, the 8-wide tile on one graph and the 4-wide one on the
// other — produces the same iterates, residual histories, coefficients and
// iteration counts with the AVX2 bodies and with the Go ones. The switch is
// the kernel package's one switch, so both sides differ in every body: the
// row kernels, the column tiles and the sweeps alike.
func TestDoBlockIdenticalAcrossKernels(t *testing.T) {
	if kernel.Name() != "avx2" {
		t.Skip("the AVX2 bodies are not in use in this build on this host")
	}
	fem, err := workload.FEMesh(64, 64, -1, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		g    *hcd.Graph
		k    int
	}{{"femesh:64", fem, 8}, {"grid2d:64", hcd.Grid2D(64, 64, nil, 1), 4}} {
		rng := rand.New(rand.NewSource(14))
		B := make([][]float64, tc.k)
		for j := range B {
			B[j] = make([]float64, tc.g.N())
			mean := 0.0
			for i := range B[j] {
				B[j][i] = rng.NormFloat64()
				mean += B[j][i]
			}
			for i := range B[j] {
				B[j][i] -= mean / float64(len(B[j]))
			}
		}
		h, err := hcd.NewHierarchyCtx(context.Background(), tc.g, hcd.DefaultHierarchyOptions())
		if err != nil {
			t.Fatal(err)
		}
		eng, err := hcd.NewEngine(tc.g, h, hcd.DefaultSolveOptions())
		if err != nil {
			t.Fatal(err)
		}
		solve := func() *hcd.SolveResponse {
			resp, err := hcd.Do(context.Background(), tc.g, hcd.SolveRequest{B: B, Engine: eng})
			if err != nil {
				t.Fatal(err)
			}
			return resp
		}
		avx2 := solve()
		var goResults []hcd.SolveResult
		kernel.WithGo(func() { goResults = solve().Results })
		t.Run(tc.name, func(t *testing.T) {
			for j, want := range goResults {
				got := avx2.Results[j]
				if !got.Converged || got.Iterations != want.Iterations {
					t.Fatalf("column %d: AVX2 tiles %s after %d iterations, Go tiles %s after %d",
						j, got.Outcome, got.Iterations, want.Outcome, want.Iterations)
				}
				for what, pair := range map[string][2][]float64{
					"X": {got.X, want.X}, "Residuals": {got.Residuals, want.Residuals},
					"Alphas": {got.Alphas, want.Alphas}, "Betas": {got.Betas, want.Betas},
				} {
					if len(pair[0]) != len(pair[1]) {
						t.Fatalf("column %d: %d %s with the AVX2 tiles, %d with the Go tiles", j, len(pair[0]), what, len(pair[1]))
					}
					for i := range pair[0] {
						if pair[0][i] != pair[1][i] {
							t.Fatalf("column %d: %s[%d] = %v with the AVX2 tiles, %v with the Go tiles", j, what, i, pair[0][i], pair[1][i])
						}
					}
				}
			}
		})
	}
}
