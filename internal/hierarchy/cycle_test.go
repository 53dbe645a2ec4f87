package hierarchy

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"hcd/internal/dense"
	"hcd/internal/graph"
	"hcd/internal/obs"
	"hcd/internal/solver"
	"hcd/internal/treealg"
	"hcd/internal/workload"
)

// TestSmoothOutOfRangeRejected: both ways into a hierarchy refuse a sweep
// count below zero (the block cycle would run without post-smoothing) or above
// what the snapshot codec carries, with an error wrapping ErrInvalidInput.
func TestSmoothOutOfRangeRejected(t *testing.T) {
	g := workload.Grid2D(12, 12, workload.Lognormal(1), 1)
	opt := DefaultOptions()
	opt.DirectLimit = 10
	h, err := New(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	levels, _ := h.DumpLevels()
	for _, tc := range []struct {
		smooth int
		ok     bool
	}{{-1, false}, {math.MinInt, false}, {0, true}, {1, true}, {maxSmooth, true}, {maxSmooth + 1, false}} {
		opt.Smooth = tc.smooth
		_, nerr := NewCtx(context.Background(), g, opt)
		_, rerr := Rebuild(context.Background(), g, levels, tc.smooth)
		for entry, err := range map[string]error{"NewCtx": nerr, "Rebuild": rerr} {
			switch {
			case tc.ok && err != nil:
				t.Errorf("%s Smooth=%d: %v", entry, tc.smooth, err)
			case !tc.ok && !errors.Is(err, graph.ErrInvalidInput):
				t.Errorf("%s Smooth=%d: error %v, want one wrapping ErrInvalidInput", entry, tc.smooth, err)
			}
		}
	}
}

// graphOrFatal unwraps a generator's (graph, error) result.
func graphOrFatal(t *testing.T) func(*graph.Graph, error) *graph.Graph {
	return func(g *graph.Graph, err error) *graph.Graph {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
}

// spdCorpus: small connected graphs, bipartite ones first — there
// λmax(D⁻¹A) = 2, the case a damping weight above ½ has to survive. All but
// the star (one cluster) and the clique give several levels at DirectLimit 3.
func spdCorpus(t *testing.T) []namedGraph {
	t.Helper()
	must := graphOrFatal(t)
	rng := rand.New(rand.NewSource(7))
	w := func() float64 { return 0.2 + 3*rng.Float64() }
	var cycle, star, path, clique []graph.Edge
	for i := 0; i < 24; i++ {
		cycle = append(cycle, hcdEdge(i, (i+1)%24, w()))
	}
	for i := 1; i < 20; i++ {
		star = append(star, hcdEdge(0, i, w()))
	}
	for i := 0; i+1 < 30; i++ {
		path = append(path, hcdEdge(i, i+1, w()))
	}
	for i := 0; i < 9; i++ {
		for j := i + 1; j < 9; j++ {
			clique = append(clique, hcdEdge(i, j, w()))
		}
	}
	return []namedGraph{
		{"grid", workload.Grid2D(7, 6, workload.Lognormal(1), 1)},
		{"even-cycle", mustGraph(24, cycle)},
		{"star", mustGraph(20, star)},
		{"path", mustGraph(30, path)},
		{"femesh", must(workload.FEMesh(6, 6, -1, nil, 2))},
		{"clique", mustGraph(9, clique)},
		{"powerlaw", must(workload.PowerLaw(60, 2, workload.UniformWeight(0.5, 2), 3))},
	}
}

// meanFreeGram materialises PᵀMP column by column, P the projection off the
// constant vector and M the operator apply computes k columns at a time.
func meanFreeGram(n, k int, apply func(dst, r []float64)) *dense.Matrix {
	basis := func(j int) []float64 {
		e := make([]float64, n)
		for i := range e {
			e[i] = -1 / float64(n)
		}
		e[j] += 1
		return e
	}
	gram := dense.NewMatrix(n, n)
	r, out := make([]float64, n*k), make([]float64, n*k)
	for j0 := 0; j0 < n; j0 += k {
		for c := 0; c < k; c++ {
			e := basis(min(j0+c, n-1))
			for v := range e {
				r[v*k+c] = e[v]
			}
		}
		apply(out, r)
		for c := 0; c < k && j0+c < n; c++ {
			col := make([]float64, n)
			for v := range col {
				col[v] = out[v*k+c]
			}
			for i := 0; i < n; i++ {
				gram.Set(i, j0+c, dot(basis(i), col))
			}
		}
	}
	return gram
}

// TestApplyIsSPD pins cycle.go's argument with dense algebra: on multi-level
// hierarchies over bipartite and non-bipartite graphs, the scalar and the
// block cycle are symmetric to 1e-12 and positive definite on the mean-free
// subspace.
func TestApplyIsSPD(t *testing.T) {
	for _, tc := range spdCorpus(t) {
		for _, smooth := range []int{1, 2} {
			opt := DefaultOptions()
			opt.Smooth = smooth
			opt.DirectLimit = 3
			h, err := New(tc.g, opt)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			if h.Depth() < 2 && tc.name != "star" && tc.name != "clique" {
				t.Fatalf("%s: depth %d, want a multi-level hierarchy", tc.name, h.Depth())
			}
			n := tc.g.N()
			for _, k := range []int{1, 3} {
				name := fmt.Sprintf("%s smooth=%d k=%d depth=%d", tc.name, smooth, k, h.Depth())
				gram := meanFreeGram(n, k, func(dst, r []float64) {
					if k == 1 {
						h.Apply(dst, r)
					} else {
						h.ApplyBlock(dst, r, k)
					}
				})
				scale := 0.0
				for _, v := range gram.Data {
					scale = math.Max(scale, math.Abs(v))
				}
				for i := 0; i < n; i++ {
					for j := 0; j < i; j++ {
						if d := math.Abs(gram.At(i, j) - gram.At(j, i)); d > 1e-12*scale {
							t.Fatalf("%s: ⟨e%d, M e%d⟩ and its transpose differ by %.3g (scale %.3g)", name, i, j, d, scale)
						}
						gram.Set(i, j, gram.At(j, i))
					}
				}
				vals, _, err := dense.SymEig(gram)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				// One eigenvalue belongs to the constant vector P removed;
				// every other must be positive.
				nonPositive := 0
				for _, v := range vals {
					if v < 1e-10*scale {
						nonPositive++
					}
				}
				if nonPositive != 1 {
					t.Errorf("%s: %d eigenvalues of PᵀMP below 1e-10·%.3g, want only the constant's; spectrum %v", name, nonPositive, scale, vals)
				}
			}
		}
	}
}

// cycleTableCorpus is one test-sized graph per family of DESIGN §12's "Cycle
// parameters" table.
func cycleTableCorpus(t *testing.T) []namedGraph {
	t.Helper()
	must := graphOrFatal(t)
	rng := rand.New(rand.NewSource(1))
	corpus := []namedGraph{
		{"grid2d:64", workload.Grid2D(64, 64, workload.Lognormal(1), 1)},
		{"unit2d:64", workload.Grid2D(64, 64, nil, 1)},
		{"mesh:64", workload.GridDiag2D(64, 64, workload.Lognormal(1), 1)},
		{"road:48", must(workload.RoadNetwork(48, 48, 12, workload.Lognormal(0.5), 1))},
		{"femesh:48", must(workload.FEMesh(48, 48, -1, nil, 1))},
		{"grid3d:16", workload.Grid3D(16, 16, 16, workload.Lognormal(1), 1)},
		{"oct:16", workload.OCT3D(16, 16, 16, workload.DefaultOCTOptions())},
		{"plaw:6000,3", must(workload.PowerLaw(6000, 3, workload.UniformWeight(0.5, 5), 1))},
		{"regular:6000,4", must(workload.RandomRegular(6000, 4, workload.UniformWeight(0.5, 5), 1))},
		{"tree:10000", treealg.RandomTree(rng, 10000, func() float64 { return 0.1 + rng.Float64()*10 })},
		{"aniso:12 (z)", workload.Grid3DAnisotropic(12, 12, 12, 1, 1, 1000)},
	}
	if !testing.Short() {
		corpus = append(corpus,
			namedGraph{"grid2d:200", workload.Grid2D(200, 200, workload.Lognormal(1), 1)},
			namedGraph{"unit2d:150", workload.Grid2D(150, 150, nil, 1)},
			namedGraph{"mesh:150", workload.GridDiag2D(150, 150, workload.Lognormal(1), 1)},
			namedGraph{"road:100", must(workload.RoadNetwork(100, 100, 25, workload.Lognormal(0.5), 1))},
			namedGraph{"femesh:64", must(workload.FEMesh(64, 64, -1, nil, 1))},
			namedGraph{"grid3d:40", workload.Grid3D(40, 40, 40, workload.Lognormal(1), 1)},
			namedGraph{"oct:24", workload.OCT3D(24, 24, 24, workload.DefaultOCTOptions())},
			namedGraph{"plaw:20000,3", must(workload.PowerLaw(20000, 3, workload.UniformWeight(0.5, 5), 1))},
			namedGraph{"regular:20000,4", must(workload.RandomRegular(20000, 4, workload.UniformWeight(0.5, 5), 1))},
			namedGraph{"tree:50000", treealg.RandomTree(rng, 50000, func() float64 { return 0.1 + rng.Float64()*10 })},
			namedGraph{"aniso:32 (z)", workload.Grid3DAnisotropic(32, 32, 32, 1, 1, 1000)},
			namedGraph{"aniso:32 (y)", workload.Grid3DAnisotropic(32, 32, 32, 1, 1000, 1)},
		)
	}
	return corpus
}

// TestCycleTable regenerates DESIGN §12's "Cycle parameters" table (run with
// -v): PCG iterations to 1e-8, three right-hand sides summed, under the
// ω = ½, α = 1 cycle this one replaced — the oracle replays it on the same
// hierarchy — and under the production cycle. No family may need more
// iterations than it did.
func TestCycleTable(t *testing.T) {
	t.Logf("%-16s %8s %6s  %5s → %-5s  %s", "graph", "n", "depth", "½,1", "now", "γ per level")
	for _, tc := range cycleTableCorpus(t) {
		h, err := New(tc.g, DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		before := newRefCycle(tc.g, h, 0.5, 0)
		op := solver.LapOperator(tc.g)
		rng := rand.New(rand.NewSource(100))
		was, now := 0, 0
		for i := 0; i < 3; i++ {
			b := meanFree(rng, tc.g.N())
			rb := solver.PCG(op, solver.OpFunc{N: tc.g.N(), F: before.Apply}, b, solver.DefaultOptions())
			rn := solver.PCG(op, h, b, solver.DefaultOptions())
			if !rb.Converged || !rn.Converged {
				t.Fatalf("%s: converged before=%v now=%v", tc.name, rb.Converged, rn.Converged)
			}
			was += rb.Iterations
			now += rn.Iterations
		}
		gammas := ""
		for _, s := range h.LevelScales() {
			gammas += fmt.Sprintf(" %.2f", s.Gamma)
		}
		t.Logf("%-16s %8d %6d  %5d → %-5d %s", tc.name, tc.g.N(), h.Depth(), was, now, gammas)
		if now > was {
			t.Errorf("%s: %d iterations, the ω=½ α=1 cycle needed %d", tc.name, now, was)
		}
	}
}

// TestCycleScales: a level's scale is the rule applied to the two volumes, a
// level without weight gets α = 1, and a sharded build, a Rebuild from dumped
// levels and the single-pass build agree on every scale exactly.
func TestCycleScales(t *testing.T) {
	if g, a := cycleScale(coarseBeta, 0, 0); g != 1 || a != 1 {
		t.Errorf("zero-volume level: gamma %v alpha %v, want 1 1", g, a)
	}
	if g, a := cycleScale(coarseBeta, 8, 2); g != 0.75 || a != 1.125 {
		t.Errorf("cycleScale(½, 8, 2) = %v %v, want 0.75 1.125", g, a)
	}
	// An edgeless level: volumes are zero all the way down.
	empty := mustGraph(6, nil)
	h, err := Rebuild(context.Background(), empty, []LevelAssign{{Assign: []int{0, 0, 1, 1, 2, 2}, Count: 3}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s := h.LevelScales(); len(s) != 1 || s[0] != (LevelScale{Gamma: 1, Alpha: 1}) {
		t.Errorf("edgeless level scales %v, want [{1 1}]", s)
	}
	out := make([]float64, 6)
	h.Apply(out, []float64{1, -1, 2, -2, 3, -3})
	for _, v := range out {
		if v != 0 {
			t.Fatalf("edgeless apply returned %v, want zeros", out)
		}
	}

	// Large enough that level 0 really is sharded.
	g := workload.Grid3D(34, 34, 34, workload.Lognormal(1), 3)
	if g.N() < shardMinVertices {
		t.Fatalf("graph of %d vertices is below the shard gate %d", g.N(), shardMinVertices)
	}
	single, err := New(g, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	levels, smooth := single.DumpLevels()
	natural := naturalLevels(g, single)
	last := len(levels) - 1
	natural = append(natural, natural[last].Contract(levels[last].Assign, levels[last].Count))
	for i, s := range single.LevelScales() {
		cut := natural[i+1].TotalVol() / natural[i].TotalVol()
		if s.Gamma != 1-cut || s.Alpha != 1+coarseBeta*cut {
			t.Errorf("level %d: scale %+v, want gamma %v alpha %v", i, s, 1-cut, 1+coarseBeta*cut)
		}
		if !(s.Gamma > 0 && s.Gamma < 1) {
			t.Errorf("level %d: gamma %v outside (0,1)", i, s.Gamma)
		}
	}
	rebuilt, err := Rebuild(context.Background(), g, levels, smooth)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := rebuilt.LevelScales(), single.LevelScales(); !slices.Equal(got, want) {
		t.Errorf("Rebuild scales %v, built %v", got, want)
	}
	for _, shards := range []int{1, 4} {
		opt := DefaultOptions()
		opt.Shards = shards
		sh, err := New(g, opt)
		if err != nil {
			t.Fatal(err)
		}
		slevels, ssmooth := sh.DumpLevels()
		again, err := Rebuild(context.Background(), g, slevels, ssmooth)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := again.LevelScales(), sh.LevelScales(); !slices.Equal(got, want) {
			t.Errorf("shards=%d: rebuilt scales %v, built %v", shards, got, want)
		}
		if shards == 1 && !slices.Equal(sh.LevelScales(), single.LevelScales()) {
			t.Errorf("Shards=1 scales %v, single-pass %v", sh.LevelScales(), single.LevelScales())
		}
	}
}

// TestBuildSpanExplainsCycleScale: each hierarchy/level-N span of a traced
// build carries the gamma its clustering achieved and the alpha the cycle
// derived from it — the numbers LevelScales reports.
func TestBuildSpanExplainsCycleScale(t *testing.T) {
	g := workload.OCT3D(20, 20, 20, workload.DefaultOCTOptions())
	tr := obs.NewTracer()
	h, err := NewCtx(obs.WithTracer(context.Background(), tr), g, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
	scales := h.LevelScales()
	seen := 0
	for _, s := range tr.Spans() {
		var level int
		if _, err := fmt.Sscanf(s.Name, "hierarchy/level-%d", &level); err != nil {
			continue
		}
		args := map[string]any{}
		for _, a := range s.Args {
			args[a.Key] = a.Value
		}
		if level >= len(scales) {
			t.Fatalf("span %s of a depth-%d hierarchy", s.Name, len(scales))
		}
		if args["gamma"] != scales[level].Gamma || args["alpha"] != scales[level].Alpha {
			t.Errorf("%s args %v, want gamma %v alpha %v", s.Name, args, scales[level].Gamma, scales[level].Alpha)
		}
		seen++
	}
	if seen != h.Depth() {
		t.Errorf("%d level spans with scales, depth %d", seen, h.Depth())
	}
}
