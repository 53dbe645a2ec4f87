package hierarchy

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"hcd/internal/dense"
	"hcd/internal/graph"
	"hcd/internal/obs"
	"hcd/internal/solver"
	"hcd/internal/treealg"
	"hcd/internal/workload"
)

// TestSmoothOutOfRangeRejected: Rebuild takes the two cycles a constructor
// builds — smooth 1, New's smoothed cycle, and smooth 0, NewSteiner's
// recursion — and refuses any other sweep count with an error wrapping
// ErrInvalidInput.
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
	}{{-1, false}, {math.MinInt, false}, {0, true}, {1, true}, {2, false}, {64, false}} {
		_, err := Rebuild(context.Background(), g, levels, tc.smooth)
		switch {
		case tc.ok && err != nil:
			t.Errorf("smooth=%d: %v", tc.smooth, err)
		case !tc.ok && !errors.Is(err, graph.ErrInvalidInput):
			t.Errorf("smooth=%d: error %v, want one wrapping ErrInvalidInput", tc.smooth, err)
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
// the star (one cluster) and the clique are deep enough at DirectLimit 3 that
// the visit rule doubles a level, the two -deep ones two levels in a row.
func spdCorpus(t *testing.T) []namedGraph {
	t.Helper()
	must := graphOrFatal(t)
	rng := rand.New(rand.NewSource(7))
	w := func() float64 { return 0.2 + 3*rng.Float64() }
	var cycle, star, path, clique []graph.Edge
	for i := 0; i < 60; i++ {
		cycle = append(cycle, hcdEdge(i, (i+1)%60, w()))
	}
	for i := 1; i < 20; i++ {
		star = append(star, hcdEdge(0, i, w()))
	}
	for i := 0; i+1 < 60; i++ {
		path = append(path, hcdEdge(i, i+1, w()))
	}
	for i := 0; i < 9; i++ {
		for j := i + 1; j < 9; j++ {
			clique = append(clique, hcdEdge(i, j, w()))
		}
	}
	return []namedGraph{
		{"grid", workload.Grid2D(7, 6, workload.Lognormal(1), 1)},
		{"grid-deep", workload.Grid2D(12, 12, workload.Lognormal(1), 1)},
		{"even-cycle", mustGraph(60, cycle)},
		{"star", mustGraph(20, star)},
		{"path", mustGraph(60, path)},
		{"femesh", must(workload.FEMesh(6, 6, -1, nil, 2))},
		{"clique", mustGraph(9, clique)},
		{"femesh-deep", must(workload.FEMesh(11, 11, -1, nil, 2))},
		{"powerlaw", must(workload.PowerLaw(100, 2, workload.UniformWeight(0.5, 2), 3))},
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
			// ⟨e_i − 1/n, col⟩ = col[i] − mean(col).
			mean := 0.0
			for _, x := range col {
				mean += x
			}
			mean /= float64(n)
			for i := 0; i < n; i++ {
				gram.Set(i, j0+c, col[i]-mean)
			}
		}
	}
	return gram
}

// TestApplyIsSPD pins cycle.go's argument with dense algebra: on multi-level
// hierarchies over bipartite and non-bipartite graphs, every family with a
// doubled tail, the scalar and the block cycle are symmetric to 1e-12 and
// positive definite on the mean-free subspace.
func TestApplyIsSPD(t *testing.T) {
	for _, tc := range spdCorpus(t) {
		opt := DefaultOptions()
		opt.DirectLimit = 3
		h, err := New(tc.g, opt)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		doubled, want := doubledLevels(h), 1
		switch {
		case tc.g.IsForest() || tc.name == "clique": // a forest has no level
			want = 0
		case strings.HasSuffix(tc.name, "-deep"):
			want = 2
		}
		if doubled < want {
			t.Fatalf("%s: %d doubled levels in %+v, want at least %d", tc.name, doubled, h.LevelScales(), want)
		}
		n := tc.g.N()
		for _, k := range []int{1, 3} {
			name := fmt.Sprintf("%s k=%d depth=%d", tc.name, k, h.Depth())
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

// paperScale adds the 32k–262k-vertex families, EXPERIMENTS E8's rows, the
// rejected alternatives and the share sweep to the cycle tables (minutes):
// go test -v -run 'TestCycle(Table|ShareSweep)' ./internal/hierarchy -paperscale
var paperScale = flag.Bool("paperscale", false, "cycle tables: add the deep and paper-scale families, E8's rows, the rejected alternatives and the share sweep")

// deepCycleCorpus is the families of cycleTableCorpus at sizes whose default
// hierarchy is deep enough for the visit rule to double a tail of two or three
// levels, up to the 160k–262k vertices the paper talks about (-paperscale).
func deepCycleCorpus(t *testing.T) []namedGraph {
	t.Helper()
	must := graphOrFatal(t)
	return []namedGraph{
		{"grid2d:256", workload.Grid2D(256, 256, workload.Lognormal(1), 1)},
		{"femesh:200", must(workload.FEMesh(200, 200, -1, nil, 1))},
		{"oct:32", workload.OCT3D(32, 32, 32, workload.DefaultOCTOptions())},
		{"oct:48", workload.OCT3D(48, 48, 48, workload.DefaultOCTOptions())},
		{"oct:64", workload.OCT3D(64, 64, 64, workload.DefaultOCTOptions())},
		{"grid3d:64", workload.Grid3D(64, 64, 64, workload.Lognormal(1), 1)},
		{"grid2d:512", workload.Grid2D(512, 512, workload.Lognormal(1), 1)},
		{"femesh:400", must(workload.FEMesh(400, 400, -1, nil, 1))},
		{"road:400", must(workload.RoadNetwork(400, 400, 16, workload.Lognormal(0.5), 1))},
		{"aniso:64 (z)", workload.Grid3DAnisotropic(64, 64, 64, 1, 1, 1000)},
		{"plaw:200000,3", must(workload.PowerLaw(200000, 3, workload.UniformWeight(0.5, 5), 1))},
	}
}

// cycleRun is what one cycle shape costs on one hierarchy: the visit counts,
// PCG iterations to 1e-8 summed over the right-hand sides, the matrix entries
// one apply streams and the median wall time of a solve — host-dependent,
// printed and never asserted.
type cycleRun struct {
	visits  string
	iters   int
	entries int
	ms      float64
}

// cycleBench is one graph's default hierarchy, a solve engine over it and the
// right-hand sides the cycle shapes are compared on.
type cycleBench struct {
	h       *Hierarchy
	buildMS float64 // wall time of the hierarchy build alone
	eng     *solver.Engine
	bs      [][]float64
}

func newCycleBench(t *testing.T, name string, g *graph.Graph, opt Options, rhsSeed int64, rhsCount int) *cycleBench {
	t.Helper()
	start := time.Now()
	h, err := New(g, opt)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	buildMS := float64(time.Since(start).Microseconds()) / 1e3
	eng, err := solver.NewEngine(solver.LapOperator(g), h, solver.DefaultOptions())
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	rng := rand.New(rand.NewSource(rhsSeed))
	bs := make([][]float64, rhsCount)
	for i := range bs {
		bs[i] = meanFree(rng, g.N())
	}
	return &cycleBench{h: h, buildMS: buildMS, eng: eng, bs: bs}
}

// run replans the hierarchy at the given share (cycleVisits: +Inf the V-cycle,
// 0 the W-cycle from level 0) and solves every right-hand side.
func (cb *cycleBench) run(t *testing.T, share float64) cycleRun {
	t.Helper()
	h, eng, bs := cb.h, cb.eng, cb.bs
	h.planCycle(share)
	run := cycleRun{entries: h.CycleEntries()}
	for _, l := range h.levels {
		run.visits += fmt.Sprint(l.visits)
	}
	times := make([]float64, len(bs))
	for i, b := range bs {
		start := time.Now()
		res, err := eng.Solve(context.Background(), b)
		if err != nil || !res.Converged {
			t.Fatalf("share %v: solve %d: %v, converged %v", share, i, err, res.Converged)
		}
		times[i] = float64(time.Since(start).Microseconds()) / 1e3
		run.iters += res.Iterations
	}
	slices.Sort(times)
	run.ms = times[len(times)/2]
	return run
}

// checkRuleAgainstVCycle holds the visit rule to its two promises: never more
// iterations than the V-cycle, never more than (1 + 2/c)× its entries.
func checkRuleAgainstVCycle(t *testing.T, name string, vcycle, rule cycleRun) {
	t.Helper()
	if rule.iters > vcycle.iters {
		t.Errorf("%s: %d iterations with visits %s, the V-cycle needed %d", name, rule.iters, rule.visits, vcycle.iters)
	}
	if bound := (1 + 2.0/cycleShare) * float64(vcycle.entries); float64(rule.entries) > bound {
		t.Errorf("%s: visits %s touch %d entries per apply, above (1 + 2/%d)× the V-cycle's %d", name, rule.visits, rule.entries, cycleShare, vcycle.entries)
	}
}

// TestCycleTable regenerates the tables of DESIGN §12 "Cycle parameters" and
// "Cycle shape" and the V-cycle column of EXPERIMENTS E8 (run with -v, and
// -paperscale for all but the first). PCG iterations to 1e-8, three right-hand
// sides summed, on one default hierarchy per graph: under the ω = ½, α = 1
// V-cycle (the oracle replays it), under the production parameters visiting
// every level once, and under the visit rule. No family may need more
// iterations than either predecessor, nor touch more than (1 + 2/c)× the
// V-cycle's entries per apply.
func TestCycleTable(t *testing.T) {
	const header = "%-16s %8s %6s  %5s  %5s → %-5s  %-7s  %9s → %-9s %6s  %s"
	const row = "%-16s %8d %6d  %5s  %5d → %-5d  %-7s  %9d → %-9d %5.3f× %s"
	t.Logf(header, "graph", "n", "depth", "½,1", "V", "rule", "visits", "entries V", "rule", "", "γ per level")
	families := cycleTableCorpus(t)
	replayed := len(families) // the ω = ½ oracle is a textbook loop: not on the deep corpus
	var deep []namedGraph
	if *paperScale {
		deep = deepCycleCorpus(t)
		families = append(families, deep...)
	}
	for i, tc := range families {
		cb := newCycleBench(t, tc.name, tc.g, DefaultOptions(), 100, 3)
		vcycle, rule := cb.run(t, math.Inf(1)), cb.run(t, cycleShare)
		was := "-"
		if i < replayed {
			before := newRefCycle(tc.g, cb.h, 0.5, 0, math.Inf(1))
			old := 0
			for _, b := range cb.bs {
				res, _ := solver.PCGCtx(context.Background(), solver.LapOperator(tc.g), solver.OpFunc{N: tc.g.N(), F: before.Apply}, b, solver.DefaultOptions())
				if !res.Converged {
					t.Fatalf("%s: the ω=½ α=1 cycle did not converge", tc.name)
				}
				old += res.Iterations
			}
			was = fmt.Sprint(old)
			if rule.iters > old {
				t.Errorf("%s: %d iterations, the ω=½ α=1 cycle needed %d", tc.name, rule.iters, old)
			}
		}
		gammas := ""
		for _, s := range cb.h.LevelScales() {
			gammas += fmt.Sprintf(" %.2f", s.Gamma)
		}
		t.Logf(row, tc.name, tc.g.N(), cb.h.Depth(), was, vcycle.iters, rule.iters, rule.visits,
			vcycle.entries, rule.entries, float64(rule.entries)/float64(vcycle.entries), gammas)
		checkRuleAgainstVCycle(t, tc.name, vcycle, rule)
	}
	if !*paperScale {
		return
	}

	// EXPERIMENTS E8's rows — same volumes, same right-hand side — with the
	// column the experiment cannot produce: there is no switch that turns the
	// rule off outside this package.
	t.Logf("E8: %4s %8s %6s  %3s → %-4s  %s", "side", "n", "depth", "V", "rule", "visits")
	for _, side := range []int{10, 14, 18, 22, 32, 48, 64} {
		name := fmt.Sprintf("oct:%d", side)
		g := workload.OCT3D(side, side, side, workload.DefaultOCTOptions())
		cb := newCycleBench(t, name, g, DefaultOptions(), 9, 1)
		vcycle, rule := cb.run(t, math.Inf(1)), cb.run(t, cycleShare)
		t.Logf("E8: %4d %8d %6d  %3d → %-4d  %s", side, g.N(), cb.h.Depth(), vcycle.iters, rule.iters, rule.visits)
		checkRuleAgainstVCycle(t, name, vcycle, rule)
	}

	// What else could buy iterations, measured once so the defaults
	// SizeCap = 4 and a tail that starts where it is cheap are on record: work
	// is iterations × (entries per apply + the PCG matvec's pass over level 0),
	// the deterministic cost of a solve.
	t.Logf("%-12s %-12s %-7s %5s %10s %10s %9s %8s %8s", "graph", "alternative", "visits", "iters", "entries", "work", "build ms", "mem MB", "ms")
	for _, tc := range deep {
		if tc.name != "oct:64" && tc.name != "grid2d:512" && tc.name != "femesh:400" {
			continue
		}
		var base float64
		for _, alt := range []struct {
			name  string
			share float64
			tweak func(*Options)
		}{
			{"V-cycle", math.Inf(1), func(*Options) {}},
			{"rule", cycleShare, func(*Options) {}},
			{"W from 0", 0, func(*Options) {}},
			{"SizeCap 2", cycleShare, func(o *Options) { o.SizeCap = 2 }},
			{"SizeCap 3", cycleShare, func(o *Options) { o.SizeCap = 3 }},
		} {
			opt := DefaultOptions()
			alt.tweak(&opt)
			cb := newCycleBench(t, tc.name, tc.g, opt, 100, 3)
			run := cb.run(t, alt.share)
			work := float64(run.iters) * float64(run.entries+2*tc.g.M())
			if base == 0 {
				base = work
			}
			t.Logf("%-12s %-12s %-7s %5d %10d %9.2f× %9.0f %8.1f %8.2f", tc.name, alt.name, run.visits, run.iters, run.entries,
				work/base, cb.buildMS, float64(cb.h.MemoryBytes())/(1<<20), run.ms)
		}
	}
}

// TestCycleShareSweep prints the table cycleShare was picked from (DESIGN §12
// "Cycle shape"; -paperscale only, minutes): per family and share c, the plan,
// iterations over three right-hand sides, entries per apply and the median
// time of a solve over five alternating rounds, against the V-cycle's.
func TestCycleShareSweep(t *testing.T) {
	if !*paperScale {
		t.Skip("run with -paperscale")
	}
	shares := []float64{math.Inf(1), 16, 8, 6, 4, 3, 2, 0}
	for _, tc := range deepCycleCorpus(t) {
		cb := newCycleBench(t, tc.name, tc.g, DefaultOptions(), 100, 3)
		runs := make([]cycleRun, len(shares))
		times := make([][]float64, len(shares))
		for round := 0; round < 5; round++ {
			for i, share := range shares {
				runs[i] = cb.run(t, share)
				times[i] = append(times[i], runs[i].ms)
			}
		}
		t.Logf("%s  n=%d  levels %v", tc.name, tc.g.N(), cb.h.LevelSizes())
		for i, share := range shares {
			slices.Sort(times[i])
			ms, base := times[i][len(times[i])/2], times[0][len(times[0])/2]
			t.Logf("  c=%-4v visits %-7s iterations %3d  entries %9d (%.3f×)  ms/solve %7.2f (%+5.1f%%)", share, runs[i].visits,
				runs[i].iters, runs[i].entries, float64(runs[i].entries)/float64(runs[0].entries), ms, 100*(ms/base-1))
		}
	}
}

// TestCycleScales: a level's scale is the rule applied to the two volumes, a
// level without weight gets α = 1, and a sharded build, a Rebuild from dumped
// levels and the single-pass build agree exactly on every scale and visit
// count, on what one apply touches and on the iterate — on a hierarchy with a
// doubled level.
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
	if s := h.LevelScales(); len(s) != 1 || s[0] != (LevelScale{Gamma: 1, Alpha: 1, Visits: 1}) {
		t.Errorf("edgeless level scales %v, want [{1 1 1}]", s)
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
	if doubledLevels(single) == 0 {
		t.Fatalf("no doubled level in %+v", single.LevelScales())
	}
	r := meanFree(rand.New(rand.NewSource(9)), g.N())
	sameCycle := func(name string, got, want *Hierarchy) {
		t.Helper()
		if !slices.Equal(got.LevelScales(), want.LevelScales()) || got.CycleEntries() != want.CycleEntries() {
			t.Errorf("%s: scales %+v entries %d, want %+v entries %d", name, got.LevelScales(), got.CycleEntries(), want.LevelScales(), want.CycleEntries())
		}
		x, y := make([]float64, g.N()), make([]float64, g.N())
		got.Apply(x, r)
		want.Apply(y, r)
		if i := firstDiff(x, y); i >= 0 {
			t.Errorf("%s: Apply[%d] = %v, want %v", name, i, x[i], y[i])
		}
	}
	rebuilt, err := Rebuild(context.Background(), g, levels, smooth)
	if err != nil {
		t.Fatal(err)
	}
	sameCycle("Rebuild", rebuilt, single)
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
		sameCycle(fmt.Sprintf("shards=%d rebuilt", shards), again, sh)
		if shards == 1 {
			sameCycle("Shards=1", sh, single)
		}
	}
}

// TestBuildSpanExplainsCycleScale: each hierarchy/level-N span of a traced
// build carries the gamma its clustering achieved, the alpha the cycle derived
// from it and the level's visit count — the numbers LevelScales reports — and
// hierarchy/build carries what one apply of the finished cycle touches.
func TestBuildSpanExplainsCycleScale(t *testing.T) {
	g := workload.OCT3D(20, 20, 20, workload.DefaultOCTOptions())
	opt := DefaultOptions()
	opt.DirectLimit = 100 // a third level, so that one is doubled
	tr := obs.NewTracer()
	h, err := NewCtx(obs.WithTracer(context.Background(), tr), g, opt)
	if err != nil {
		t.Fatal(err)
	}
	if doubledLevels(h) == 0 {
		t.Fatalf("no doubled level in %+v", h.LevelScales())
	}
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
	scales := h.LevelScales()
	seen, sawBuild := 0, false
	for _, s := range tr.Spans() {
		args := spanArgs(s)
		if s.Name == "hierarchy/build" {
			sawBuild = true
			if args["cycle_entries"] != h.CycleEntries() {
				t.Errorf("%s args %v, want cycle_entries %d", s.Name, args, h.CycleEntries())
			}
		}
		var level int
		if _, err := fmt.Sscanf(s.Name, "hierarchy/level-%d", &level); err != nil {
			continue
		}
		if level >= len(scales) {
			t.Fatalf("span %s of a depth-%d hierarchy", s.Name, len(scales))
		}
		if args["gamma"] != scales[level].Gamma || args["alpha"] != scales[level].Alpha || args["visits"] != scales[level].Visits {
			t.Errorf("%s args %v, want %+v", s.Name, args, scales[level])
		}
		seen++
	}
	if seen != h.Depth() || !sawBuild {
		t.Errorf("%d level spans with scales, depth %d; build span seen: %v", seen, h.Depth(), sawBuild)
	}
}

// TestCycleVisits pins the visit rule: a hand-computed plan, and on random
// level sizes the properties the cycle leans on — the doubled levels are a
// tail that stops one short of the last level, the limits of share are the
// V- and the W-cycle, the pure recursion never doubles, the entry count is
// what a walk over the plan counts, and the tail adds at most 2/share of a
// pass pair over the finest level to the V-cycle's work.
func TestCycleVisits(t *testing.T) {
	// threshold 2·1000/4 = 500. Bottom-up: coarse 2·20 = 40; level 3 is last:
	// 40 + 120 = 160; level 2 doubles (160 ≤ 500): 2·160 + 60 + 300 = 680;
	// level 1 does not (680 > 500): 680 + 800 = 1480; level 0: 1480 + 2000.
	visits, touched := cycleVisits(4, true, []int{1000, 400, 150, 60}, 20)
	if !slices.Equal(visits, []int{1, 1, 2, 1}) || touched != 3480 {
		t.Errorf("plan %v touching %d, want [1 1 2 1] touching 3480", visits, touched)
	}
	if visits, touched := cycleVisits(4, true, nil, 20); len(visits) != 0 || touched != 40 {
		t.Errorf("depth 0: plan %v touching %d, want none touching 40", visits, touched)
	}

	// walk counts entries the way the cycle recurses.
	var walk func(visits, nnz []int, factorNNZ, level int) int
	walk = func(visits, nnz []int, factorNNZ, level int) int {
		if level == len(nnz) {
			return 2 * factorNNZ
		}
		n := 2*nnz[level] + walk(visits, nnz, factorNNZ, level+1)
		if visits[level] == 2 {
			n += nnz[level+1] + walk(visits, nnz, factorNNZ, level+1)
		}
		return n
	}
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		depth := 1 + rng.Intn(8)
		nnz := make([]int, depth)
		nnz[0] = 1000 + rng.Intn(100000)
		for i := 1; i < depth; i++ {
			nnz[i] = 1 + int(float64(nnz[i-1])*(0.1+0.8*rng.Float64()))
		}
		factorNNZ := 1 + rng.Intn(2000)
		share := []float64{2, 3, 4, 8, 16}[rng.Intn(5)]
		name := fmt.Sprintf("nnz %v factor %d share %v", nnz, factorNNZ, share)

		vcycle, vwork := cycleVisits(math.Inf(1), true, nnz, factorNNZ)
		wcycle, _ := cycleVisits(0, true, nnz, factorNNZ)
		pure, pwork := cycleVisits(share, false, nnz, factorNNZ)
		for level := range nnz {
			w := 2
			if level == depth-1 {
				w = 1
			}
			if vcycle[level] != 1 || pure[level] != 1 || wcycle[level] != w {
				t.Fatalf("%s: V %v, smooth 0 %v, W %v", name, vcycle, pure, wcycle)
			}
		}
		if pwork != 2*factorNNZ {
			t.Errorf("%s: the pure recursion touches %d entries, want the factor's %d", name, pwork, 2*factorNNZ)
		}

		visits, touched := cycleVisits(share, true, nnz, factorNNZ)
		for level := range visits {
			if v := visits[level]; v < 1 || v > 2 || (level > 0 && level < depth-1 && v < visits[level-1]) {
				t.Fatalf("%s: plan %v is not a tail", name, visits)
			}
		}
		if visits[depth-1] != 1 {
			t.Errorf("%s: plan %v doubles the exact solve", name, visits)
		}
		if got := walk(visits, nnz, factorNNZ, 0); got != touched {
			t.Errorf("%s: plan %v reports %d entries, a walk counts %d", name, visits, touched, got)
		}
		if bound := float64(vwork) + 2*float64(2*nnz[0])/share; float64(touched) > bound {
			t.Errorf("%s: plan %v touches %d entries, above the V-cycle's %d + 2·entries(0)/c = %.0f", name, visits, touched, vwork, bound)
		}
	}
}

// TestShallowHierarchiesKeepTheVCycle: the two-level hierarchies of the
// benchmark's block-femesh2d and serve-mixed graphs are too shallow for the
// visit rule — their level 1 costs more than a quarter of level 0 — so every
// visit count is 1 and the cycle is, bit for bit, the plain V-cycle.
func TestShallowHierarchiesKeepTheVCycle(t *testing.T) {
	must := graphOrFatal(t)
	for _, tc := range []namedGraph{
		{"femesh:64", must(workload.FEMesh(64, 64, -1, nil, 1))},
		{"grid2d:64", workload.Grid2D(64, 64, workload.Lognormal(1), 1)},
		{"road:48", must(workload.RoadNetwork(48, 48, 12, workload.Lognormal(0.5), 1))},
		{"femesh:48", must(workload.FEMesh(48, 48, -1, nil, 1))},
		{"grid3d:16", workload.Grid3D(16, 16, 16, workload.Lognormal(1), 1)},
	} {
		h, err := New(tc.g, DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if h.Depth() != 2 || doubledLevels(h) != 0 {
			t.Fatalf("%s: depth %d, scales %+v; want two levels visited once", tc.name, h.Depth(), h.LevelScales())
		}
		vcycle := newRefCycle(tc.g, h, jacobiOmega, coarseBeta, math.Inf(1))
		n := tc.g.N()
		rng := rand.New(rand.NewSource(11))
		for _, k := range []int{1, 4, 8} {
			r := randomBlock(rng, n, k)
			got, want := make([]float64, n*k), make([]float64, n*k)
			h.ApplyBlock(got, r, k)
			vcycle.apply(0, want, r, k)
			if i := firstDiff(got, want); i >= 0 {
				t.Errorf("%s k=%d: ApplyBlock[%d] = %v, V-cycle %v", tc.name, k, i, got[i], want[i])
			}
		}
	}
}

// TestDoubledTailWorkVectorsArePooled: the second coarse visit costs two more
// work vectors per doubled level and nothing per apply — they live in the
// pooled workspace, sized on first use and reused after — so a warm engine
// still reports no scratch allocation on a hierarchy with a doubled tail.
func TestDoubledTailWorkVectorsArePooled(t *testing.T) {
	g := workload.Grid2D(40, 40, workload.Lognormal(1), 5)
	opt := DefaultOptions()
	opt.DirectLimit = 16
	h, err := New(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	if doubledLevels(h) < 2 {
		t.Fatalf("scales %+v, want a doubled tail", h.LevelScales())
	}
	b := meanFree(rand.New(rand.NewSource(20)), g.N())
	for _, k := range []int{1, 3} {
		r, dst := make([]float64, g.N()*k), make([]float64, g.N()*k)
		for v, x := range b {
			r[v*k] = x
		}
		w := h.getWork()
		apply := func() { h.applyLevel(0, dst, r, k, w) }
		apply()
		first := map[int][2]*float64{}
		for level, l := range h.levels {
			if want := (l.visits - 1) * l.count * k; len(w.rq2[level]) != want || len(w.xq2[level]) != want {
				t.Fatalf("k=%d level %d (visits %d, %d clusters): second-visit vectors of %d and %d entries, want %d",
					k, level, l.visits, l.count, len(w.rq2[level]), len(w.xq2[level]), want)
			}
			if l.visits == 2 {
				first[level] = [2]*float64{&w.rq2[level][0], &w.xq2[level][0]}
			}
		}
		apply()
		for level, p := range first {
			if &w.rq2[level][0] != p[0] || &w.xq2[level][0] != p[1] {
				t.Errorf("k=%d level %d: second-visit vectors were reallocated by a warm apply", k, level)
			}
		}
	}

	eng, err := solver.NewEngine(solver.LapOperator(g), h, solver.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		res, err := eng.Solve(context.Background(), b)
		if err != nil || !res.Converged {
			t.Fatalf("solve %d: %v, converged %v", i, err, res.Converged)
		}
		if i > 0 && res.Metrics.ScratchAllocs != 0 {
			t.Errorf("warm solve allocated %d scratch buffers", res.Metrics.ScratchAllocs)
		}
	}
}
