// Command hcd-experiments runs the full evaluation suite (DESIGN.md §4):
// one experiment per paper artifact, printing paper-vs-measured tables.
// These runs are the source of the numbers recorded in EXPERIMENTS.md.
//
// Usage:
//
//	hcd-experiments            # everything, laptop-scale sizes
//	hcd-experiments -e E2      # one experiment
//	hcd-experiments -full      # paper-scale sizes (E2 uses 10⁶ vertices)
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"hcd"
	"hcd/internal/cli"
	"hcd/internal/mst"
	"hcd/internal/obs"
)

var (
	full    = flag.Bool("full", false, "run paper-scale sizes (slower)")
	metrics = flag.Bool("metrics", false, "print per-solve metrics (matvecs, applies, phase times) after each PCG table")

	// obsCtx is the root context of every experiment; main swaps in the
	// instrumented context when -trace, -listen or -metrics is set, so the
	// context-aware paths (DecomposeCtx and everything under it) record
	// spans and publish registry metrics.
	obsCtx = context.Background()
)

// report prints one labelled solve-metrics line when -metrics is set.
func report(label string, m hcd.SolveMetrics) {
	if !*metrics {
		return
	}
	fmt.Printf("metrics[%s]: matvecs=%d precond-applies=%d iterations=%d setup=%v iterate=%v total=%v final-residual=%.3g\n",
		label, m.MatVecs, m.PrecondApplies, m.Iterations,
		m.SetupTime.Round(time.Microsecond), m.IterTime.Round(time.Microsecond),
		m.TotalTime.Round(time.Microsecond), m.FinalResidual)
}

// reportBuild prints one labelled line of the decomposition build just run
// (per-stage wall time and output size, read back from the trace's last
// decompose/<method> span and the spans after it) when -metrics is set — the
// construction-side counterpart of report, so build and solve costs read
// side by side.
func reportBuild(label string) {
	if !*metrics {
		return
	}
	spans := obs.TracerFrom(obsCtx).Spans()
	i := len(spans) - 1
	for i > 0 && !strings.HasPrefix(spans[i].Name, "decompose/") {
		i--
	}
	fmt.Printf("build[%s]:", label)
	for _, s := range cli.Stages(spans[i:], "build/") {
		fmt.Printf(" %s=%v (v=%d e=%d) |", s.Name, s.Duration.Round(time.Microsecond), s.Vertices, s.Edges)
	}
	fmt.Printf(" total=%v\n", spans[i].Duration.Round(time.Microsecond))
}

func main() {
	sel := flag.String("e", "", "comma-separated experiment ids (E1..E11,A1..A5); empty = all")
	o := cli.ObsFlags()
	flag.Parse()
	var err error
	obsCtx, err = o.Start(obsCtx)
	if err != nil {
		log.Fatal(err)
	}
	if *metrics {
		obsCtx = o.EnsureTracer(o.EnsureRegistry(obsCtx))
	}
	defer func() {
		if *metrics && o.Registry != nil {
			fmt.Println("\nregistry:")
			_ = o.Registry.WritePrometheus(os.Stdout)
		}
		if cerr := o.Close(); cerr != nil {
			log.Fatal(cerr)
		}
	}()
	want := map[string]bool{}
	for _, id := range strings.Split(*sel, ",") {
		if id != "" {
			want[strings.ToUpper(id)] = true
		}
	}
	all := []struct {
		id   string
		desc string
		run  func()
	}{
		{"E1", "Figure 6: Steiner vs subgraph PCG at matched reduction", e1},
		{"E2", "Remark 1: clustering vs max-weight spanning tree build time", e2},
		{"E3", "Theorem 2.1: [φ, ρ] tree decompositions", e3},
		{"E4", "Theorem 2.2: planar pipeline, φ·ρ across sizes", e4},
		{"E5", "Theorem 3.5: σ(S_P, A) vs 3(1+2/φ³)", e5},
		{"E6", "Theorem 4.1: eigenvector alignment vs bound", e6},
		{"E7", "Section 3.1: fixed-degree clustering quality", e7},
		{"E8", "Hierarchy: multilevel iterations across sizes", e8},
		{"E9", "Theorem 2.3: minor-free pipeline (low-stretch base)", e9},
		{"E10", "Top-down spectral recursion vs bottom-up clustering", e10},
		{"E11", "Parallel scaling of the §3.1 clustering and SpMV", e11},
		{"A1", "Ablation: base tree choice in the planar pipeline", a1},
		{"A4", "Ablation: monolithic vs miniaturized subgraph baseline (Fig 6 setup)", a4},
		{"A5", "Ablation: anisotropic grids — weight-aware clustering vs Jacobi", a5},
		{"A2", "Ablation: perturbation on/off in Section 3.1", a2},
		{"A3", "Ablation: cluster cap k vs quality trade-off", a3},
	}
	for _, e := range all {
		if len(want) > 0 && !want[e.id] {
			continue
		}
		fmt.Printf("\n=== %s — %s ===\n", e.id, e.desc)
		start := time.Now()
		e.run()
		fmt.Printf("(%s took %v)\n", e.id, time.Since(start).Round(time.Millisecond))
	}
}

func must[T any](v T, err error) T {
	if err != nil {
		log.Fatal(err)
	}
	return v
}

// e1 reproduces the Figure 6 comparison and reports iterations-to-tolerance.
func e1() {
	side := 16
	if *full {
		side = 24
	}
	g := hcd.OCT3D(side, side, side, hcd.DefaultOCTOptions())
	b := cli.MeanFreeRHS(g.N(), 7)
	dopt := hcd.DefaultDecomposeOptions(hcd.MethodFixedDegree)
	dopt.SkipReport = true
	dres := must(hcd.DecomposeCtx(obsCtx, g, dopt))
	d := dres.D
	reportBuild("steiner clustering")
	sp := must(hcd.NewSteinerPreconditioner(d))
	subOpt := hcd.DefaultPlanarOptions()
	subOpt.ExtraFraction = 0.12
	sub := must(hcd.NewSubgraphPreconditioner(g, subOpt))
	opt := hcd.DefaultSolveOptions()
	sres := must(solvePCG(g, b, sp, opt))
	gres := must(solvePCG(g, b, sub.P, opt))
	t := cli.NewTable("preconditioner", "reduction", "iterations", "converged", "res[10]/res[0]")
	t.Row("steiner", float64(g.N())/float64(d.Count), sres.Iterations, sres.Converged, rat(sres.Residuals, 10))
	t.Row("subgraph", float64(g.N())/float64(sub.CoreSize), gres.Iterations, gres.Converged, rat(gres.Residuals, 10))
	fmt.Print(t)
	report("steiner", sres.Metrics)
	report("subgraph", gres.Metrics)
	fmt.Printf("paper shape: Steiner converges several times faster at matched reduction ≈ 4.\n")
	fmt.Printf("speedup (iterations): %.2fx\n", float64(gres.Iterations)/float64(sres.Iterations))
}

func rat(hist []float64, i int) float64 {
	if len(hist) == 0 {
		return 0
	}
	if i >= len(hist) {
		i = len(hist) - 1
	}
	return hist[i] / hist[0]
}

// e2 times the Section 3.1 clustering against bare spanning tree builds on
// a weighted 3D grid (paper: 10⁶ vertices, ≥ 4× even vs Boost's MST).
func e2() {
	side := 50
	if *full {
		side = 100 // 10⁶ vertices, the paper's instance size
	}
	g := hcd.Grid3D(side, side, side, hcd.LognormalWeights(1), 1)
	fmt.Printf("3D grid %d^3: n=%d m=%d\n", side, g.N(), g.M())
	timeIt := func(name string, f func()) time.Duration {
		start := time.Now()
		f()
		el := time.Since(start)
		return el
	}
	tCluster := timeIt("clustering", func() { must(decomposeFixedDegree(g, 4, 1)) })
	tKruskal := timeIt("kruskal", func() { mst.Kruskal(g, mst.Max) })
	tPrim := timeIt("prim", func() { mst.Prim(g, mst.Max) })
	tBoruvka := timeIt("boruvka", func() { mst.BoruvkaCtx(obsCtx, g, mst.Max, false) })
	tBoruvkaP := timeIt("boruvka-par", func() { mst.BoruvkaCtx(obsCtx, g, mst.Max, true) })
	t := cli.NewTable("construction", "time", "vs clustering")
	t.Row("§3.1 clustering (parallel)", tCluster, 1.0)
	t.Row("Kruskal max-ST", tKruskal, float64(tKruskal)/float64(tCluster))
	t.Row("Prim max-ST", tPrim, float64(tPrim)/float64(tCluster))
	t.Row("Borůvka max-ST", tBoruvka, float64(tBoruvka)/float64(tCluster))
	t.Row("Borůvka max-ST (parallel)", tBoruvkaP, float64(tBoruvkaP)/float64(tCluster))
	fmt.Print(t)
	fmt.Println("paper shape: clustering ≥ 4× faster than building just the spanning tree.")
}

// e3 sweeps random trees and verifies the Theorem 2.1 guarantees.
func e3() {
	t := cli.NewTable("n", "trees", "min φ", "min ρ", "mean ρ", "exact")
	for _, n := range []int{100, 1000, 10000, 100000} {
		trees := 20
		if n >= 10000 {
			trees = 3
		}
		minPhi, minRho, sumRho := math.Inf(1), math.Inf(1), 0.0
		exact := true
		for s := 0; s < trees; s++ {
			g := hcd.RandomTree(n, hcd.UniformWeights(0.1, 10), int64(s+1))
			d := must(decomposeTree(g))
			rep := hcd.Evaluate(d)
			minPhi = math.Min(minPhi, rep.Phi)
			minRho = math.Min(minRho, rep.Rho)
			sumRho += rep.Rho
			exact = exact && rep.PhiExact
		}
		t.Row(n, trees, minPhi, minRho, sumRho/float64(trees), exact)
	}
	fmt.Print(t)
	fmt.Println("paper claim: [1/2, 6/5]; certified floor of the construction is φ ≥ 1/3")
	fmt.Println("(the 1/3 is tight already on unit-weight 3-chains; see EXPERIMENTS.md E3).")
}

// e4 runs the planar pipeline across sizes and reports φ·ρ.
func e4() {
	t := cli.NewTable("side", "n", "φ", "ρ", "φ·ρ", "core |W|", "cut |C|")
	sides := []int{20, 40, 60}
	if *full {
		sides = append(sides, 100, 150)
	}
	for _, side := range sides {
		g := hcd.PlanarMesh(side, side, hcd.LognormalWeights(1), 3)
		opt := hcd.DefaultDecomposeOptions(hcd.MethodPlanar)
		res := must(hcd.DecomposeCtx(obsCtx, g, opt))
		rep := res.Report
		t.Row(side, g.N(), rep.Phi, rep.Rho, rep.Phi*rep.Rho, res.CoreSize, res.CutEdges)
		reportBuild(fmt.Sprintf("planar %d", side))
	}
	fmt.Print(t)
	fmt.Println("paper shape: φ·ρ bounded below by a constant as n grows.")
}

// e5 compares measured σ(S_P, A) against the Theorem 3.5 bound.
func e5() {
	t := cli.NewTable("graph", "φ (exact)", "σ(B,A) measured", "bound 3(1+2/φ³)", "slack")
	rng := rand.New(rand.NewSource(5))
	run := func(name string, g *hcd.Graph, d *hcd.Decomposition) {
		rep := hcd.Evaluate(d)
		p := must(hcd.NewSteinerPreconditioner(d))
		probe := cli.MeanFreeRHS(g.N(), rng.Int63())
		nums := must(hcd.MeasureSupport(g, p, probe, 80))
		bound := 3 * (1 + 2/math.Pow(rep.Phi, 3))
		t.Row(name, rep.Phi, nums.SigmaBA, bound, bound/nums.SigmaBA)
	}
	tree := hcd.RandomTree(2000, hcd.UniformWeights(0.1, 10), 2)
	run("tree:2000", tree, must(decomposeTree(tree)))
	grid := hcd.Grid3D(10, 10, 10, hcd.LognormalWeights(1), 3)
	run("grid3d:10", grid, must(decomposeFixedDegree(grid, 4, 1)))
	mesh := hcd.PlanarMesh(24, 24, hcd.LognormalWeights(1), 4)
	run("mesh:24", mesh, must(decomposePlanar(mesh, hcd.DefaultPlanarOptions())).D)
	fmt.Print(t)
	fmt.Println("paper claim: σ(S_P, A) ≤ 3(1 + 2/φ³); slack > 1 means the bound holds.")
}

// e6 measures the Theorem 4.1 alignment of low eigenvectors.
func e6() {
	g := hcd.Grid2D(24, 24, hcd.LognormalWeights(1), 5)
	d := must(decomposeFixedDegree(g, 4, 1))
	rows, err := hcd.Portrait(d, 5, 1)
	if err != nil {
		log.Fatal(err)
	}
	t := cli.NewTable("i", "λᵢ", "1−alignment (measured)", "bound 3λᵢ(1+2/φ³)", "holds")
	for _, r := range rows {
		t.Row(r.Index, r.Lambda, r.Misalignment, r.Bound, r.Holds)
	}
	fmt.Print(t)
	fmt.Println("paper claim: low eigenvectors lie near Range(D^{1/2}R).")
}

// e7 sweeps graph families for the Section 3.1 clustering.
func e7() {
	t := cli.NewTable("graph", "d_max", "max |C|", "φ", "paper bound 1/(2d²|C|)", "ρ", "κ(A,B)")
	rng := rand.New(rand.NewSource(7))
	for _, spec := range []string{"grid3d:10", "regular:600,4", "regular:600,6", "mesh:20"} {
		g := must(cli.BuildGraph(spec, 3))
		d := must(decomposeFixedDegree(g, 4, 1))
		rep := hcd.Evaluate(d)
		p := must(hcd.NewSteinerPreconditioner(d))
		nums := must(hcd.MeasureSupport(g, p, cli.MeanFreeRHS(g.N(), rng.Int63()), 60))
		dmax := g.MaxDegree()
		bound := 1.0 / (2 * float64(dmax*dmax) * float64(rep.MaxClusterSize))
		t.Row(spec, dmax, rep.MaxClusterSize, rep.Phi, bound, rep.Rho, nums.Kappa)
	}
	fmt.Print(t)
	fmt.Println("paper claim: [Ω(1/(d²k)), 2] decomposition, constant condition number.")
}

// e8 shows multilevel iteration counts staying nearly flat in n, up to the
// 64³ volume of the paper's Figure 6: the visits column is how often each
// level's cycle applies the level below, 2 on the cheap coarse tail.
func e8() {
	t := cli.NewTable("side", "n", "levels", "visits", "iterations", "converged")
	sides := []int{10, 14, 18, 22, 32, 48, 64}
	if *full {
		sides = append(sides, 80)
	}
	for _, side := range sides {
		g := hcd.OCT3D(side, side, side, hcd.DefaultOCTOptions())
		h := must(hcd.NewHierarchyCtx(obsCtx, g, hcd.DefaultHierarchyOptions()))
		res := must(solvePCG(g, cli.MeanFreeRHS(g.N(), 9), h, hcd.DefaultSolveOptions()))
		var visits []string
		for _, s := range h.LevelScales() {
			visits = append(visits, strconv.Itoa(s.Visits))
		}
		t.Row(side, g.N(), h.Depth(), strings.Join(visits, " "), res.Iterations, res.Converged)
		report(fmt.Sprintf("hierarchy %d³", side), res.Metrics)
	}
	fmt.Print(t)
	fmt.Println("expected shape: iterations grow at most mildly with n (multilevel behaviour).")
}

// e9 runs the minor-free (low-stretch tree) pipeline across sizes.
func e9() {
	t := cli.NewTable("side", "n", "φ", "ρ", "avg stretch", "φ·log³n")
	for _, side := range []int{20, 40, 60} {
		g := hcd.Grid2D(side, side, hcd.LognormalWeights(1.5), 11)
		res := must(decomposeMinorFree(g, 2))
		rep := hcd.Evaluate(res.D)
		logn := math.Log(float64(g.N()))
		t.Row(side, g.N(), rep.Phi, rep.Rho, res.AvgStretch, rep.Phi*logn*logn*logn)
	}
	fmt.Print(t)
	fmt.Println("paper shape: φ degrades at most polylogarithmically (Θ(1/log³n) with s fixed).")
}

// e11 measures strong scaling of the embarrassingly parallel pieces: the
// §3.1 clustering and the Laplacian SpMV, sweeping GOMAXPROCS. The PRAM
// "O(log n) time, linear work" claims translate here to real threads.
func e11() {
	maxProcs := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(maxProcs)
	side := 60
	if *full {
		side = 100
	}
	g := hcd.Grid3D(side, side, side, hcd.LognormalWeights(1), 1)
	x := make([]float64, g.N())
	y := make([]float64, g.N())
	for i := range x {
		x[i] = float64(i % 17)
	}
	t := cli.NewTable("threads", "clustering", "speedup", "SpMV ×20", "speedup")
	var base1, base2 time.Duration
	for p := 1; p <= maxProcs; p *= 2 {
		runtime.GOMAXPROCS(p)
		start := time.Now()
		must(decomposeFixedDegree(g, 4, 1))
		t1 := time.Since(start)
		start = time.Now()
		for rep := 0; rep < 20; rep++ {
			g.LapMul(y, x)
		}
		t2 := time.Since(start)
		if p == 1 {
			base1, base2 = t1, t2
		}
		t.Row(p, t1.Round(time.Millisecond), float64(base1)/float64(t1),
			t2.Round(time.Millisecond), float64(base2)/float64(t2))
	}
	fmt.Print(t)
	fmt.Printf("(3D grid %d³, n=%d; machine has %d threads)\n", side, side*side*side, maxProcs)
}

// a5 runs the anisotropic hard case: strong z-coupling defeats pointwise
// Jacobi, while the heaviest-edge clustering follows the strong direction
// and coarsens it away (the semicoarsening effect, a CMG hallmark).
func a5() {
	g := hcd.Grid3DAnisotropic(12, 12, 12, 1, 1, 1000)
	b := cli.MeanFreeRHS(g.N(), 29)
	t := cli.NewTable("preconditioner", "PCG iters", "converged")
	jr := must(solvePCG(g, b, hcd.JacobiPreconditioner(g), hcd.DefaultSolveOptions()))
	t.Row("jacobi", jr.Iterations, jr.Converged)
	d := must(decomposeFixedDegree(g, 4, 1))
	sp := must(hcd.NewSteinerPreconditioner(d))
	sr := must(solvePCG(g, b, sp, hcd.DefaultSolveOptions()))
	t.Row("steiner (heaviest-edge clusters)", sr.Iterations, sr.Converged)
	h := must(hcd.NewHierarchyCtx(obsCtx, g, hcd.DefaultHierarchyOptions()))
	hr := must(solvePCG(g, b, h, hcd.DefaultSolveOptions()))
	t.Row("steiner hierarchy", hr.Iterations, hr.Converged)
	fmt.Print(t)
	report("jacobi", jr.Metrics)
	report("steiner", sr.Metrics)
	report("hierarchy", hr.Metrics)
	fmt.Println("shape: heaviest-edge clusters align with the strong (z) direction,")
	fmt.Println("so the quotient removes the stiff coupling pointwise methods choke on.")
}

// e10 contrasts the paper's bottom-up constructions with the top-down
// recursive spectral baseline of Kannan–Vempala–Vetta the introduction
// analyzes: the recursion controls conductance directly but pays an
// eigensolve per split and has no reduction guarantee.
func e10() {
	t := cli.NewTable("method", "clusters", "ρ", "φ", "γ_avg (cut fraction)", "eigensolves", "time")
	g := hcd.Grid2D(24, 24, hcd.LognormalWeights(1), 21)
	start := time.Now()
	dBot := must(decomposeFixedDegree(g, 4, 1))
	tBot := time.Since(start)
	rBot := hcd.Evaluate(dBot)
	t.Row("bottom-up §3.1", dBot.Count, rBot.Rho, rBot.Phi, rBot.CutFraction, 0, tBot.Round(time.Microsecond))
	start = time.Now()
	opt := hcd.DefaultSpectralCutOptions()
	sres2, err := hcd.DecomposeCtx(obsCtx, g,
		hcd.DecomposeOptions{Method: hcd.MethodSpectral, Spectral: opt, SkipReport: true})
	if err != nil {
		log.Fatal(err)
	}
	dTop, st := sres2.D, sres2.SpectralStats
	tTop := time.Since(start)
	rTop := hcd.Evaluate(dTop)
	t.Row("top-down spectral", dTop.Count, rTop.Rho, rTop.Phi, rTop.CutFraction, st.EigenCalls, tTop.Round(time.Microsecond))
	fmt.Print(t)
	fmt.Println("shape: bottom-up guarantees ρ ≥ 2 and runs ~3 orders of magnitude")
	fmt.Println("faster; top-down needs an eigensolve per split, controls only the")
	fmt.Println("induced (not closure) conductance, and has no ρ guarantee — the")
	fmt.Println("paper's argument for bottom-up constructions.")
}

// a1 ablates the base tree choice in the planar pipeline.
func a1() {
	t := cli.NewTable("base tree", "φ", "ρ", "avg stretch", "PCG iters (as subgraph precond)")
	g := hcd.PlanarMesh(40, 40, hcd.LognormalWeights(1.5), 13)
	b := cli.MeanFreeRHS(g.N(), 17)
	for _, base := range []struct {
		name string
		b    hcd.BaseTree
	}{{"max-weight", hcd.MaxWeightTree}, {"low-stretch (AKPW)", hcd.LowStretchTree}} {
		opt := hcd.DefaultPlanarOptions()
		opt.Base = base.b
		res := must(decomposePlanar(g, opt))
		rep := hcd.Evaluate(res.D)
		sub := must(hcd.NewSubgraphPreconditioner(g, opt))
		sres := must(solvePCG(g, b, sub.P, hcd.DefaultSolveOptions()))
		t.Row(base.name, rep.Phi, rep.Rho, res.AvgStretch, sres.Iterations)
	}
	fmt.Print(t)
}

// a4 compares the two ways to build the Figure 6 subgraph baseline — the
// monolithic spanning-tree construction vs the block miniaturization the
// paper actually used — and the Steiner preconditioner, all on one system.
func a4() {
	side := 16
	g := hcd.OCT3D(side, side, side, hcd.DefaultOCTOptions())
	b := cli.MeanFreeRHS(g.N(), 23)
	t := cli.NewTable("preconditioner", "build", "core/quotient", "reduction", "PCG iters")
	run := func(name string, build func() (hcd.Preconditioner, int, error)) {
		start := time.Now()
		p, size, err := build()
		if err != nil {
			log.Fatal(err)
		}
		el := time.Since(start)
		res := must(solvePCG(g, b, p, hcd.DefaultSolveOptions()))
		t.Row(name, el.Round(time.Millisecond), size, float64(g.N())/float64(size), res.Iterations)
	}
	run("subgraph (monolithic tree)", func() (hcd.Preconditioner, int, error) {
		sub, err := hcd.NewSubgraphPreconditionerMatched(g, 4.5, 1)
		if err != nil {
			return nil, 0, err
		}
		return sub.P, sub.CoreSize, nil
	})
	run("subgraph (miniaturized)", func() (hcd.Preconditioner, int, error) {
		sub, err := hcd.NewGridSubgraphPreconditioner(g, side, side, side, 3)
		if err != nil {
			return nil, 0, err
		}
		return sub.P, sub.CoreSize, nil
	})
	run("steiner (§3.1)", func() (hcd.Preconditioner, int, error) {
		d, err := decomposeFixedDegree(g, 4, 1)
		if err != nil {
			return nil, 0, err
		}
		p, err := hcd.NewSteinerPreconditioner(d)
		return p, d.Count, err
	})
	fmt.Print(t)
	fmt.Println("paper setup: Fig 6's subgraph baseline used the miniaturized build;")
	fmt.Println("the Steiner preconditioner still wins on iterations and build time.")
}

// a2 ablates the random perturbation of Section 3.1 on tie-heavy inputs.
func a2() {
	// Unit-weight grids are all ties: without perturbation the heaviest-
	// edge choice is arbitrary; the deterministic hash stands in for the
	// paper's random factor and must still produce a forest and ρ ≥ 2.
	t := cli.NewTable("weights", "φ", "ρ", "singletons")
	for _, w := range []struct {
		name string
		g    *hcd.Graph
	}{
		{"unit (all ties)", hcd.Grid2D(30, 30, nil, 1)},
		{"lognormal σ=1", hcd.Grid2D(30, 30, hcd.LognormalWeights(1), 1)},
	} {
		d := must(decomposeFixedDegree(w.g, 4, 1))
		rep := hcd.Evaluate(d)
		t.Row(w.name, rep.Phi, rep.Rho, rep.Singletons)
	}
	fmt.Print(t)
	fmt.Println("shape: the perturbation makes the construction robust to ties at no quality cost.")
}

// a3 sweeps the cluster cap k: reduction vs condition number trade-off.
func a3() {
	g := hcd.Grid3D(12, 12, 12, hcd.LognormalWeights(1), 1)
	rng := rand.New(rand.NewSource(19))
	t := cli.NewTable("k", "clusters", "ρ", "φ", "κ(A,B)", "PCG iters")
	for _, k := range []int{2, 3, 4, 6, 8} {
		d := must(decomposeFixedDegree(g, k, 1))
		rep := hcd.Evaluate(d)
		p := must(hcd.NewSteinerPreconditioner(d))
		nums := must(hcd.MeasureSupport(g, p, cli.MeanFreeRHS(g.N(), rng.Int63()), 60))
		res := must(solvePCG(g, cli.MeanFreeRHS(g.N(), rng.Int63()), p, hcd.DefaultSolveOptions()))
		t.Row(k, d.Count, rep.Rho, rep.Phi, nums.Kappa, res.Iterations)
	}
	fmt.Print(t)
	fmt.Println("shape: bigger k → more reduction but worse conductance/condition number.")
}

// One-shot helpers over the context-aware entry points: every build and solve
// routes through obsCtx, so -trace/-listen observe the experiment runs too.
func solvePCG(g *hcd.Graph, b []float64, m hcd.Preconditioner, opt hcd.SolveOptions) (hcd.SolveResult, error) {
	resp, err := hcd.Do(obsCtx, g, hcd.SolveRequest{B: [][]float64{b}, M: m, Options: opt})
	if err != nil {
		return hcd.SolveResult{}, err
	}
	return resp.Results[0], nil
}

func decomposeTree(g *hcd.Graph) (*hcd.Decomposition, error) {
	res, err := hcd.DecomposeCtx(obsCtx, g,
		hcd.DecomposeOptions{Method: hcd.MethodTree, SkipReport: true})
	if err != nil {
		return nil, err
	}
	return res.D, nil
}

func decomposeFixedDegree(g *hcd.Graph, sizeCap int, seed int64) (*hcd.Decomposition, error) {
	res, err := hcd.DecomposeCtx(obsCtx, g, hcd.DecomposeOptions{
		Method: hcd.MethodFixedDegree, SizeCap: sizeCap, Seed: seed, SkipReport: true,
	})
	if err != nil {
		return nil, err
	}
	return res.D, nil
}

func decomposePlanar(g *hcd.Graph, opt hcd.PlanarOptions) (*hcd.DecomposeResult, error) {
	return hcd.DecomposeCtx(obsCtx, g, hcd.DecomposeOptions{
		Method: hcd.MethodPlanar, Base: opt.Base,
		ExtraFraction: opt.ExtraFraction, Seed: opt.Seed, SkipReport: true,
	})
}

func decomposeMinorFree(g *hcd.Graph, seed int64) (*hcd.DecomposeResult, error) {
	opt := hcd.DefaultDecomposeOptions(hcd.MethodMinorFree)
	opt.Seed = seed
	opt.SkipReport = true
	return hcd.DecomposeCtx(obsCtx, g, opt)
}
