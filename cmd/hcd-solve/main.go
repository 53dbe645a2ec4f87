// Command hcd-solve solves a graph Laplacian system A·x = b on a generated
// workload with a selectable preconditioner and reports convergence. It is a
// thin front end over hcd.Do — the same request path the hcd-server solve
// handlers execute.
//
// Usage:
//
//	hcd-solve -graph oct:16 -precond hierarchy
//	hcd-solve -graph grid3d:20 -precond steiner -tol 1e-10
//	hcd-solve -graph grid3d:32 -precond hierarchy -metrics -timeout 30s
//	hcd-solve -graph grid3d:16 -resilient -trace trace.json
//	hcd-solve -graph grid3d:24 -listen :6060
//	hcd-solve -graph grid3d:20 -rhs 8 -metrics
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"hcd"
	"hcd/internal/cli"
	"hcd/internal/kernel"
	"hcd/internal/obs"
)

func main() { cli.Main(run) }

func run() (err error) {
	graphSpec := flag.String("graph", "oct:12", "workload graph spec")
	precond := flag.String("precond", "hierarchy", "preconditioner: none | jacobi | steiner | subgraph | tree | hierarchy")
	tol := flag.Float64("tol", 1e-8, "relative residual tolerance")
	k := flag.Int("k", 4, "cluster size cap for steiner/hierarchy")
	seed := flag.Int64("seed", 1, "random seed")
	rhs := flag.Int("rhs", 1, "right-hand sides to solve; >1 routes all columns through one block solve")
	history := flag.Bool("history", false, "print the full residual history")
	metrics := flag.Bool("metrics", false, "print per-solve metrics (matvecs, applies, phase times), a hierarchy build's stage times and which form of the leaf kernels ran: kernel=avx2 or go")
	stream := flag.Bool("stream", false, "stream residual norms to stderr as the solve iterates")
	resilient := flag.Bool("resilient", false, "solve through the resilient fallback ladder (ignores -precond)")
	timeout := flag.Duration("timeout", 0, "solve deadline (0 = none); an expired deadline cancels the iteration")
	o := cli.ObsFlags()
	flag.Parse()

	g, err := cli.BuildGraph(*graphSpec, *seed)
	if err != nil {
		return err
	}
	nrhs := *rhs
	if nrhs < 1 {
		nrhs = 1
	}
	B := make([][]float64, nrhs)
	for i := range B {
		B[i] = cli.MeanFreeRHS(g.N(), *seed+100+int64(i))
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	ctx, err = o.Start(ctx)
	if err != nil {
		return err
	}
	if *metrics {
		ctx = o.EnsureRegistry(ctx)
	}
	defer func() {
		if cerr := o.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	var observer hcd.IterationObserver
	if o.Tracer != nil || o.Registry != nil || *stream {
		var ws hcd.IterationObserver
		if *stream {
			ws = obs.StreamResiduals(os.Stderr)
		}
		observer = obs.MultiObserver(
			obs.TraceResiduals(o.Tracer, "residual"),
			obs.HistogramResiduals(o.Registry, "hcd_solve_residual"),
			ws,
		)
	}

	opt := hcd.DefaultSolveOptions()
	opt.Tol = *tol
	opt.Observer = observer
	if *resilient {
		solveStart := time.Now()
		resp, rerr := hcd.Do(ctx, g, hcd.SolveRequest{
			B: B, Method: hcd.SolveMethodResilient, Options: opt,
			Precond: hcd.PrecondSpec{SizeCap: *k, Seed: *seed},
		})
		solveTime := time.Since(solveStart)
		fmt.Printf("graph: %s  n=%d m=%d\n", *graphSpec, g.N(), g.M())
		converged := 0
		for i, rep := range resp.Resilience {
			res, prefix := resp.Results[i], ""
			if nrhs > 1 {
				prefix = fmt.Sprintf("rhs %d: ", i)
			}
			fmt.Printf("%sladder: %s\n", prefix, rep.String())
			fmt.Printf("%srung: %s  recovered: %v\n", prefix, rep.Rung, rep.Recovered)
			fmt.Printf("%soutcome: %s  iterations: %d\n", prefix, res.Outcome, res.Iterations)
			if *metrics {
				printMetrics(res.Metrics)
			}
			if res.Converged {
				converged++
			}
		}
		if rerr != nil {
			return rerr
		}
		fmt.Printf("converged: %d/%d  solve: %v\n", converged, nrhs, solveTime)
		printRegistry(o, *metrics)
		return nil
	}

	// Build the preconditioner up front (rather than letting Do build it
	// from the spec) so build and solve wall times report separately and
	// the hierarchy's level profile can be printed. Under -metrics the build
	// is traced — into the -trace tracer if there is one, else into one kept
	// in memory for the build alone — so its stages can be summed.
	spec := hcd.PrecondSpec{Kind: hcd.PrecondKind(*precond), SizeCap: *k, Seed: *seed}
	buildCtx := ctx
	if *metrics {
		buildCtx = o.EnsureTracer(ctx)
	}
	buildStart := time.Now()
	m, err := hcd.NewPreconditioner(buildCtx, g, spec)
	if err != nil {
		return err
	}
	buildTime := time.Since(buildStart)
	h, _ := m.(*hcd.Hierarchy)
	if h != nil {
		fmt.Printf("hierarchy levels: %v\n", h.LevelSizes())
	}

	solveStart := time.Now()
	resp, err := hcd.Do(ctx, g, hcd.SolveRequest{
		B: B, M: m, Options: opt,
		Precond: hcd.PrecondSpec{Kind: hcd.PrecondNone},
	})
	if err != nil {
		return err
	}
	solveTime := time.Since(solveStart)
	res := resp.Results[len(resp.Results)-1]

	fmt.Printf("graph: %s  n=%d m=%d\n", *graphSpec, g.N(), g.M())
	fmt.Printf("preconditioner: %s  build: %v\n", *precond, buildTime)
	if nrhs > 1 {
		// Multi-RHS: one block solve served every column — report each
		// column's own convergence plus the aggregate throughput.
		converged := 0
		for i, r := range resp.Results {
			if r.Converged {
				converged++
			}
			fmt.Printf("rhs %d: outcome: %s  iterations: %d  final-residual: %.3g\n",
				i, r.Outcome, r.Iterations, r.Metrics.FinalResidual)
			if *metrics {
				printMetrics(r.Metrics)
			}
		}
		fmt.Printf("converged: %d/%d  solve: %v  throughput: %.2f rhs/sec\n",
			converged, nrhs, solveTime, float64(nrhs)/solveTime.Seconds())
		if *metrics {
			fmt.Printf("metrics: kernel=%s\n", kernel.Name())
			printBuildStages(h, o.Tracer)
			printLevelScales(h)
		}
		printRegistry(o, *metrics)
		return nil
	}
	fmt.Printf("outcome: %s  iterations: %d  solve: %v\n", res.Outcome, res.Iterations, solveTime)
	if len(res.Residuals) > 0 {
		fmt.Printf("residual: %.3g -> %.3g\n", res.Residuals[0], res.Residuals[len(res.Residuals)-1])
	}
	if *metrics {
		printMetrics(res.Metrics)
		fmt.Printf("metrics: kernel=%s\n", kernel.Name())
		printBuildStages(h, o.Tracer)
		printLevelScales(h)
	}
	if lmin, lmax, eerr := hcd.EstimateSpectrum(res); eerr == nil && lmin > 0 {
		fmt.Printf("estimated spectrum of M⁻¹A: [%.4g, %.4g], κ ≈ %.4g\n", lmin, lmax, lmax/lmin)
	}
	if *history {
		for i, r := range res.Residuals {
			fmt.Printf("%d %.6e\n", i, r)
		}
	}
	printRegistry(o, *metrics)
	return nil
}

// printRegistry dumps the aggregated metric registry when -metrics is
// combined with an instrumented run (-trace/-listen created a registry).
func printRegistry(o *cli.Obs, metrics bool) {
	if !metrics || o.Registry == nil {
		return
	}
	fmt.Println("registry:")
	_ = o.Registry.WritePrometheus(os.Stdout)
}

// printBuildStages prints where a hierarchy build's time went, in ms summed
// over its levels, from the spans the build recorded in t: the clustering
// (hierarchy/level-<i>), the quotient contraction, the apply layout and the
// coarse factorization.
func printBuildStages(h *hcd.Hierarchy, t *obs.Tracer) {
	if h == nil {
		return
	}
	ms := map[string]float64{}
	for _, s := range cli.Stages(t.Spans(), "hierarchy/") {
		name := s.Name
		if strings.HasPrefix(name, "level-") {
			name = "cluster"
		}
		ms[name] += float64(s.Duration) / float64(time.Millisecond)
	}
	fmt.Printf("metrics: build cluster=%.2fms contract=%.2fms layout=%.2fms coarse-factor=%.2fms\n",
		ms["cluster"], ms["contract"], ms["layout"], ms["coarse-factor"])
}

// printLevelScales prints, per level of a hierarchy preconditioner (nil: any
// other), what the clustering kept inside clusters (γ), the coarse-correction
// scale the cycle drew from it and how often each visit of the level applies
// the one below — the quality figures that explain the iteration count printed
// above them —, the share of level 0's entries in row groups and its runs of
// equal row length, in the caller's numbering and in the layout solves run in,
// and the matrix entries one apply streams, the cost to read next to the
// iteration count.
func printLevelScales(h *hcd.Hierarchy) {
	if h == nil {
		return
	}
	sizes := h.LevelSizes()
	for level, s := range h.LevelScales() {
		fmt.Printf("metrics: level %d  vertices=%d  gamma=%.3f  alpha=%.3f  visits=%d\n", level, sizes[level], s.Gamma, s.Alpha, s.Visits)
	}
	if h.Depth() > 0 {
		natural, layout := h.GroupedShares()
		fmt.Printf("metrics: level 0 grouped natural=%.1f%% layout=%.1f%%\n", 100*natural, 100*layout)
		runsNatural, runsLayout := h.DegreeRuns()
		fmt.Printf("metrics: level 0 degree-runs natural=%d layout=%d\n", runsNatural, runsLayout)
	}
	fmt.Printf("metrics: cycle entries=%d\n", h.CycleEntries())
}

func printMetrics(m hcd.SolveMetrics) {
	fmt.Printf("metrics: matvecs=%d precond-applies=%d iterations=%d\n",
		m.MatVecs, m.PrecondApplies, m.Iterations)
	fmt.Printf("metrics: setup=%v iterate=%v total=%v scratch-allocs=%d final-residual=%.3g\n",
		m.SetupTime, m.IterTime, m.TotalTime, m.ScratchAllocs, m.FinalResidual)
}
