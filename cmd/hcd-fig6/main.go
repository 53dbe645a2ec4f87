// Command hcd-fig6 regenerates Figure 6 of the paper: the PCG residual
// norm ‖Axᵢ − b‖₂ per iteration for a Steiner preconditioner vs a subgraph
// preconditioner on a weighted 3D grid, with both preconditioners built at
// roughly the same system reduction factor (≈ 4 in the paper).
//
// Output: three columns (iteration, steiner residual, subgraph residual),
// normalized to start at 1 like the paper's plot. The build and solve wall
// times of both preconditioners go to stderr.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"hcd"
	"hcd/internal/cli"
)

func main() {
	side := flag.Int("side", 20, "3D grid side (n = side³)")
	iters := flag.Int("iters", 40, "iterations to plot (the paper shows 40)")
	seed := flag.Int64("seed", 1, "random seed")
	o := cli.ObsFlags()
	flag.Parse()

	ctx, err := o.Start(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	defer func() {
		if cerr := o.Close(); cerr != nil {
			log.Fatal(cerr)
		}
	}()

	opt := hcd.DefaultOCTOptions()
	opt.Seed = *seed
	g := hcd.OCT3D(*side, *side, *side, opt)
	b := cli.MeanFreeRHS(g.N(), *seed+7)

	// Steiner preconditioner: Section 3.1 clustering at size cap 4 gives a
	// reduction factor ≈ 4 in the quotient system.
	start := time.Now()
	dres, err := hcd.DecomposeCtx(context.Background(), g, hcd.DecomposeOptions{
		Method: hcd.MethodFixedDegree, SizeCap: 4, Seed: *seed, SkipReport: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	d := dres.D
	sp, err := hcd.NewSteinerPreconditioner(d)
	if err != nil {
		log.Fatal(err)
	}
	steinerRed := float64(g.N()) / float64(d.Count)
	steinerBuild := time.Since(start)

	// Subgraph preconditioner tuned so the core its degree-1/2 elimination
	// leaves matches the Steiner quotient size (the paper's "roughly the same
	// reduction factor" protocol), via bisection on the off-tree edge budget.
	start = time.Now()
	sub, err := hcd.NewSubgraphPreconditionerMatched(g, steinerRed, *seed)
	if err != nil {
		log.Fatal(err)
	}
	subRed := float64(g.N()) / float64(sub.CoreSize)
	subBuild := time.Since(start)

	solve := hcd.DefaultSolveOptions()
	solve.Tol = 1e-16 // run the full iteration budget, like the figure
	solve.MaxIter = *iters
	start = time.Now()
	sres := solvePCG(ctx, g, b, sp, solve)
	steinerSolve := time.Since(start)
	start = time.Now()
	gres := solvePCG(ctx, g, b, sub.P, solve)
	subSolve := time.Since(start)
	fmt.Fprintf(os.Stderr, "build ms: steiner %d, subgraph %d; solve ms: steiner %d, subgraph %d\n",
		steinerBuild.Milliseconds(), subBuild.Milliseconds(), steinerSolve.Milliseconds(), subSolve.Milliseconds())

	fmt.Printf("# Figure 6 reproduction: weighted 3D grid %d^3 (n=%d)\n", *side, g.N())
	fmt.Printf("# steiner reduction=%.2f (quotient %d), subgraph reduction=%.2f (core %d)\n",
		steinerRed, d.Count, subRed, sub.CoreSize)
	fmt.Printf("%-6s %-14s %-14s\n", "iter", "steiner", "subgraph")
	for i := 0; i <= *iters; i++ {
		fmt.Printf("%-6d %-14.6e %-14.6e\n", i, at(sres.Residuals, i), at(gres.Residuals, i))
	}
}

// solvePCG runs one right-hand side through Do with the preconditioner m,
// exiting on error.
func solvePCG(ctx context.Context, g *hcd.Graph, b []float64, m hcd.Preconditioner, opt hcd.SolveOptions) hcd.SolveResult {
	resp, err := hcd.Do(ctx, g, hcd.SolveRequest{B: [][]float64{b}, M: m, Options: opt})
	if err != nil {
		log.Fatal(err)
	}
	return resp.Results[0]
}

// at returns the normalized residual at iteration i, holding the last value
// once a solver has converged early.
func at(hist []float64, i int) float64 {
	if len(hist) == 0 {
		return 0
	}
	if i >= len(hist) {
		i = len(hist) - 1
	}
	return hist[i] / hist[0]
}
