// oct3d reproduces the paper's motivating application (Section 3.2): solving
// Laplacian systems on 3D optical-coherence-tomography-like volumes whose
// edge weights vary over many orders of magnitude, both globally (tissue
// layers) and locally (speckle noise). It compares four solvers on the same
// system: plain CG, Jacobi PCG, two-level Steiner PCG, and the multilevel
// Steiner hierarchy.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"time"

	"hcd"
)

func main() {
	opt := hcd.DefaultOCTOptions()
	opt.Contrast = 100 // 100× conductivity drop per tissue layer
	opt.NoiseSigma = 1 // strong multiplicative speckle
	g := hcd.OCT3D(24, 24, 24, opt)
	fmt.Printf("synthetic OCT volume: 24³ = %d vertices, %d edges\n", g.N(), g.M())

	ctx := context.Background()
	b := randomRHS(g.N())
	run := func(name string, build func() (hcd.Preconditioner, error)) {
		start := time.Now()
		p, err := build()
		if err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		buildTime := time.Since(start)
		start = time.Now()
		resp, err := hcd.Do(ctx, g, hcd.SolveRequest{B: [][]float64{b}, M: p, Options: hcd.DefaultSolveOptions()})
		if err != nil {
			log.Fatal(err)
		}
		res := resp.Results[0]
		fmt.Printf("%-22s build %-12v solve %-12v iters %-5d converged %v\n",
			name, buildTime.Round(time.Millisecond), time.Since(start).Round(time.Millisecond),
			res.Iterations, res.Converged)
	}

	run("jacobi", func() (hcd.Preconditioner, error) {
		return hcd.JacobiPreconditioner(g), nil
	})
	run("steiner (two-level)", func() (hcd.Preconditioner, error) {
		dres, err := hcd.DecomposeCtx(ctx, g, hcd.DecomposeOptions{
			Method: hcd.MethodFixedDegree, SizeCap: 4, Seed: 1, SkipReport: true,
		})
		if err != nil {
			return nil, err
		}
		return hcd.NewSteinerPreconditioner(dres.D)
	})
	run("subgraph (baseline)", func() (hcd.Preconditioner, error) {
		popt := hcd.DefaultPlanarOptions()
		popt.ExtraFraction = 0.12
		sub, err := hcd.NewSubgraphPreconditioner(g, popt)
		if err != nil {
			return nil, err
		}
		return sub.P, nil
	})
	run("steiner hierarchy", func() (hcd.Preconditioner, error) {
		return hcd.NewHierarchyCtx(ctx, g, hcd.DefaultHierarchyOptions())
	})
}

func randomRHS(n int) []float64 {
	rng := rand.New(rand.NewSource(11))
	b := make([]float64, n)
	s := 0.0
	for i := range b {
		b[i] = rng.NormFloat64()
		s += b[i]
	}
	for i := range b {
		b[i] -= s / float64(n)
	}
	return b
}
