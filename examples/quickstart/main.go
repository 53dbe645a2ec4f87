// Quickstart: build a weighted 3D grid, decompose it into high-conductance
// clusters, inspect the quality report, and solve a Laplacian system with a
// Steiner-preconditioned CG.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"hcd"
)

func main() {
	// A 16×16×16 grid with lognormal edge weights — the paper's "weighted
	// 3D regular grid" with large weight variation.
	g := hcd.Grid3D(16, 16, 16, hcd.LognormalWeights(1), 42)
	fmt.Printf("graph: n=%d, m=%d\n", g.N(), g.M())

	// Section 3.1 clustering: clusters of ≈4 vertices, every closure with
	// provably bounded conductance, reduction factor ≥ 2.
	ctx := context.Background()
	dres, err := hcd.DecomposeCtx(ctx, g, hcd.DecomposeOptions{
		Method: hcd.MethodFixedDegree, SizeCap: 4, Seed: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	d, rep := dres.D, dres.Report
	fmt.Printf("decomposition: %d clusters, ρ=%.2f, φ=%.4f (exact=%v)\n",
		d.Count, rep.Rho, rep.Phi, rep.PhiExact)

	// Build the Steiner preconditioner of Section 3 and solve A·x = b.
	p, err := hcd.NewSteinerPreconditioner(d)
	if err != nil {
		log.Fatal(err)
	}
	b := randomRHS(g.N())
	resp, err := hcd.Do(ctx, g, hcd.SolveRequest{B: [][]float64{b}, M: p, Options: hcd.DefaultSolveOptions()})
	if err != nil {
		log.Fatal(err)
	}
	res := resp.Results[0]
	fmt.Printf("PCG: converged=%v in %d iterations (‖r‖ %.2e → %.2e)\n",
		res.Converged, res.Iterations,
		res.Residuals[0], res.Residuals[len(res.Residuals)-1])

	// Verify the solution against the operator.
	ax := make([]float64, g.N())
	g.LapMul(ax, res.X)
	worst := 0.0
	for i := range ax {
		if d := abs(ax[i] - b[i]); d > worst {
			worst = d
		}
	}
	fmt.Printf("verification: max |(Ax − b)_i| = %.2e\n", worst)
}

func randomRHS(n int) []float64 {
	rng := rand.New(rand.NewSource(7))
	b := make([]float64, n)
	s := 0.0
	for i := range b {
		b[i] = rng.NormFloat64()
		s += b[i]
	}
	for i := range b { // Laplacian systems need b ⊥ 1
		b[i] -= s / float64(n)
	}
	return b
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
