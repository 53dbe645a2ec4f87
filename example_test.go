package hcd_test

import (
	"context"
	"fmt"

	"hcd"
)

// ExampleDecomposeCtx_fixedDegree shows the Section 3.1 clustering on a small
// unit grid: every cluster has at least two vertices, so ρ ≥ 2.
func ExampleDecomposeCtx_fixedDegree() {
	g := hcd.Grid2D(6, 6, nil, 1)
	res, err := hcd.DecomposeCtx(context.Background(), g, hcd.DefaultDecomposeOptions(hcd.MethodFixedDegree))
	if err != nil {
		panic(err)
	}
	rep := res.Report
	fmt.Printf("rho>=2: %v, clusters of size >=2: %v\n",
		rep.Rho >= 2, rep.Singletons == 0)
	// Output:
	// rho>=2: true, clusters of size >=2: true
}

// ExampleDecomposeCtx_tree shows the Theorem 2.1 guarantees on a path.
func ExampleDecomposeCtx_tree() {
	// A path of 30 unit-weight vertices.
	edges := make([]hcd.Edge, 29)
	for i := range edges {
		edges[i] = hcd.Edge{U: i, V: i + 1, W: 1}
	}
	g, err := hcd.NewGraph(30, edges)
	if err != nil {
		panic(err)
	}
	res, err := hcd.DecomposeCtx(context.Background(), g, hcd.DecomposeOptions{Method: hcd.MethodTree})
	if err != nil {
		panic(err)
	}
	rep := res.Report
	fmt.Printf("phi>=1/3: %v, rho>=6/5: %v, exact: %v\n",
		rep.Phi >= 1.0/3-1e-9, rep.Rho >= 1.2, rep.PhiExact)
	// Output:
	// phi>=1/3: true, rho>=6/5: true, exact: true
}

// ExampleSolveCtx solves a Laplacian system with the multilevel Steiner
// preconditioner in one call.
func ExampleSolveCtx() {
	g := hcd.Grid3D(6, 6, 6, hcd.LognormalWeights(1), 1)
	b := make([]float64, g.N())
	b[0], b[g.N()-1] = 1, -1 // a unit current from corner to corner
	res, err := hcd.SolveCtx(context.Background(), g, b)
	if err != nil {
		panic(err)
	}
	fmt.Printf("converged: %v\n", res.Converged)
	// Output:
	// converged: true
}
