package hcd_test

// Tests for the solve engine API: context entry points, sentinel errors,
// engine sessions, and per-solve metrics.

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"hcd"
)

func TestSentinelErrors(t *testing.T) {
	// NewGraph: out-of-range endpoint and negative vertex count.
	if _, err := hcd.NewGraph(3, []hcd.Edge{{U: 0, V: 7, W: 1}}); !errors.Is(err, hcd.ErrBadDimension) {
		t.Errorf("out-of-range edge: %v, want ErrBadDimension", err)
	}
	if _, err := hcd.NewGraph(-1, nil); !errors.Is(err, hcd.ErrBadDimension) {
		t.Errorf("negative n: %v, want ErrBadDimension", err)
	}
	// The normalized-Laplacian eigensolver requires a connected graph.
	g, err := hcd.NewGraph(4, []hcd.Edge{{U: 0, V: 1, W: 1}, {U: 2, V: 3, W: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := hcd.SmallestEigenpairs(g, 1, 0, 1); !errors.Is(err, hcd.ErrDisconnected) {
		t.Errorf("disconnected graph: %v, want ErrDisconnected", err)
	}
	// Solve paths reject mismatched right-hand sides.
	conn := hcd.Grid2D(5, 5, nil, 1)
	if _, err := hcd.SolvePCGCtx(context.Background(), conn, make([]float64, 7),
		hcd.JacobiPreconditioner(conn), hcd.DefaultSolveOptions()); !errors.Is(err, hcd.ErrBadDimension) {
		t.Errorf("short rhs: %v, want ErrBadDimension", err)
	}
	if _, err := hcd.NewEngine(conn, hcd.JacobiPreconditioner(hcd.Grid2D(3, 3, nil, 1)),
		hcd.DefaultSolveOptions()); !errors.Is(err, hcd.ErrBadDimension) {
		t.Errorf("mismatched preconditioner: %v, want ErrBadDimension", err)
	}
	// Out-of-range option values are ErrInvalidInput wherever they surface.
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		call func() error
	}{
		{"unknown decomposition method", func() error {
			_, err := hcd.DecomposeCtx(ctx, conn, hcd.DecomposeOptions{Method: hcd.DecomposeMethod(42)})
			return err
		}},
		{"resilient with a non-hierarchy preconditioner", func() error {
			_, _, err := hcd.SolveResilient(ctx, conn, make([]float64, conn.N()), hcd.PrecondSpec{Kind: hcd.PrecondJacobi})
			return err
		}},
		{"unknown base tree", func() error {
			_, err := hcd.NewTreePreconditioner(conn, hcd.BaseTree(42), 1)
			return err
		}},
		{"target reduction", func() error {
			_, err := hcd.NewSubgraphPreconditionerMatched(conn, 1, 1)
			return err
		}},
		{"hierarchy SizeCap 1", func() error {
			_, err := hcd.NewHierarchyCtx(context.Background(), conn, hcd.HierarchyOptions{SizeCap: 1})
			return err
		}},
		{"fixed-degree SizeCap 1", func() error {
			_, err := hcd.DecomposeCtx(ctx, conn, hcd.DecomposeOptions{Method: hcd.MethodFixedDegree, SizeCap: 1})
			return err
		}},
	} {
		if err := tc.call(); !errors.Is(err, hcd.ErrInvalidInput) {
			t.Errorf("%s: %v, want ErrInvalidInput", tc.name, err)
		}
	}
}

func TestSolveCtxMatchesSolve(t *testing.T) {
	g := hcd.OCT3D(6, 6, 6, hcd.DefaultOCTOptions())
	rng := rand.New(rand.NewSource(31))
	b := meanFree(rng, g.N())
	res, err := hcd.SolveCtx(context.Background(), g, b)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != hcd.OutcomeConverged || !res.Converged {
		t.Fatalf("outcome %v", res.Outcome)
	}
	if res.Metrics.MatVecs == 0 || res.Metrics.PrecondApplies == 0 || res.Metrics.TotalTime <= 0 {
		t.Errorf("hierarchy-preconditioned solve metrics not populated: %+v", res.Metrics)
	}
}

func TestSolveCtxCancelled(t *testing.T) {
	g := hcd.Grid2D(20, 20, hcd.LognormalWeights(1), 2)
	rng := rand.New(rand.NewSource(32))
	b := meanFree(rng, g.N())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := hcd.SolvePCGCtx(ctx, g, b, hcd.JacobiPreconditioner(g), hcd.DefaultSolveOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != hcd.OutcomeCancelled {
		t.Errorf("outcome %v, want OutcomeCancelled", res.Outcome)
	}
}

func TestHierarchyEngineBatchedSolves(t *testing.T) {
	g := hcd.OCT3D(6, 6, 6, hcd.DefaultOCTOptions())
	eng, err := hcd.NewHierarchyEngine(context.Background(), g, hcd.DefaultHierarchyOptions(), hcd.DefaultSolveOptions())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(33))
	for k := 0; k < 3; k++ {
		b := meanFree(rng, g.N())
		res, err := eng.Solve(context.Background(), b)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatalf("batched solve %d: %v after %d iterations", k, res.Outcome, res.Iterations)
		}
		if k > 0 && res.Metrics.ScratchAllocs != 0 {
			t.Errorf("batched solve %d allocated %d buffers", k, res.Metrics.ScratchAllocs)
		}
	}
}
