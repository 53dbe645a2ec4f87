package hcd_test

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"hcd"
)

// TestDoBlockRoutingMatchesSequential: a multi-RHS PCG request is one block
// solve, and every column of it converges to the solution of its own
// single-RHS SolvePCGCtx with an iteration count within ±10% of that solve's.
func TestDoBlockRoutingMatchesSequential(t *testing.T) {
	g := hcd.Grid2D(20, 20, nil, 1)
	rng := rand.New(rand.NewSource(31))
	B := make([][]float64, 4)
	for i := range B {
		B[i] = meanFree(rng, g.N())
	}
	m := hcd.JacobiPreconditioner(g)
	block, err := hcd.Do(context.Background(), g, hcd.SolveRequest{B: B, M: m})
	if err != nil {
		t.Fatal(err)
	}
	if len(block.Results) != len(B) {
		t.Fatalf("%d results for %d right-hand sides", len(block.Results), len(B))
	}
	for i := range B {
		br := block.Results[i]
		sr, err := hcd.SolvePCGCtx(context.Background(), g, B[i], m, hcd.SolveOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !br.Converged || !sr.Converged {
			t.Fatalf("rhs %d: block %s, sequential %s", i, br.Outcome, sr.Outcome)
		}
		if r := residual(g, br.X, B[i]); r > 1e-5 {
			t.Errorf("rhs %d: block residual %v", i, r)
		}
		lo := int(math.Floor(0.9 * float64(sr.Iterations)))
		hi := int(math.Ceil(1.1*float64(sr.Iterations))) + 1
		if br.Iterations < lo || br.Iterations > hi {
			t.Errorf("rhs %d: block %d iterations vs sequential %d (outside ±10%%)",
				i, br.Iterations, sr.Iterations)
		}
	}
}

// TestDoBlockEngineDetaches: block results from an engine-backed request are
// copied out of the engine's packed buffers and survive the engine's next
// solve.
func TestDoBlockEngineDetaches(t *testing.T) {
	g := hcd.Grid2D(14, 14, nil, 1)
	rng := rand.New(rand.NewSource(32))
	eng, err := hcd.NewHierarchyEngine(context.Background(), g, hcd.DefaultHierarchyOptions(), hcd.DefaultSolveOptions())
	if err != nil {
		t.Fatal(err)
	}
	B := [][]float64{meanFree(rng, g.N()), meanFree(rng, g.N())}
	resp, err := hcd.Do(context.Background(), g, hcd.SolveRequest{B: B, Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	saved := append([]float64(nil), resp.Results[0].X...)
	// Another solve on the same engine overwrites the packed scratch.
	B2 := [][]float64{meanFree(rng, g.N()), meanFree(rng, g.N())}
	if _, err := hcd.Do(context.Background(), g, hcd.SolveRequest{B: B2, Engine: eng}); err != nil {
		t.Fatal(err)
	}
	for i := range saved {
		if resp.Results[0].X[i] != saved[i] {
			t.Fatal("block result aliased engine scratch: overwritten by the next solve")
		}
	}
	if r := residual(g, resp.Results[0].X, B[0]); r > 1e-5 {
		t.Errorf("detached result residual %v", r)
	}
}

// TestDoMultiRHSPartialFailure: a bad column does not discard its neighbors
// — every column is attempted, completed columns keep their results, and the
// joined error still matches the wrapped sentinel.
func TestDoMultiRHSPartialFailure(t *testing.T) {
	g := hcd.Grid2D(10, 10, nil, 1)
	rng := rand.New(rand.NewSource(33))
	good1 := meanFree(rng, g.N())
	bad := make([]float64, g.N()-1) // wrong length
	good2 := meanFree(rng, g.N())
	req := hcd.SolveRequest{
		B:       [][]float64{good1, bad, good2},
		Precond: hcd.PrecondSpec{Kind: hcd.PrecondJacobi},
	}
	resp, err := hcd.Do(context.Background(), g, req)
	if err == nil {
		t.Fatal("want an error for the malformed column")
	}
	if !errors.Is(err, hcd.ErrBadDimension) {
		t.Fatalf("error %v does not wrap ErrBadDimension", err)
	}
	if len(resp.Results) != 3 {
		t.Fatalf("want 3 results (completed columns preserved), got %d", len(resp.Results))
	}
	for _, i := range []int{0, 2} {
		if !resp.Results[i].Converged {
			t.Errorf("good column %d lost: outcome %s", i, resp.Results[i].Outcome)
		}
	}
	if resp.Results[1].Outcome != hcd.OutcomeUnknown {
		t.Errorf("failed column outcome %s, want unknown", resp.Results[1].Outcome)
	}
}
