package hcd_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"hcd"
	"hcd/internal/kernel"
	"hcd/internal/workload"
)

// sameSolve names the first thing in which a block column's result differs
// from its solo solve's — outcome, iteration count, or a word of X, of the
// residual history, of α or of β — or is "".
func sameSolve(got, want hcd.SolveResult) string {
	if got.Outcome != want.Outcome || got.Iterations != want.Iterations {
		return fmt.Sprintf("%v after %d iterations, solo %v after %d", got.Outcome, got.Iterations, want.Outcome, want.Iterations)
	}
	for _, f := range []struct {
		name      string
		got, want []float64
	}{{"X", got.X, want.X}, {"Residuals", got.Residuals, want.Residuals}, {"Alphas", got.Alphas, want.Alphas}, {"Betas", got.Betas, want.Betas}} {
		if len(f.got) != len(f.want) {
			return fmt.Sprintf("%d %s, solo %d", len(f.got), f.name, len(f.want))
		}
		for i, x := range f.got {
			if math.Float64bits(x) != math.Float64bits(f.want[i]) {
				return fmt.Sprintf("%s[%d] = %v, solo %v", f.name, i, x, f.want[i])
			}
		}
	}
	return ""
}

// TestBlockWidthInvariant: every column of a block solve is its solo solve,
// bit for bit — X, residual history, α, β, iteration count and outcome —
// through hcd.Do and through a warm Engine, under the hierarchy, the Steiner
// hierarchy, Jacobi and no preconditioner, at widths that take every tile
// shape, on an FE mesh the hierarchy solves in its layout view and a grid it
// solves in the caller's numbering, with either form of the kernels. Every
// kernel rounds a column of a block as it rounds a lone column, and every
// reduction sums a column over the partition a lone column is summed over.
// The right-hand sides converge one after another (staggeredRHS), so the
// blocks deflate through narrower widths. The graphs are small and the
// hierarchy recurses down to 64 vertices, so the race detector runs the test
// too.
func TestBlockWidthInvariant(t *testing.T) {
	fem, err := workload.FEMesh(16, 16, -1, workload.Lognormal(1), 5)
	if err != nil {
		t.Fatal(err)
	}
	graphs := []struct {
		name, space string
		g           *hcd.Graph
	}{
		{"femesh16", "layout", fem},
		{"grid2d8x36", "natural", hcd.Grid2D(8, 36, hcd.LognormalWeights(1), 5)},
	}
	forms := []func(func()){func(f func()) { f() }}
	if kernel.Name() != "go" {
		forms = append(forms, kernel.WithGo)
	}
	ctx := context.Background()
	opt := hcd.DefaultSolveOptions()
	hopt := hcd.DefaultHierarchyOptions()
	hopt.DirectLimit = 64
	for _, form := range forms {
		form(func() {
			for _, gr := range graphs {
				h, err := hcd.NewHierarchyCtx(ctx, gr.g, hopt)
				if err != nil {
					t.Fatal(err)
				}
				B := staggeredRHS(gr.g, h, 16, int64(gr.g.N()))
				for _, kind := range []hcd.PrecondKind{hcd.PrecondHierarchy, hcd.PrecondSteiner, hcd.PrecondJacobi, hcd.PrecondNone} {
					name := fmt.Sprintf("%s kernel, %s, %s", kernel.Name(), gr.name, kind)
					var m hcd.Preconditioner = h
					if kind != hcd.PrecondHierarchy {
						if m, err = hcd.NewPreconditioner(ctx, gr.g, hcd.PrecondSpec{Kind: kind}); err != nil {
							t.Fatal(err)
						}
					}
					spec := hcd.PrecondSpec{Kind: kind}
					solo := make([]hcd.SolveResult, len(B))
					for j, b := range B {
						tr := hcd.NewTracer()
						resp, err := hcd.Do(hcd.WithTracer(ctx, tr), gr.g, hcd.SolveRequest{B: [][]float64{b}, M: m, Precond: spec, Options: opt})
						if err != nil {
							t.Fatal(err)
						}
						solo[j] = resp.Results[0]
						if space := attemptSpace(tr); j == 0 && kind == hcd.PrecondHierarchy && space != gr.space {
							t.Fatalf("%s: solved in space %q, want %q", name, space, gr.space)
						}
					}
					eng, err := hcd.NewEngine(gr.g, m, opt)
					if err != nil {
						t.Fatal(err)
					}
					if _, err := hcd.Do(ctx, gr.g, hcd.SolveRequest{B: B, Engine: eng, Options: opt}); err != nil {
						t.Fatal(err)
					}
					for _, k := range []int{2, 3, 4, 5, 7, 8, 9, 12, 16} {
						for _, path := range []struct {
							name string
							req  hcd.SolveRequest
						}{
							{"Do", hcd.SolveRequest{B: B[:k], M: m, Precond: spec, Options: opt}},
							{"Engine", hcd.SolveRequest{B: B[:k], Engine: eng, Options: opt}},
						} {
							resp, err := hcd.Do(ctx, gr.g, path.req)
							if err != nil {
								t.Fatal(err)
							}
							for j, res := range resp.Results {
								if d := sameSolve(res, solo[j]); d != "" {
									t.Fatalf("%s, %s, k=%d column %d: %s", name, path.name, k, j, d)
								}
							}
						}
					}
				}
			}
		})
	}
}

// attemptSpace returns the space the traced solve's attempt ran in.
func attemptSpace(tr *hcd.Tracer) string {
	for _, s := range tr.Spans() {
		if s.Name != "solve/attempt" {
			continue
		}
		for _, a := range s.Args {
			if a.Key == "space" {
				space, _ := a.Value.(string)
				return space
			}
		}
	}
	return ""
}

// TestDoBlockRoutingMatchesSequential: a multi-RHS PCG request is one block
// solve, and every column of it converges to the solution of its own
// single-RHS SolvePCGCtx: the same solve, bit for bit.
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
		if d := sameSolve(br, sr); d != "" {
			t.Errorf("rhs %d: %s", i, d)
		}
	}
}

// TestDoBlockEngineDetaches: block results from an engine-backed request are
// copied out of the engine's packed buffers and survive the engine's next
// solve.
func TestDoBlockEngineDetaches(t *testing.T) {
	g := hcd.Grid2D(14, 14, nil, 1)
	rng := rand.New(rand.NewSource(32))
	h, err := hcd.NewHierarchyCtx(context.Background(), g, hcd.DefaultHierarchyOptions())
	if err != nil {
		t.Fatal(err)
	}
	eng, err := hcd.NewEngine(g, h, hcd.DefaultSolveOptions())
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
