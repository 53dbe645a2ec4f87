package hcd_test

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"hcd"
	"hcd/internal/workload"
)

// TestDoMultiRHS: one request, several right-hand sides, one preconditioner
// build shared across them.
func TestDoMultiRHS(t *testing.T) {
	g := hcd.Grid2D(12, 12, nil, 1)
	rng := rand.New(rand.NewSource(3))
	B := make([][]float64, 3)
	for i := range B {
		B[i] = meanFree(rng, g.N())
	}
	resp, err := hcd.Do(context.Background(), g, hcd.SolveRequest{B: B})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 3 {
		t.Fatalf("want 3 results, got %d", len(resp.Results))
	}
	for i, res := range resp.Results {
		if !res.Converged {
			t.Errorf("rhs %d: outcome %s", i, res.Outcome)
		}
		if r := residual(g, res.X, B[i]); r > 1e-5 {
			t.Errorf("rhs %d: residual %v", i, r)
		}
	}
}

// TestDoMatchesWrapper: SolvePCGCtx is a thin wrapper over Do — identical
// request, identical iteration count.
func TestDoMatchesWrapper(t *testing.T) {
	g := hcd.Grid2D(10, 10, nil, 1)
	rng := rand.New(rand.NewSource(9))
	b := meanFree(rng, g.N())
	m := hcd.JacobiPreconditioner(g)
	opt := hcd.DefaultSolveOptions()

	direct, err := hcd.SolvePCGCtx(context.Background(), g, b, m, opt)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := hcd.Do(context.Background(), g, hcd.SolveRequest{
		B: [][]float64{b}, Method: hcd.SolveMethodPCG, M: m, Options: opt,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := resp.Results[0].Iterations; got != direct.Iterations {
		t.Fatalf("Do iterations %d != SolvePCGCtx iterations %d", got, direct.Iterations)
	}
}

// TestDoEngineDetaches: results from the engine path must survive engine
// reuse — Do copies them out of the engine's aliased buffers.
func TestDoEngineDetaches(t *testing.T) {
	g := hcd.Grid2D(10, 10, nil, 1)
	rng := rand.New(rand.NewSource(4))
	b1, b2 := meanFree(rng, g.N()), meanFree(rng, g.N())
	eng, err := hcd.NewEngine(g, hcd.JacobiPreconditioner(g), hcd.DefaultSolveOptions())
	if err != nil {
		t.Fatal(err)
	}
	resp1, err := hcd.Do(context.Background(), g, hcd.SolveRequest{B: [][]float64{b1}, Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	x1 := append([]float64(nil), resp1.Results[0].X...)
	if _, err = hcd.Do(context.Background(), g, hcd.SolveRequest{B: [][]float64{b2}, Engine: eng}); err != nil {
		t.Fatal(err)
	}
	for i := range x1 {
		if x1[i] != resp1.Results[0].X[i] {
			t.Fatalf("engine reuse clobbered an earlier result at %d", i)
		}
	}
}

// TestDoPrecondSpecs: every named preconditioner kind builds and converges
// through the spec path.
func TestDoPrecondSpecs(t *testing.T) {
	g := hcd.Grid2D(10, 10, nil, 1)
	rng := rand.New(rand.NewSource(6))
	b := meanFree(rng, g.N())
	for _, kind := range []hcd.PrecondKind{
		hcd.PrecondNone, hcd.PrecondJacobi, hcd.PrecondSteiner,
		hcd.PrecondTree, hcd.PrecondSubgraph, hcd.PrecondHierarchy,
	} {
		resp, err := hcd.Do(context.Background(), g, hcd.SolveRequest{
			B: [][]float64{b}, Precond: hcd.PrecondSpec{Kind: kind},
		})
		if err != nil {
			t.Fatalf("kind %s: %v", kind, err)
		}
		if !resp.Results[0].Converged {
			t.Errorf("kind %s: outcome %s", kind, resp.Results[0].Outcome)
		}
	}
	if _, err := hcd.Do(context.Background(), g, hcd.SolveRequest{
		B: [][]float64{b}, Precond: hcd.PrecondSpec{Kind: "bogus"},
	}); !errors.Is(err, hcd.ErrInvalidInput) {
		t.Fatalf("bogus kind: %v, want ErrInvalidInput", err)
	}
}

// TestSolvePCGDimensionError: a right-hand side of the wrong length is a
// wrapped ErrBadDimension, not a panic.
func TestSolvePCGDimensionError(t *testing.T) {
	g := hcd.Grid2D(6, 6, nil, 1)
	_, err := hcd.SolvePCGCtx(context.Background(), g, make([]float64, g.N()+1), hcd.JacobiPreconditioner(g), hcd.DefaultSolveOptions())
	if !errors.Is(err, hcd.ErrBadDimension) {
		t.Fatalf("got %v, want ErrBadDimension", err)
	}
}

// TestDoValidation: empty requests fail with ErrInvalidInput.
func TestDoValidation(t *testing.T) {
	g := hcd.Grid2D(4, 4, nil, 1)
	if _, err := hcd.Do(context.Background(), g, hcd.SolveRequest{}); !errors.Is(err, hcd.ErrInvalidInput) {
		t.Fatalf("no RHS: %v, want ErrInvalidInput", err)
	}
	if _, err := hcd.Do(context.Background(), nil, hcd.SolveRequest{B: [][]float64{{1}}}); !errors.Is(err, hcd.ErrInvalidInput) {
		t.Fatalf("nil graph: %v, want ErrInvalidInput", err)
	}
	if _, err := hcd.Do(context.Background(), g, hcd.SolveRequest{
		B: [][]float64{make([]float64, g.N())}, Method: "bogus",
	}); !errors.Is(err, hcd.ErrInvalidInput) {
		t.Fatalf("bogus method: %v, want ErrInvalidInput", err)
	}
}

type namedGraph struct {
	name string
	g    *hcd.Graph
}

// invarianceGraphs are the graphs the metamorphic scaling tests solve on: a
// lognormal 3-D grid, a road network, an FE mesh and a random tree.
func invarianceGraphs(t *testing.T) []namedGraph {
	t.Helper()
	road, err := workload.RoadNetwork(24, 24, 6, workload.Lognormal(0.5), 3)
	if err != nil {
		t.Fatal(err)
	}
	fem, err := workload.FEMesh(20, 20, -1, nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	return []namedGraph{
		{"grid3d10", hcd.Grid3D(10, 10, 10, hcd.LognormalWeights(1), 3)},
		{"road24", road},
		{"femesh20", fem},
		{"tree3000", hcd.RandomTree(3000, hcd.LognormalWeights(1), 3)},
	}
}

// TestRHSScaleSignInvariant: solving s·b for a power of two s of either sign
// takes the path solving b takes — the same outcome and iteration count — and
// returns exactly s·x, through every method and preconditioner form Do has.
// Every step of a solve is linear in b or a ratio of two such quantities, and
// a power of two scales a float exactly while nothing overflows, so a
// difference is a threshold that is absolute instead of relative to ‖b‖.
func TestRHSScaleSignInvariant(t *testing.T) {
	ctx := context.Background()
	scales := []float64{-1, math.Ldexp(1, 300), math.Ldexp(1, -300), -math.Ldexp(1, 37)}
	for _, gr := range invarianceGraphs(t) {
		g := gr.g
		m, err := hcd.NewPreconditioner(ctx, g, hcd.PrecondSpec{})
		if err != nil {
			t.Fatal(err)
		}
		eng, err := hcd.NewEngine(g, m, hcd.DefaultSolveOptions())
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(5))
		B := make([][]float64, 4)
		for j := range B {
			B[j] = meanFree(rng, g.N())
		}
		opt := hcd.DefaultSolveOptions()
		methods := []struct {
			name string
			req  func(B [][]float64) hcd.SolveRequest
		}{
			{"pcg k=1", func(B [][]float64) hcd.SolveRequest { return hcd.SolveRequest{B: B[:1], M: m, Options: opt} }},
			{"pcg k=4", func(B [][]float64) hcd.SolveRequest { return hcd.SolveRequest{B: B, M: m, Options: opt} }},
			{"pcg k=4 engine", func(B [][]float64) hcd.SolveRequest { return hcd.SolveRequest{B: B, Engine: eng, Options: opt} }},
			{"resilient", func(B [][]float64) hcd.SolveRequest {
				return hcd.SolveRequest{B: B[:1], Method: hcd.SolveMethodResilient, Options: opt}
			}},
		}
		for _, me := range methods {
			base, err := hcd.Do(ctx, g, me.req(B))
			if err != nil {
				t.Fatalf("%s %s: %v", gr.name, me.name, err)
			}
			for _, s := range scales {
				sB := make([][]float64, len(B))
				for j, b := range B {
					sB[j] = make([]float64, len(b))
					for v := range b {
						sB[j][v] = s * b[v]
					}
				}
				resp, err := hcd.Do(ctx, g, me.req(sB))
				if err != nil {
					t.Fatalf("%s %s s=%g: %v", gr.name, me.name, s, err)
				}
				for j, res := range resp.Results {
					want := base.Results[j]
					if res.Outcome != want.Outcome || res.Iterations != want.Iterations {
						t.Errorf("%s %s s=%g rhs %d: %v after %d iterations, b: %v after %d",
							gr.name, me.name, s, j, res.Outcome, res.Iterations, want.Outcome, want.Iterations)
						continue
					}
					for v, x := range res.X {
						if x != s*want.X[v] {
							t.Errorf("%s %s s=%g rhs %d: x[%d] = %v, want %v", gr.name, me.name, s, j, v, x, s*want.X[v])
							break
						}
					}
				}
			}
		}
	}
}

// TestUnderflowingRHSConverges: a right-hand side whose ‖b‖² underflows, or
// lies so close to the bottom of the range that rᵀz and ‖r‖² would go
// subnormal during the solve — entries near 2^f, f from −480 down to −560 —
// is solved, not reported converged at x = 0. The solve runs on b rescaled by
// a power of two, so its x and residual history are exactly 2^f times those
// of the unscaled solve, and its x, read back at that scale, leaves a small
// residual. In a block of three the same holds for that column, and the other
// two are bit-identical to the block's solve with the unscaled column in its
// place.
func TestUnderflowingRHSConverges(t *testing.T) {
	ctx := context.Background()
	g := hcd.Grid2D(12, 12, hcd.LognormalWeights(1), 1)
	rng := rand.New(rand.NewSource(3))
	b0 := meanFree(rng, g.N())
	b1, b2 := meanFree(rng, g.N()), meanFree(rng, g.N())
	for _, f := range []int{-480, -500, -505, -510, -515, -560} {
		tiny := make([]float64, len(b0))
		for v, x := range b0 {
			tiny[v] = math.Ldexp(x, f)
		}
		for _, kind := range []hcd.PrecondKind{hcd.PrecondHierarchy, hcd.PrecondJacobi} {
			solve := func(B ...[]float64) []hcd.SolveResult {
				resp, err := hcd.Do(ctx, g, hcd.SolveRequest{B: B, Options: hcd.DefaultSolveOptions(), Precond: hcd.PrecondSpec{Kind: kind}})
				if err != nil {
					t.Fatal(err)
				}
				return resp.Results
			}
			scaled := func(label string, res, base hcd.SolveResult) {
				if res.Outcome != hcd.OutcomeConverged || res.Iterations == 0 || res.Iterations != base.Iterations {
					t.Fatalf("%s f=%d %s: %v after %d iterations, unscaled b: %v after %d",
						kind, f, label, res.Outcome, res.Iterations, base.Outcome, base.Iterations)
				}
				x0 := make([]float64, len(res.X))
				for v, x := range res.X {
					if x != math.Ldexp(base.X[v], f) {
						t.Fatalf("%s f=%d %s: x[%d] = %v, want 2^f·%v", kind, f, label, v, x, base.X[v])
					}
					x0[v] = math.Ldexp(x, -f)
				}
				if r := residual(g, x0, b0); r > 1e-6 {
					t.Errorf("%s f=%d %s: rescaled residual %v", kind, f, label, r)
				}
				for i, r := range res.Residuals {
					if r != math.Ldexp(base.Residuals[i], f) {
						t.Fatalf("%s f=%d %s: residual %d = %v, want 2^f·%v", kind, f, label, i, r, base.Residuals[i])
					}
				}
			}
			scaled("k=1", solve(tiny)[0], solve(b0)[0])
			block, want := solve(b1, tiny, b2), solve(b1, b0, b2)
			scaled("k=3", block[1], want[1])
			for _, j := range []int{0, 2} {
				if d := sameSolve(block[j], want[j]); d != "" {
					t.Errorf("%s f=%d k=3 column %d beside the tiny column: %s", kind, f, j, d)
				}
			}
		}
	}
}

// TestBlockColumnsInvariant: the columns of a block solve do not leak into
// one another. Permuting a k = 4 block's columns permutes hcd.Do's results
// bit for bit, and negating one column or scaling it by 2^±300 leaves every
// other column's iterate, residual history, coefficients and count
// bit-identical — through PCG, with M and with an Engine. The right-hand
// sides converge one after another, so deflation compacts the block at
// different iterations and moves columns between the 4-wide tile and the
// tail.
func TestBlockColumnsInvariant(t *testing.T) {
	ctx := context.Background()
	same := func(a, b hcd.SolveResult) bool {
		return a.Outcome == b.Outcome && hashBlock([]hcd.SolveResult{a}) == hashBlock([]hcd.SolveResult{b})
	}
	for _, gr := range invarianceGraphs(t) {
		g := gr.g
		m, err := hcd.NewPreconditioner(ctx, g, hcd.PrecondSpec{})
		if err != nil {
			t.Fatal(err)
		}
		eng, err := hcd.NewEngine(g, m, hcd.DefaultSolveOptions())
		if err != nil {
			t.Fatal(err)
		}
		B := staggeredRHS(g, m, 4, 17)
		opt := hcd.DefaultSolveOptions()
		for _, me := range []struct {
			name string
			perm []int
			req  hcd.SolveRequest
		}{
			{"pcg", []int{3, 2, 1, 0}, hcd.SolveRequest{M: m, Options: opt}},
			{"pcg engine", []int{3, 2, 1, 0}, hcd.SolveRequest{Engine: eng, Options: opt}},
		} {
			do := func(B [][]float64) []hcd.SolveResult {
				req := me.req
				req.B = B
				resp, err := hcd.Do(ctx, g, req)
				if err != nil {
					t.Fatalf("%s %s: %v", gr.name, me.name, err)
				}
				return resp.Results
			}
			base := do(B)
			pB := make([][]float64, len(B))
			for i, j := range me.perm {
				pB[i] = B[j]
			}
			for i, res := range do(pB) {
				if !same(res, base[me.perm[i]]) {
					t.Errorf("%s %s: column %d of the permuted block differs from column %d", gr.name, me.name, i, me.perm[i])
				}
			}
			for _, j := range []int{0, 2} {
				for _, s := range []float64{-1, math.Ldexp(1, 300), math.Ldexp(1, -300)} {
					sB := slices.Clone(B)
					sB[j] = make([]float64, len(B[j]))
					for v, x := range B[j] {
						sB[j][v] = s * x
					}
					for i, res := range do(sB) {
						want := base[i]
						if i != j {
							if !same(res, want) {
								t.Errorf("%s %s: scaling column %d by %g moved column %d", gr.name, me.name, j, s, i)
							}
							continue
						}
						if res.Outcome != want.Outcome || res.Iterations != want.Iterations {
							t.Errorf("%s %s s=%g column %d: %v after %d iterations, unscaled %v after %d",
								gr.name, me.name, s, j, res.Outcome, res.Iterations, want.Outcome, want.Iterations)
							continue
						}
						for v, x := range res.X {
							if x != s*want.X[v] {
								t.Errorf("%s %s s=%g column %d: x[%d] = %v, want %v", gr.name, me.name, s, j, v, x, s*want.X[v])
								break
							}
						}
					}
				}
			}
		}
	}
}

// TestWeightScaleInvariant: a graph with every weight times 2^e, e even, and
// a right-hand side times 2^f are solved along the path of the unscaled
// system — the same clustering, the same outcome and iteration count — and
// return exactly 2^(f−e)·x, through PCG of either width. The
// clustering compares weights and ratios of them, the cycle and the Krylov
// steps are linear in the weights, in b or ratios of such quantities, and the
// coarse factor takes one square root per pivot, exact on an even power of
// two. An odd e keeps every iteration count but moves x by a few ulps: the
// square root of 2^e is no float. Where |f − e| reaches 900, rᵀz ≈ 2^(2f−e)
// leaves the float range, and the solve must say so: a breakdown with a
// reason, not a wrong x.
func TestWeightScaleInvariant(t *testing.T) {
	ctx := context.Background()
	solve := func(g *hcd.Graph, B [][]float64) map[string]*hcd.SolveResponse {
		m, err := hcd.NewPreconditioner(ctx, g, hcd.PrecondSpec{})
		if err != nil {
			t.Fatal(err)
		}
		opt := hcd.DefaultSolveOptions()
		out := map[string]*hcd.SolveResponse{}
		for name, req := range map[string]hcd.SolveRequest{
			"pcg k=1": {B: B[:1], M: m, Options: opt},
			"pcg k=4": {B: B, M: m, Options: opt},
		} {
			resp, err := hcd.Do(ctx, g, req)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			out[name] = resp
		}
		return out
	}
	for _, gr := range invarianceGraphs(t) {
		rng := rand.New(rand.NewSource(5))
		B := make([][]float64, 4)
		for j := range B {
			B[j] = meanFree(rng, gr.g.N())
		}
		base := solve(scaledWeights(t, gr.g, 0), B)
		for _, e := range []int{-600, -2, 2, 38, 600} {
			g := scaledWeights(t, gr.g, e)
			for _, f := range []int{-300, 0, 300} {
				sB := make([][]float64, len(B))
				for j, b := range B {
					sB[j] = make([]float64, len(b))
					for v, x := range b {
						sB[j][v] = math.Ldexp(x, f)
					}
				}
				for name, resp := range solve(g, sB) {
					for j, res := range resp.Results {
						want := base[name].Results[j]
						if f-e <= -900 || f-e >= 900 {
							if res.Outcome != hcd.OutcomeBreakdown || res.Reason == "" {
								t.Errorf("%s %s e=%d f=%d rhs %d: %v (%q), want a breakdown with a reason",
									gr.name, name, e, f, j, res.Outcome, res.Reason)
							}
							continue
						}
						if res.Outcome != want.Outcome || res.Iterations != want.Iterations {
							t.Errorf("%s %s e=%d f=%d rhs %d: %v after %d iterations, unscaled: %v after %d",
								gr.name, name, e, f, j, res.Outcome, res.Iterations, want.Outcome, want.Iterations)
							continue
						}
						for v, x := range res.X {
							if x != math.Ldexp(want.X[v], f-e) {
								t.Errorf("%s %s e=%d f=%d rhs %d: x[%d] = %v, want %v",
									gr.name, name, e, f, j, v, x, math.Ldexp(want.X[v], f-e))
								break
							}
						}
					}
				}
			}
		}
	}
}
