package hcd_test

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"testing"

	"hcd"
)

func TestCutFractionReported(t *testing.T) {
	g := hcd.Grid2D(10, 10, nil, 1)
	d := fixedDegree(t, g, 4, 1)
	rep := hcd.Evaluate(d)
	if rep.CutFraction <= 0 || rep.CutFraction >= 1 {
		t.Errorf("CutFraction = %v", rep.CutFraction)
	}
	// One single cluster → no cut.
	single := &hcd.Decomposition{G: g, Assign: make([]int, g.N()), Count: 1}
	if cf := hcd.Evaluate(single).CutFraction; cf != 0 {
		t.Errorf("single-cluster CutFraction = %v", cf)
	}
}

func TestDecomposeSpectralFacade(t *testing.T) {
	g := hcd.Grid2D(10, 10, hcd.LognormalWeights(1), 2)
	res := decompose(t, g, hcd.DefaultDecomposeOptions(hcd.MethodSpectral))
	d, st := res.D, res.SpectralStats
	if err := hcd.Validate(d); err != nil {
		t.Fatal(err)
	}
	if st.Splits == 0 {
		t.Error("no splits recorded")
	}
	// The paper's contrast: bottom-up clustering guarantees ρ ≥ 2 with no
	// eigensolves; top-down used st.EigenCalls of them.
	if st.EigenCalls == 0 {
		t.Error("no eigensolves recorded")
	}
}

// TestHierarchyComposedLevelsValidate: composing a hierarchy's level
// assignments down to any depth partitions the original graph into connected
// clusters — the laminar family the examples read a deepest clustering from.
func TestHierarchyComposedLevelsValidate(t *testing.T) {
	g := hcd.Grid2D(14, 14, hcd.LognormalWeights(1), 3)
	hopt := hcd.DefaultHierarchyOptions()
	hopt.DirectLimit = 6
	h, err := hcd.NewHierarchyCtx(context.Background(), g, hopt)
	if err != nil {
		t.Fatal(err)
	}
	levels, _ := h.DumpLevels()
	if len(levels) < 2 {
		t.Fatalf("depth %d", len(levels))
	}
	assign := make([]int, g.N())
	for v := range assign {
		assign[v] = v
	}
	for depth, l := range levels {
		for v := range assign {
			assign[v] = l.Assign[assign[v]]
		}
		d := &hcd.Decomposition{G: g, Assign: append([]int(nil), assign...), Count: l.Count}
		if err := hcd.Validate(d); err != nil {
			t.Fatalf("depth %d: %v", depth, err)
		}
	}
}

func TestIORoundTripFacade(t *testing.T) {
	g := hcd.PlanarMesh(6, 6, hcd.LognormalWeights(1), 5)
	var buf bytes.Buffer
	if err := hcd.WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	h, err := hcd.ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if h.N() != g.N() || h.M() != g.M() {
		t.Error("edge-list round trip mismatch")
	}
	buf.Reset()
	if err := hcd.WriteMatrixMarket(&buf, g); err != nil {
		t.Fatal(err)
	}
	h, err = hcd.ReadMatrixMarket(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if h.N() != g.N() || h.M() != g.M() {
		t.Error("MatrixMarket round trip mismatch")
	}
	buf.Reset()
	if err := hcd.WriteGraphSnapshot(&buf, g); err != nil {
		t.Fatal(err)
	}
	h, err = hcd.ReadGraphSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if h.N() != g.N() || h.M() != g.M() {
		t.Error("snapshot round trip mismatch")
	}
}

func TestMatchedReductionSubgraph(t *testing.T) {
	g := hcd.OCT3D(10, 10, 10, hcd.DefaultOCTOptions())
	target := 4.0
	sub, err := hcd.NewSubgraphPreconditionerMatched(g, target, 1)
	if err != nil {
		t.Fatal(err)
	}
	got := float64(g.N()) / float64(sub.CoreSize)
	if got < target/2 || got > target*2 {
		t.Errorf("matched reduction %v, target %v (core %d of %d)", got, target, sub.CoreSize, g.N())
	}
	if _, err := hcd.NewSubgraphPreconditionerMatched(g, 1, 1); err == nil {
		t.Error("target reduction 1 accepted")
	}
}

// TestMatchedSubgraphDeterministic builds Figure 6's baseline — the subgraph
// preconditioner at the Steiner side's reduction factor — five times in one
// process: every build must apply to the same bits and give PCG the same
// iteration count. The degree-1/2 elimination probe that sizes it walks Go
// maps, and map order once chose an elimination's pairs and its summation
// order.
func TestMatchedSubgraphDeterministic(t *testing.T) {
	g := hcd.OCT3D(12, 12, 12, hcd.DefaultOCTOptions())
	b := meanFree(rand.New(rand.NewSource(8)), g.N())
	opt := hcd.DefaultSolveOptions()
	opt.Tol = 1e-6
	var wantX []float64
	var wantIters int
	for round := 0; round < 5; round++ {
		sub, err := hcd.NewSubgraphPreconditionerMatched(g, 4, 1)
		if err != nil {
			t.Fatal(err)
		}
		x := make([]float64, g.N())
		sub.P.Apply(x, b)
		res, err := hcd.SolvePCGCtx(context.Background(), g, b, sub.P, opt)
		if err != nil {
			t.Fatal(err)
		}
		if round == 0 {
			wantX, wantIters = x, res.Iterations
			continue
		}
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(wantX[i]) {
				t.Fatalf("build %d: Apply output differs at %d: %v vs %v", round, i, x[i], wantX[i])
			}
		}
		if res.Iterations != wantIters {
			t.Fatalf("build %d: %d iterations, first build took %d", round, res.Iterations, wantIters)
		}
	}
}

func TestTreePreconditioner(t *testing.T) {
	g := hcd.Grid2D(14, 14, hcd.LognormalWeights(1), 3)
	rng := rand.New(rand.NewSource(7))
	b := meanFree(rng, g.N())
	for _, base := range []hcd.BaseTree{hcd.MaxWeightTree, hcd.LowStretchTree} {
		p, err := hcd.NewTreePreconditioner(g, base, 1)
		if err != nil {
			t.Fatal(err)
		}
		res, err := hcd.SolvePCGCtx(context.Background(), g, b, p, hcd.DefaultSolveOptions())
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatalf("base %d: tree-PCG did not converge (%d iters)", base, res.Iterations)
		}
		if r := residual(g, res.X, b); r > 1e-5 {
			t.Errorf("base %d: residual %v", base, r)
		}
	}
	if _, err := hcd.NewTreePreconditioner(g, hcd.BaseTree(99), 1); err == nil {
		t.Error("unknown base accepted")
	}
}

// Preconditioner strength ordering on a hard instance: tree < subgraph <
// Steiner hierarchy in iteration counts, the paper's Figure 6 narrative
// extended one baseline down.
func TestPreconditionerLadder(t *testing.T) {
	g := hcd.OCT3D(8, 8, 16, hcd.DefaultOCTOptions())
	rng := rand.New(rand.NewSource(9))
	b := meanFree(rng, g.N())
	tp, err := hcd.NewTreePreconditioner(g, hcd.MaxWeightTree, 1)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := hcd.NewSubgraphPreconditioner(g, hcd.DefaultPlanarOptions())
	if err != nil {
		t.Fatal(err)
	}
	h, err := hcd.NewHierarchyCtx(context.Background(), g, hcd.DefaultHierarchyOptions())
	if err != nil {
		t.Fatal(err)
	}
	it := func(p hcd.Preconditioner) int {
		res, err := hcd.SolvePCGCtx(context.Background(), g, b, p, hcd.DefaultSolveOptions())
		if err != nil || !res.Converged {
			return 1 << 30
		}
		return res.Iterations
	}
	tree, subg, hier := it(tp), it(sub.P), it(h)
	t.Logf("iterations: tree=%d subgraph=%d hierarchy=%d", tree, subg, hier)
	if !(hier <= subg && subg <= tree) {
		t.Errorf("expected hierarchy ≤ subgraph ≤ tree, got %d %d %d", hier, subg, tree)
	}
}

// TestHierarchyOptionsLiteral: a HierarchyOptions literal that sets only
// SizeCap and DirectLimit recurses to DirectLimit like the defaults; the
// depth cap is the build's own, so no literal can hand the whole graph to
// the coarse factorization.
func TestHierarchyOptionsLiteral(t *testing.T) {
	g := hcd.Grid3D(24, 24, 24, hcd.LognormalWeights(1), 1)
	h, err := hcd.NewHierarchyCtx(context.Background(), g, hcd.HierarchyOptions{SizeCap: 4, DirectLimit: 600})
	if err != nil {
		t.Fatal(err)
	}
	if h.Depth() != 3 || h.CoarseSize() > 600 {
		t.Errorf("depth %d, coarse size %d; want 3 levels down to at most 600 vertices", h.Depth(), h.CoarseSize())
	}
}

func TestGridSubgraphPreconditioner(t *testing.T) {
	side := 9
	g := hcd.Grid3D(side, side, side, hcd.LognormalWeights(1), 2)
	sub, err := hcd.NewGridSubgraphPreconditioner(g, side, side, side, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Miniaturization leaves roughly the block-interface vertices.
	if sub.CoreSize <= 0 || sub.CoreSize >= g.N()/2 {
		t.Errorf("core size %d of %d", sub.CoreSize, g.N())
	}
	rng := rand.New(rand.NewSource(5))
	b := meanFree(rng, g.N())
	res, err := hcd.SolvePCGCtx(context.Background(), g, b, sub.P, hcd.DefaultSolveOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Errorf("miniaturized subgraph PCG did not converge (%d iters)", res.Iterations)
	}
	if _, err := hcd.NewGridSubgraphPreconditioner(g, side+1, side, side, 3); err == nil {
		t.Error("wrong dims accepted")
	}
}

func TestAgreementFacade(t *testing.T) {
	rep, err := hcd.Agreement([]int{0, 0, 1}, []int{7, 7, 9})
	if err != nil || rep.Purity != 1 || rep.RandIndex != 1 {
		t.Errorf("agreement: %+v %v", rep, err)
	}
}

// End-to-end: decompose a graph loaded from a serialized form, solve on it.
func TestLoadDecomposeSolvePipeline(t *testing.T) {
	orig := hcd.OCT3D(6, 6, 6, hcd.DefaultOCTOptions())
	var buf bytes.Buffer
	if err := hcd.WriteMatrixMarket(&buf, orig); err != nil {
		t.Fatal(err)
	}
	g, err := hcd.ReadMatrixMarket(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	b := meanFree(rng, g.N())
	resp, err := hcd.Do(context.Background(), g, hcd.SolveRequest{B: [][]float64{b}, Options: hcd.DefaultSolveOptions()})
	if err != nil {
		t.Fatal(err)
	}
	res := resp.Results[0]
	if !res.Converged {
		t.Errorf("solve on round-tripped graph did not converge")
	}
}
