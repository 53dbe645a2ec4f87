package hcd_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"hcd"
)

// TestFigure6Golden pins Figure 6 under the benchmark probe's protocol: OCT3D
// 20³ at seed 1, the Section 3.1 clustering at size cap 4, a subgraph
// preconditioner matched to its reduction factor, and PCG to 1e-6 from one
// seeded mean-free right-hand side. Steiner takes 28 iterations, the subgraph
// 60, at reductions 4.84 and 4.83.
func TestFigure6Golden(t *testing.T) {
	const side, seed = 20, 1
	opt := hcd.DefaultOCTOptions()
	opt.Seed = seed
	g := hcd.OCT3D(side, side, side, opt)
	b := meanFree(rand.New(rand.NewSource(seed+7)), g.N())
	d := fixedDegree(t, g, 4, seed)
	steiner, err := hcd.NewSteinerPreconditioner(d)
	if err != nil {
		t.Fatal(err)
	}
	reduction := float64(g.N()) / float64(d.Count)
	sub, err := hcd.NewSubgraphPreconditionerMatched(g, reduction, seed)
	if err != nil {
		t.Fatal(err)
	}
	so := hcd.DefaultSolveOptions()
	so.Tol = 1e-6
	ctx := context.Background()
	sres, err := hcd.SolvePCGCtx(ctx, g, b, steiner, so)
	if err != nil {
		t.Fatal(err)
	}
	gres, err := hcd.SolvePCGCtx(ctx, g, b, sub.P, so)
	if err != nil {
		t.Fatal(err)
	}
	got := fmt.Sprintf("steiner %d (converged %v) at reduction %.2f, subgraph %d (converged %v) at reduction %.2f",
		sres.Iterations, sres.Converged, reduction, gres.Iterations, gres.Converged, float64(g.N())/float64(sub.CoreSize))
	if want := "steiner 28 (converged true) at reduction 4.84, subgraph 60 (converged true) at reduction 4.83"; got != want {
		t.Errorf("Figure 6:\n got %s\nwant %s", got, want)
	}
}

// TestSteinerRejectsMalformedDecomposition: a decomposition that does not
// match its graph is an input error, never a panic; every vertex in a cluster
// of its own is a valid decomposition.
func TestSteinerRejectsMalformedDecomposition(t *testing.T) {
	g := hcd.Grid2D(3, 3, nil, 1)
	for _, tc := range []struct {
		name string
		d    *hcd.Decomposition
	}{
		{"cluster id ≥ Count", &hcd.Decomposition{G: g, Assign: []int{0, 0, 1, 1, 7, 1, 0, 0, 1}, Count: 2}},
		{"negative cluster id", &hcd.Decomposition{G: g, Assign: []int{0, 0, 1, 1, -1, 1, 0, 0, 1}, Count: 2}},
		{"short assignment", &hcd.Decomposition{G: g, Assign: []int{0, 0, 1, 1}, Count: 2}},
		{"Count above N", &hcd.Decomposition{G: g, Assign: make([]int, 9), Count: 10}},
		{"no graph", &hcd.Decomposition{Assign: make([]int, 9), Count: 1}},
	} {
		if _, err := hcd.NewSteinerPreconditioner(tc.d); !errors.Is(err, hcd.ErrInvalidInput) {
			t.Errorf("%s: error %v, want one wrapping ErrInvalidInput", tc.name, err)
		}
	}
	// 12 000 isolated vertices: a quotient above the direct limit that no
	// clustering can reduce, and that has nothing to factor.
	edgeless, err := hcd.NewGraph(12000, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range []*hcd.Graph{g, edgeless} {
		ids := make([]int, h.N())
		for v := range ids {
			ids[v] = v
		}
		p, err := hcd.NewSteinerPreconditioner(&hcd.Decomposition{G: h, Assign: ids, Count: h.N()})
		if err != nil {
			t.Fatalf("singletons on %d vertices: %v", h.N(), err)
		}
		r := meanFree(rand.New(rand.NewSource(5)), h.N())
		x := make([]float64, h.N())
		p.Apply(x, r)
		for v, xv := range x {
			if math.IsNaN(xv) || math.IsInf(xv, 0) {
				t.Fatalf("singletons on %d vertices: x[%d] = %v", h.N(), v, xv)
			}
		}
	}
}

// blockCounter records how a solve applies a hierarchy: the width of every
// ApplyBlock call, and how many times it fell back to Apply. It forwards Dim,
// Apply and ApplyBlock by hand: embedding the hierarchy would hand the counter
// its solve space too, and the solver would run on the layout view's
// preconditioner, around the counter.
type blockCounter struct {
	h       *hcd.Hierarchy
	widths  []int
	applies int
}

func (c *blockCounter) Dim() int { return c.h.Dim() }

func (c *blockCounter) Apply(dst, r []float64) {
	c.applies++
	c.h.Apply(dst, r)
}

func (c *blockCounter) ApplyBlock(dst, r []float64, k int) {
	c.widths = append(c.widths, k)
	c.h.ApplyBlock(dst, r, k)
}

// TestDoSteinerBlock: a 4-column Do with the Steiner kind is one block solve
// through the hierarchy's ApplyBlock, and each column is its own
// single-column solve, bit for bit.
func TestDoSteinerBlock(t *testing.T) {
	g := hcd.OCT3D(10, 10, 10, hcd.DefaultOCTOptions())
	rng := rand.New(rand.NewSource(17))
	B := make([][]float64, 4)
	for j := range B {
		B[j] = meanFree(rng, g.N())
	}
	ctx := context.Background()
	spec := hcd.PrecondSpec{Kind: hcd.PrecondSteiner}
	block, err := hcd.Do(ctx, g, hcd.SolveRequest{B: B, Precond: spec})
	if err != nil {
		t.Fatal(err)
	}
	for j, b := range B {
		single, err := hcd.Do(ctx, g, hcd.SolveRequest{B: [][]float64{b}, Precond: spec})
		if err != nil {
			t.Fatal(err)
		}
		x, y := block.Results[j], single.Results[0]
		if !x.Converged || !y.Converged {
			t.Fatalf("column %d: converged block=%v single=%v", j, x.Converged, y.Converged)
		}
		if d := sameSolve(x, y); d != "" {
			t.Fatalf("column %d: %s", j, d)
		}
	}

	p, err := hcd.NewPreconditioner(ctx, g, spec)
	if err != nil {
		t.Fatal(err)
	}
	h, ok := p.(*hcd.Hierarchy)
	if !ok {
		t.Fatalf("the steiner kind builds a %T, want a *hcd.Hierarchy", p)
	}
	c := &blockCounter{h: h}
	if _, err := hcd.Do(ctx, g, hcd.SolveRequest{B: B, M: c}); err != nil {
		t.Fatal(err)
	}
	if c.applies != 0 || len(c.widths) == 0 || c.widths[0] != 4 {
		t.Fatalf("%d Apply calls, ApplyBlock widths %v: want every apply through ApplyBlock, the first at k = 4", c.applies, c.widths)
	}
}
