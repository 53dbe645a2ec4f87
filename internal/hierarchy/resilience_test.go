package hierarchy

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"hcd/internal/faultinject"
	"hcd/internal/graph"
	"hcd/internal/obs"
	"hcd/internal/workload"
)

func TestNewCtxRejectsNoReductionBuild(t *testing.T) {
	g := workload.Grid2D(40, 40, workload.UniformWeight(1, 1), 1)
	restore := faultinject.Activate(map[string]faultinject.Spec{
		faultinject.PerturbCorrupt: {OnHit: 1, Count: 0},
	})
	defer restore()
	opt := DefaultOptions()
	opt.DirectLimit = 8 // 1600 vertices >> 4·8, so the guard must fire
	_, err := NewCtx(context.Background(), g, opt)
	if err == nil {
		t.Fatal("degenerate clustering must fail the build, not reach the coarse factorization")
	}
	if !strings.Contains(err.Error(), "no reduction") {
		t.Errorf("error %q does not explain the degenerate build", err)
	}
}

func TestNewCtxToleratesNoReductionNearDirectLimit(t *testing.T) {
	// On a graph already within 4× the direct limit, a no-reduction level is
	// acceptable: the coarse solve is still cheap.
	g := workload.Grid2D(8, 8, workload.UniformWeight(1, 1), 1)
	restore := faultinject.Activate(map[string]faultinject.Spec{
		faultinject.PerturbCorrupt: {OnHit: 1, Count: 0},
	})
	defer restore()
	opt := DefaultOptions()
	opt.DirectLimit = 32
	h, err := NewCtx(context.Background(), g, opt)
	if err != nil {
		t.Fatalf("NewCtx: %v", err)
	}
	if h.CoarseSize() != g.N() {
		t.Errorf("coarse size %d, want the unreduced %d", h.CoarseSize(), g.N())
	}
}

// TestMaxLevelsZeroMeansDefault: Options built by hand — the public
// HierarchyOptions alias with MaxLevels left unset — recurse like
// DefaultOptions instead of handing the whole graph to the coarse
// factorization.
func TestMaxLevelsZeroMeansDefault(t *testing.T) {
	g := workload.Grid3D(24, 24, 24, workload.Lognormal(1), 1)
	want, err := New(g, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if sizes := want.LevelSizes(); !slices.Equal(sizes, []int{13824, 4166, 1183, 324}) {
		t.Fatalf("default hierarchy sizes %v, want [13824 4166 1183 324]", sizes)
	}
	for _, maxLevels := range []int{0, -3} {
		opt := DefaultOptions()
		opt.MaxLevels = maxLevels
		got, err := New(g, opt)
		if err != nil {
			t.Fatalf("MaxLevels=%d: %v", maxLevels, err)
		}
		if !slices.Equal(got.LevelSizes(), want.LevelSizes()) {
			t.Fatalf("MaxLevels=%d: sizes %v, default %v", maxLevels, got.LevelSizes(), want.LevelSizes())
		}
		r := meanFree(rand.New(rand.NewSource(1)), g.N())
		x, y := make([]float64, g.N()), make([]float64, g.N())
		got.Apply(x, r)
		want.Apply(y, r)
		if i := firstDiff(x, y); i >= 0 {
			t.Errorf("MaxLevels=%d: Apply[%d] = %v, default %v", maxLevels, i, x[i], y[i])
		}
	}
}

// TestMaxLevelsExhaustedRejected: a depth cap that stops the recursion while
// the graph is still far above DirectLimit is an invalid option, reported
// before anything is factored; within 4× of DirectLimit the capped build is
// accepted, as a no-reduction level is.
func TestMaxLevelsExhaustedRejected(t *testing.T) {
	g := workload.Grid3D(24, 24, 24, workload.Lognormal(1), 1)
	opt := DefaultOptions()
	opt.MaxLevels = 1
	tr := obs.NewTracer()
	_, err := NewCtx(obs.WithTracer(context.Background(), tr), g, opt)
	if !errors.Is(err, graph.ErrInvalidInput) {
		t.Fatalf("MaxLevels=1: error %v, want one wrapping ErrInvalidInput", err)
	}
	for _, part := range []string{"MaxLevels 1", "level 1", "4166 vertices", "direct limit 600"} {
		if !strings.Contains(err.Error(), part) {
			t.Errorf("error %q does not name %q", err, part)
		}
	}
	for _, s := range tr.Spans() {
		if s.Name == "hierarchy/coarse-factor" {
			t.Error("the rejected build reached the coarse factorization")
		}
	}

	opt.MaxLevels = 2 // stops at 1183 ≤ 4·600
	h, err := New(g, opt)
	if err != nil {
		t.Fatalf("MaxLevels=2: %v", err)
	}
	if h.Depth() != 2 || h.CoarseSize() != 1183 {
		t.Errorf("MaxLevels=2: depth %d, coarse size %d; want 2 and 1183", h.Depth(), h.CoarseSize())
	}
}
