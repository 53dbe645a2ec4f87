package hierarchy

import (
	"context"
	"errors"
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

// TestMaxLevelsExhaustedRejected: a depth cap that stops the recursion while
// the graph is still far above DirectLimit is rejected before anything is
// factored; within 4× of DirectLimit the capped build is accepted, as a
// no-reduction level is. The cap is the build's own, 40 for every caller;
// the test lowers it to reach both sides on a small graph.
func TestMaxLevelsExhaustedRejected(t *testing.T) {
	g := workload.Grid3D(24, 24, 24, workload.Lognormal(1), 1)
	opt := DefaultOptions()
	tr := obs.NewTracer()
	_, err := build(obs.WithTracer(context.Background(), tr), g, nil, opt, 1)
	if !errors.Is(err, graph.ErrInvalidInput) {
		t.Fatalf("depth cap 1: error %v, want one wrapping ErrInvalidInput", err)
	}
	for _, part := range []string{"depth cap 1", "level 1", "4166 vertices", "direct limit 600"} {
		if !strings.Contains(err.Error(), part) {
			t.Errorf("error %q does not name %q", err, part)
		}
	}
	for _, s := range tr.Spans() {
		if s.Name == "hierarchy/coarse-factor" {
			t.Error("the rejected build reached the coarse factorization")
		}
	}

	h, err := build(context.Background(), g, nil, opt, 2) // stops at 1183 ≤ 4·600
	if err != nil {
		t.Fatalf("depth cap 2: %v", err)
	}
	if h.Depth() != 2 || h.CoarseSize() != 1183 {
		t.Errorf("depth cap 2: depth %d, coarse size %d; want 2 and 1183", h.Depth(), h.CoarseSize())
	}
}
