package hierarchy

import (
	"context"
	"strings"
	"testing"

	"hcd/internal/faultinject"
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
