package decomp

import (
	"context"
	"errors"
	"strings"
	"testing"

	"hcd/internal/faultinject"
	"hcd/internal/workload"
)

func TestPipelineStagePanicBecomesError(t *testing.T) {
	ctx, tr := traced(context.Background())
	err := RunStage(ctx, "exploding", func(ctx context.Context) (StageInfo, error) {
		panic("stage blew up")
	})
	if err == nil {
		t.Fatal("panicking stage must surface as an error")
	}
	if !strings.Contains(err.Error(), "panic during stage") || !strings.Contains(err.Error(), "stage blew up") {
		t.Errorf("error %q does not describe the panic", err)
	}
	// The build itself survives: a later stage still runs.
	if err := RunStage(ctx, "ok", func(ctx context.Context) (StageInfo, error) {
		return StageInfo{Vertices: 1}, nil
	}); err != nil {
		t.Fatalf("stage after a panic: %v", err)
	}
	if st := stageSpans(tr); len(st) != 2 {
		t.Errorf("trace recorded %d stages, want 2", len(st))
	}
}

func TestPipelineStageFailInjection(t *testing.T) {
	restore := faultinject.Activate(map[string]faultinject.Spec{
		faultinject.StageFail: {OnHit: 2, Count: 1},
	})
	defer restore()
	ctx := context.Background()
	ok := func(ctx context.Context) (StageInfo, error) { return StageInfo{}, nil }
	if err := RunStage(ctx, "first", ok); err != nil {
		t.Fatalf("first stage: %v", err)
	}
	err := RunStage(ctx, "second", ok)
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("second stage: err = %v, want ErrInjected", err)
	}
	if !strings.Contains(err.Error(), "stage second") {
		t.Errorf("error %q does not name the failed stage", err)
	}
	if err := RunStage(ctx, "third", ok); err != nil {
		t.Fatalf("third stage (past the fault window): %v", err)
	}
}

func TestPerturbCorruptDegeneratesClustering(t *testing.T) {
	g := workload.Grid2D(16, 16, workload.UniformWeight(1, 1), 1)
	restore := faultinject.Activate(map[string]faultinject.Spec{
		faultinject.PerturbCorrupt: {OnHit: 1, Count: 0},
	})
	defer restore()
	d, err := FixedDegreeCtx(context.Background(), g, 4, 1)
	if err != nil {
		t.Fatalf("FixedDegreeCtx: %v", err)
	}
	// The corrupted scan selects no edges, so every vertex must come out a
	// singleton — the degenerate no-reduction shape downstream guards catch.
	if d.Count != g.N() {
		t.Fatalf("corrupted clustering produced %d clusters on %d vertices, want all singletons", d.Count, g.N())
	}
}

func TestFixedDegreeCleanAfterFaultWindow(t *testing.T) {
	g := workload.Grid2D(16, 16, workload.UniformWeight(1, 1), 1)
	restore := faultinject.Activate(map[string]faultinject.Spec{
		faultinject.PerturbCorrupt: {OnHit: 1, Count: 1},
	})
	defer restore()
	if d, err := FixedDegreeCtx(context.Background(), g, 4, 1); err != nil || d.Count != g.N() {
		t.Fatalf("first build inside fault window: count=%d err=%v", d.Count, err)
	}
	d, err := FixedDegreeCtx(context.Background(), g, 4, 1)
	if err != nil {
		t.Fatalf("second build: %v", err)
	}
	if d.Count >= g.N()/2 {
		t.Errorf("post-window build got no reduction: %d clusters on %d vertices", d.Count, g.N())
	}
	if err := d.Validate(); err != nil {
		t.Errorf("post-window decomposition invalid: %v", err)
	}
}
