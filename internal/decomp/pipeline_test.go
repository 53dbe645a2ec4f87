package decomp

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"hcd/internal/obs"
	"hcd/internal/workload"
)

// traced returns ctx recording spans into a fresh tracer.
func traced(ctx context.Context) (context.Context, *obs.Tracer) {
	tr := obs.NewTracer()
	return obs.WithTracer(ctx, tr), tr
}

// stageSpans returns the build/<stage> spans tr recorded, in start order.
func stageSpans(tr *obs.Tracer) []obs.SpanInfo {
	var out []obs.SpanInfo
	for _, sp := range tr.Spans() {
		if strings.HasPrefix(sp.Name, "build/") {
			out = append(out, sp)
		}
	}
	return out
}

// spanArg returns the value of a span's key arg, nil if absent.
func spanArg(sp obs.SpanInfo, key string) any {
	for _, a := range sp.Args {
		if a.Key == key {
			return a.Value
		}
	}
	return nil
}

func TestPipelineRecordsStageMetrics(t *testing.T) {
	ctx, tr := traced(context.Background())
	reg := obs.NewRegistry()
	ctx = obs.WithRegistry(ctx, reg)
	if err := RunStage(ctx, "alpha", func(context.Context) (StageInfo, error) {
		time.Sleep(time.Millisecond)
		return StageInfo{Vertices: 10, Edges: 9}, nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := RunStage(ctx, "beta", func(context.Context) (StageInfo, error) {
		return StageInfo{Vertices: 5, Edges: 4}, nil
	}); err != nil {
		t.Fatal(err)
	}
	st := stageSpans(tr)
	if len(st) != 2 || st[0].Name != "build/alpha" || st[1].Name != "build/beta" {
		t.Fatalf("stage spans = %+v", st)
	}
	if st[0].Duration <= 0 || st[1].Duration <= 0 {
		t.Errorf("non-positive stage durations: %v, %v", st[0].Duration, st[1].Duration)
	}
	if v, e := spanArg(st[0], "vertices"), spanArg(st[0], "edges"); v != 10 || e != 9 {
		t.Errorf("stage alpha args vertices=%v edges=%v", v, e)
	}
	snap := reg.Snapshot()
	if runs, ns := snap[`hcd_build_stage_runs_total{stage="alpha"}`], snap[`hcd_build_stage_ns_total{stage="alpha"}`]; runs != 1 || ns < float64(time.Millisecond) {
		t.Errorf("alpha published %v runs over %v ns", runs, ns)
	}
}

func TestPipelineSkipsStageWhenAlreadyCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ctx, tr := traced(ctx)
	ran := false
	err := RunStage(ctx, "never", func(context.Context) (StageInfo, error) {
		ran = true
		return StageInfo{}, nil
	})
	if ran {
		t.Fatal("stage function ran under a cancelled context")
	}
	if !errors.Is(err, ErrBuildCancelled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap both sentinels", err)
	}
	if st := stageSpans(tr); len(st) != 0 {
		t.Errorf("skipped stage recorded spans: %+v", st)
	}
}

func TestPipelinePromotesCancellationErrors(t *testing.T) {
	// Leaf packages (mst, lowstretch, sparsify) wrap only ctx.Err(); RunStage
	// must promote such errors to carry ErrBuildCancelled.
	ctx, tr := traced(context.Background())
	leaf := fmt.Errorf("mst: cancelled: %w", context.Canceled)
	err := RunStage(ctx, "leafy", func(context.Context) (StageInfo, error) {
		return StageInfo{}, leaf
	})
	if !errors.Is(err, ErrBuildCancelled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap both sentinels", err)
	}
	if st := stageSpans(tr); len(st) != 1 || spanArg(st[0], "error") == nil {
		t.Fatalf("failed stage not recorded with its error: %+v", st)
	}
}

func TestPipelineKeepsPlainErrorsUnpromoted(t *testing.T) {
	boom := errors.New("boom")
	err := RunStage(context.Background(), "failing", func(context.Context) (StageInfo, error) {
		return StageInfo{}, boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("error %v lost the cause", err)
	}
	if errors.Is(err, ErrBuildCancelled) {
		t.Fatalf("plain failure %v promoted to cancellation", err)
	}
	if !strings.Contains(err.Error(), "failing") {
		t.Errorf("error %v does not name the stage", err)
	}
}

func TestPipelineCancellationPromptness(t *testing.T) {
	// A synthetic slow stage that would spin ~forever, polling at the bounded
	// interval; a mid-build cancel must stop it promptly.
	ctx, cancel := context.WithCancel(context.Background())
	ctx, tr := traced(ctx)
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	err := RunStage(ctx, "slow", func(ctx context.Context) (StageInfo, error) {
		for i := 0; ; i++ {
			if err := poll(ctx, i); err != nil {
				return StageInfo{}, err
			}
		}
	})
	elapsed := time.Since(start)
	if !errors.Is(err, ErrBuildCancelled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap both sentinels", err)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("cancellation took %v, want prompt return", elapsed)
	}
	// The aborted stage still reports where the time went.
	if st := stageSpans(tr); len(st) != 1 || st[0].Name != "build/slow" || st[0].Duration <= 0 {
		t.Errorf("cancelled stage span missing or zero: %+v", st)
	}
}

func TestBuildersReturnCancelledSentinel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	tree := workload.Caterpillar(30, 3, nil, 1)
	grid := workload.Grid2D(12, 12, nil, 1)
	if _, err := TreeCtx(ctx, tree); !errors.Is(err, ErrBuildCancelled) || !errors.Is(err, context.Canceled) {
		t.Errorf("TreeCtx error %v does not wrap both sentinels", err)
	}
	if _, err := FixedDegreeCtx(ctx, grid, 4, 1); !errors.Is(err, ErrBuildCancelled) {
		t.Errorf("FixedDegreeCtx error %v does not wrap ErrBuildCancelled", err)
	}
}

func TestCtxVariantsMatchPlainBuilders(t *testing.T) {
	ctx := context.Background()
	tree := workload.Caterpillar(40, 2, workload.Lognormal(1), 7)
	grid := workload.Grid2D(15, 15, workload.Lognormal(1), 7)

	want, err := TreeCtx(context.Background(), tree)
	if err != nil {
		t.Fatal(err)
	}
	got, err := TreeCtx(ctx, tree)
	if err != nil {
		t.Fatal(err)
	}
	assertSameDecomposition(t, "TreeCtx", want, got)

	want, err = FixedDegreeCtx(context.Background(), grid, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	got, err = FixedDegreeCtx(ctx, grid, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	assertSameDecomposition(t, "FixedDegreeCtx", want, got)
}

func assertSameDecomposition(t *testing.T, label string, want, got *Decomposition) {
	t.Helper()
	if got.Count != want.Count {
		t.Fatalf("%s: count %d != %d", label, got.Count, want.Count)
	}
	for v := range want.Assign {
		if got.Assign[v] != want.Assign[v] {
			t.Fatalf("%s: vertex %d assigned %d, want %d", label, v, got.Assign[v], want.Assign[v])
		}
	}
}
