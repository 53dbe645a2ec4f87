package decomp

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"hcd/internal/workload"
)

func TestPipelineRecordsStageMetrics(t *testing.T) {
	p := NewPipeline(context.Background())
	if err := p.Run("alpha", func(context.Context) (StageInfo, error) {
		time.Sleep(time.Millisecond)
		return StageInfo{Vertices: 10, Edges: 9}, nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := p.Run("beta", func(context.Context) (StageInfo, error) {
		return StageInfo{Vertices: 5, Edges: 4}, nil
	}); err != nil {
		t.Fatal(err)
	}
	m := p.Metrics
	if len(m.Stages) != 2 || m.Stages[0].Name != "alpha" || m.Stages[1].Name != "beta" {
		t.Fatalf("stages = %+v", m.Stages)
	}
	if m.Stages[0].Duration <= 0 || m.Stages[1].Duration <= 0 {
		t.Errorf("non-positive stage durations: %v, %v", m.Stages[0].Duration, m.Stages[1].Duration)
	}
	if m.TotalTime < m.Stages[0].Duration {
		t.Errorf("total %v below first stage %v", m.TotalTime, m.Stages[0].Duration)
	}
	if s := m.Stages[0]; s.Vertices != 10 || s.Edges != 9 {
		t.Errorf("stage alpha = %+v", s)
	}
	str := m.String()
	for _, want := range []string{"alpha=", "beta=", "v=10", "e=9", "total="} {
		if !strings.Contains(str, want) {
			t.Errorf("String() = %q missing %q", str, want)
		}
	}
}

func TestPipelineSkipsStageWhenAlreadyCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := NewPipeline(ctx)
	ran := false
	err := p.Run("never", func(context.Context) (StageInfo, error) {
		ran = true
		return StageInfo{}, nil
	})
	if ran {
		t.Fatal("stage function ran under a cancelled context")
	}
	if !errors.Is(err, ErrBuildCancelled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap both sentinels", err)
	}
	if len(p.Metrics.Stages) != 0 {
		t.Errorf("skipped stage recorded metrics: %+v", p.Metrics.Stages)
	}
}

func TestPipelinePromotesCancellationErrors(t *testing.T) {
	// Leaf packages (mst, lowstretch, sparsify) wrap only ctx.Err(); Run must
	// promote such errors to carry ErrBuildCancelled.
	p := NewPipeline(context.Background())
	leaf := fmt.Errorf("mst: cancelled: %w", context.Canceled)
	err := p.Run("leafy", func(context.Context) (StageInfo, error) {
		return StageInfo{}, leaf
	})
	if !errors.Is(err, ErrBuildCancelled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap both sentinels", err)
	}
	if len(p.Metrics.Stages) != 1 {
		t.Fatalf("failed stage not recorded: %+v", p.Metrics.Stages)
	}
}

func TestPipelineKeepsPlainErrorsUnpromoted(t *testing.T) {
	p := NewPipeline(context.Background())
	boom := errors.New("boom")
	err := p.Run("failing", func(context.Context) (StageInfo, error) {
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
	p := NewPipeline(ctx)
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	err := p.Run("slow", func(ctx context.Context) (StageInfo, error) {
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
	if st := p.Metrics.Stages; len(st) != 1 || st[0].Name != "slow" || st[0].Duration <= 0 {
		t.Errorf("cancelled stage metrics missing or zero: %+v", st)
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
