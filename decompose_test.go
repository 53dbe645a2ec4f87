package hcd_test

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"hcd"
	"hcd/internal/decomp"
	"hcd/internal/obs"
	"hcd/internal/sparsify"
	"hcd/internal/spectralcut"
)

// Every decomposition method must be reachable through DecomposeCtx, and the
// staged pipeline must add nothing to what the method's one-shot internal
// constructor computes: identical assignments and identical method-specific
// extras.

func sameAssignment(t *testing.T, label string, want, got *hcd.Decomposition) {
	t.Helper()
	if want.Count != got.Count {
		t.Fatalf("%s: count %d != %d", label, got.Count, want.Count)
	}
	for v := range want.Assign {
		if want.Assign[v] != got.Assign[v] {
			t.Fatalf("%s: vertex %d assigned %d, want %d", label, v, got.Assign[v], want.Assign[v])
		}
	}
}

func TestDecomposeCtxMatchesTreeWrappers(t *testing.T) {
	g := hcd.RandomTree(500, hcd.LognormalWeights(1), 3)
	want, err := decomp.TreeCtx(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	res, err := hcd.DecomposeCtx(context.Background(), g, hcd.DecomposeOptions{Method: hcd.MethodTree})
	if err != nil {
		t.Fatal(err)
	}
	sameAssignment(t, "tree", want, res.D)
	if res.Report.Count != res.D.Count || res.Report.Phi <= 0 {
		t.Errorf("report %+v inconsistent with decomposition", res.Report)
	}
}

func TestDecomposeCtxMatchesFixedDegreeWrapper(t *testing.T) {
	g := hcd.Grid3D(8, 8, 8, hcd.LognormalWeights(1), 2)
	res, err := hcd.DecomposeCtx(context.Background(), g,
		hcd.DecomposeOptions{Method: hcd.MethodFixedDegree, SizeCap: 4, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	want, err := decomp.FixedDegreeCtx(context.Background(), g, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	sameAssignment(t, "fixed-degree", want, res.D)
	if res.Report != hcd.Evaluate(res.D) {
		t.Errorf("pipeline report %+v != Evaluate", res.Report)
	}
}

// sparsePipeline is the Theorem 2.2/2.3 construction in one go: sparsify,
// strip/cut/tree-decompose the subgraph, rebind the clustering to g.
func sparsePipeline(t *testing.T, g *hcd.Graph, sopt sparsify.Options) (*hcd.Decomposition, *sparsify.Result, decomp.SparseStats) {
	t.Helper()
	sres, err := sparsify.SparsifyCtx(context.Background(), g, sopt)
	if err != nil {
		t.Fatal(err)
	}
	forest, stats, err := decomp.CoreCutCtx(context.Background(), sres.B)
	if err != nil {
		t.Fatal(err)
	}
	td, err := decomp.TreeCtx(context.Background(), forest)
	if err != nil {
		t.Fatal(err)
	}
	d, err := decomp.Rebind(&decomp.Decomposition{G: sres.B, Assign: td.Assign, Count: td.Count}, g)
	if err != nil {
		t.Fatal(err)
	}
	return d, sres, stats
}

func TestDecomposeCtxMatchesPlanarWrapper(t *testing.T) {
	g := hcd.Grid2D(20, 20, hcd.LognormalWeights(1), 4)
	opt := hcd.DefaultDecomposeOptions(hcd.MethodPlanar)
	opt.Seed = 4
	res, err := hcd.DecomposeCtx(context.Background(), g, opt)
	if err != nil {
		t.Fatal(err)
	}
	want, sres, stats := sparsePipeline(t, g, sparsify.Options{Base: sparsify.MaxWeightTree, ExtraFraction: 0.25, Seed: 4})
	sameAssignment(t, "planar", want, res.D)
	if res.CoreSize != stats.CoreSize || res.CutEdges != stats.CutEdges {
		t.Errorf("core/cut (%d, %d) != one-shot (%d, %d)",
			res.CoreSize, res.CutEdges, stats.CoreSize, stats.CutEdges)
	}
	if res.AvgStretch != sres.AvgStretch {
		t.Errorf("avg stretch %v != %v", res.AvgStretch, sres.AvgStretch)
	}
	if res.B == nil || res.B.N() != g.N() || res.B.M() != sres.B.M() {
		t.Errorf("missing or mis-sized sparse subgraph B")
	}
}

func TestDecomposeCtxMatchesMinorFreeWrapper(t *testing.T) {
	g := hcd.Grid2D(16, 16, hcd.LognormalWeights(1), 6)
	opt := hcd.DefaultDecomposeOptions(hcd.MethodMinorFree)
	opt.Seed = 6
	res, err := hcd.DecomposeCtx(context.Background(), g, opt)
	if err != nil {
		t.Fatal(err)
	}
	want, sres, stats := sparsePipeline(t, g, sparsify.Options{Base: sparsify.LowStretchTree, ExtraFraction: 0.25, Seed: 6})
	sameAssignment(t, "minor-free", want, res.D)
	if res.CoreSize != stats.CoreSize || res.CutEdges != stats.CutEdges || res.AvgStretch != sres.AvgStretch {
		t.Errorf("extras (%d, %d, %v) != one-shot (%d, %d, %v)",
			res.CoreSize, res.CutEdges, res.AvgStretch,
			stats.CoreSize, stats.CutEdges, sres.AvgStretch)
	}
}

func TestDecomposeCtxMatchesSpectralWrapper(t *testing.T) {
	g := hcd.Grid2D(12, 12, hcd.LognormalWeights(1), 8)
	opt := hcd.DefaultDecomposeOptions(hcd.MethodSpectral)
	res, err := hcd.DecomposeCtx(context.Background(), g, opt)
	if err != nil {
		t.Fatal(err)
	}
	want, stats, err := spectralcut.DecomposeCtx(context.Background(), g, hcd.DefaultSpectralCutOptions())
	if err != nil {
		t.Fatal(err)
	}
	sameAssignment(t, "spectral", want, res.D)
	if res.SpectralStats != stats {
		t.Errorf("stats %+v != one-shot %+v", res.SpectralStats, stats)
	}
}

// TestDecomposeCtxBuildMetrics checks every method records its build as the
// stage set its pipeline defines: one build/<stage> span per stage, in order,
// with a positive duration and the stage output's vertices and edges, and,
// with a registry in the context, one hcd_build_stage_runs_total sample per
// stage plus one hcd_build_total.
func TestDecomposeCtxBuildMetrics(t *testing.T) {
	tree := hcd.RandomTree(400, hcd.LognormalWeights(1), 1)
	grid := hcd.Grid2D(16, 16, hcd.LognormalWeights(1), 1)
	cases := []struct {
		method hcd.DecomposeMethod
		g      *hcd.Graph
		stages []string
	}{
		{hcd.MethodTree, tree, []string{"tree-decompose", "evaluate"}},
		{hcd.MethodFixedDegree, grid, []string{"cluster", "evaluate"}},
		{hcd.MethodPlanar, grid, []string{"base-tree", "sparsify", "strip-cut-core", "tree-decompose", "rebind", "evaluate"}},
		{hcd.MethodMinorFree, grid, []string{"base-tree", "sparsify", "strip-cut-core", "tree-decompose", "rebind", "evaluate"}},
		{hcd.MethodSpectral, grid, []string{"spectral-cut", "evaluate"}},
	}
	for _, tc := range cases {
		tr, reg := hcd.NewTracer(), hcd.NewMetricRegistry()
		ctx := hcd.WithMetricRegistry(hcd.WithTracer(context.Background(), tr), reg)
		res, err := hcd.DecomposeCtx(ctx, tc.g, hcd.DefaultDecomposeOptions(tc.method))
		if err != nil {
			t.Fatalf("%v: %v", tc.method, err)
		}
		var stages []obs.SpanInfo
		for _, sp := range tr.Spans() {
			if strings.HasPrefix(sp.Name, "build/") {
				stages = append(stages, sp)
			}
		}
		if len(stages) != len(tc.stages) {
			t.Fatalf("%v: stage spans %+v, want %v", tc.method, stages, tc.stages)
		}
		snap := reg.Snapshot()
		for i, name := range tc.stages {
			s := stages[i]
			if s.Name != "build/"+name {
				t.Errorf("%v: stage %d is %q, want build/%s", tc.method, i, s.Name, name)
			}
			if s.Duration <= 0 {
				t.Errorf("%v: stage %q has non-positive duration %v", tc.method, s.Name, s.Duration)
			}
			args := map[string]any{}
			for _, a := range s.Args {
				args[a.Key] = a.Value
			}
			if args["vertices"] != tc.g.N() {
				t.Errorf("%v: stage %q vertices arg %v, want %d", tc.method, s.Name, args["vertices"], tc.g.N())
			}
			if e, ok := args["edges"].(int); !ok || e <= 0 {
				t.Errorf("%v: stage %q edges arg %v", tc.method, s.Name, args["edges"])
			}
			if runs := snap[`hcd_build_stage_runs_total{stage="`+name+`"}`]; runs != 1 {
				t.Errorf("%v: stage %q published %v runs, want 1", tc.method, name, runs)
			}
		}
		if snap["hcd_build_total"] != 1 || snap["hcd_build_ns_total"] <= 0 {
			t.Errorf("%v: hcd_build_total %v, hcd_build_ns_total %v", tc.method, snap["hcd_build_total"], snap["hcd_build_ns_total"])
		}
		if c := res.Report.Cert; c.Cores == 0 && c.Bounds == 0 {
			t.Errorf("%v: evaluate stage certified nothing: %+v", tc.method, c)
		}
		if res.D == nil || res.D.Count == 0 {
			t.Errorf("%v: empty decomposition", tc.method)
		}
	}
}

func TestDecomposeCtxSkipReport(t *testing.T) {
	g := hcd.Grid2D(10, 10, hcd.LognormalWeights(1), 1)
	opt := hcd.DefaultDecomposeOptions(hcd.MethodFixedDegree)
	opt.SkipReport = true
	tr := hcd.NewTracer()
	res, err := hcd.DecomposeCtx(hcd.WithTracer(context.Background(), tr), g, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report != (hcd.Report{}) {
		t.Errorf("SkipReport left a report: %+v", res.Report)
	}
	for _, s := range tr.Spans() {
		if s.Name == "build/evaluate" {
			t.Error("SkipReport still ran the evaluate stage")
		}
	}
}

func TestDecomposeCtxPreCancelled(t *testing.T) {
	g := hcd.Grid2D(10, 10, hcd.LognormalWeights(1), 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, m := range []hcd.DecomposeMethod{
		hcd.MethodTree, hcd.MethodPlanar, hcd.MethodMinorFree,
		hcd.MethodFixedDegree, hcd.MethodSpectral,
	} {
		_, err := hcd.DecomposeCtx(ctx, g, hcd.DefaultDecomposeOptions(m))
		if !errors.Is(err, hcd.ErrBuildCancelled) || !errors.Is(err, context.Canceled) {
			t.Errorf("%v: error %v does not wrap both sentinels", m, err)
		}
	}
}

// TestDecomposeCtxMidBuildCancellation cancels a large fixed-degree build
// shortly after it starts and requires a prompt return carrying both
// sentinels — the end-to-end promptness contract of the build path.
func TestDecomposeCtxMidBuildCancellation(t *testing.T) {
	g := hcd.Grid3D(24, 24, 24, hcd.LognormalWeights(1), 1)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := hcd.DecomposeCtx(ctx, g, hcd.DefaultDecomposeOptions(hcd.MethodFixedDegree))
	elapsed := time.Since(start)
	if err == nil {
		t.Skip("build finished before the cancel landed")
	}
	if !errors.Is(err, hcd.ErrBuildCancelled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap both sentinels", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("cancelled build took %v to return", elapsed)
	}
}

func TestDecomposeCtxUnknownMethod(t *testing.T) {
	g := hcd.Grid2D(4, 4, nil, 1)
	if _, err := hcd.DecomposeCtx(context.Background(), g, hcd.DecomposeOptions{Method: hcd.DecomposeMethod(42)}); err == nil {
		t.Fatal("unknown method accepted")
	}
}

func TestDecomposeMethodString(t *testing.T) {
	names := map[hcd.DecomposeMethod]string{
		hcd.MethodTree:        "tree",
		hcd.MethodPlanar:      "planar",
		hcd.MethodMinorFree:   "minor-free",
		hcd.MethodFixedDegree: "fixed-degree",
		hcd.MethodSpectral:    "spectral",
	}
	for m, want := range names {
		if got := m.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(m), got, want)
		}
	}
	if hcd.DecomposeMethod(42).String() == "" {
		t.Error("unknown method stringer empty")
	}
}

func TestNewHierarchyCtxCancellation(t *testing.T) {
	// Larger than the default hierarchy DirectLimit, so its level loop (and
	// the cancellation check inside it) actually runs.
	big := hcd.Grid3D(10, 10, 10, hcd.LognormalWeights(1), 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := hcd.NewHierarchyCtx(ctx, big, hcd.DefaultHierarchyOptions()); !errors.Is(err, hcd.ErrBuildCancelled) {
		t.Errorf("NewHierarchyCtx error %v does not wrap ErrBuildCancelled", err)
	}
}
