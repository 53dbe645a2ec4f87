package hcd_test

// Tests for Do's resilient method: the fallback ladder, the attempt trail, and
// deterministic fault-injected recovery.

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"hcd"
	"hcd/internal/cli"
	"hcd/internal/faultinject"
)

func TestSolveResilientCleanPath(t *testing.T) {
	g := hcd.Grid2D(12, 12, nil, 1)
	b := meanFree(rand.New(rand.NewSource(41)), g.N())
	resp, err := hcd.Do(context.Background(), g, hcd.SolveRequest{B: [][]float64{b}, Method: hcd.SolveMethodResilient, Options: hcd.DefaultSolveOptions()})
	res, rep := resp.Results[0], resp.Resilience[0]
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if !res.Converged {
		t.Fatalf("outcome %v", res.Outcome)
	}
	if rep.Recovered {
		t.Error("clean solve must not report Recovered")
	}
	if rep.Rung != hcd.RungHierarchyPCG || len(rep.Attempts) != 1 {
		t.Errorf("clean solve: rung %q, %d attempts; want %q, 1", rep.Rung, len(rep.Attempts), hcd.RungHierarchyPCG)
	}
}

func TestSolveResilientRecoversFromInjectedNaN(t *testing.T) {
	g := hcd.Grid2D(12, 12, nil, 1)
	b := meanFree(rand.New(rand.NewSource(42)), g.N())
	// One NaN strike kills rung 1's attempt. The window then closes, so the
	// Jacobi-PCG rung runs clean.
	restore := faultinject.Activate(map[string]faultinject.Spec{
		faultinject.MatvecNaN: {OnHit: 1, Count: 1},
	})
	defer restore()
	resp, err := hcd.Do(context.Background(), g, hcd.SolveRequest{B: [][]float64{b}, Method: hcd.SolveMethodResilient, Options: hcd.DefaultSolveOptions()})
	res, rep := resp.Results[0], resp.Resilience[0]
	if err != nil {
		t.Fatalf("Do: %v\nreport: %s", err, rep)
	}
	if !res.Converged {
		t.Fatalf("outcome %v, report: %s", res.Outcome, rep)
	}
	if !rep.Recovered {
		t.Error("recovery via a later rung must set Recovered")
	}
	if rep.Rung != hcd.RungJacobiPCG {
		t.Errorf("recovered on rung %q, want %q", rep.Rung, hcd.RungJacobiPCG)
	}
	if len(rep.Attempts) != 2 {
		t.Fatalf("%d attempts, want 2 (failed hierarchy-pcg, converged jacobi-pcg): %s", len(rep.Attempts), rep)
	}
	first := rep.Attempts[0]
	if first.Rung != hcd.RungHierarchyPCG || first.Outcome != hcd.OutcomeBreakdown {
		t.Errorf("attempt 1 = %+v, want a hierarchy-pcg breakdown", first)
	}
	if first.Err == "" || !strings.Contains(first.Err, "NaN") && !strings.Contains(first.Err, "non-finite") {
		t.Errorf("attempt 1 Err %q does not explain the NaN breakdown", first.Err)
	}
}

func TestSolveResilientRecoversFromCorruptedBuild(t *testing.T) {
	// 2 500 vertices: above four times the default DirectLimit (600), so
	// level 0 arms the no-reduction guard.
	g := hcd.Grid2D(50, 50, nil, 1)
	b := meanFree(rand.New(rand.NewSource(43)), g.N())
	// Corrupt the first hierarchy build's clustering scan; the degenerate
	// all-singleton level trips the no-reduction guard, and Jacobi-PCG
	// solves without a hierarchy.
	restore := faultinject.Activate(map[string]faultinject.Spec{
		faultinject.PerturbCorrupt: {OnHit: 1, Count: 1},
	})
	defer restore()
	resp, err := hcd.Do(context.Background(), g, hcd.SolveRequest{B: [][]float64{b}, Method: hcd.SolveMethodResilient, Options: hcd.DefaultSolveOptions()})
	res, rep := resp.Results[0], resp.Resilience[0]
	if err != nil {
		t.Fatalf("Do: %v\nreport: %s", err, rep)
	}
	if !res.Converged || !rep.Recovered || rep.Rung != hcd.RungJacobiPCG || len(rep.Attempts) != 2 {
		t.Fatalf("converged=%v recovered=%v rung=%q, report: %s", res.Converged, rep.Recovered, rep.Rung, rep)
	}
	if first := rep.Attempts[0]; !strings.Contains(first.Err, "no reduction") {
		t.Errorf("attempt 1 Err %q does not carry the build failure", first.Err)
	}
}

// TestSolveResilientRecoversOCTOnJacobiPCG: with every hierarchy build
// corrupted, the ladder's last rung solves a weighted OCT volume on its own,
// within one sweep's worth of iterations per vertex. Its weights span six
// orders of magnitude, so the diagonal scaling is what makes it cheap:
// unpreconditioned CG runs out of its 10·n + 50 budget on the same system.
func TestSolveResilientRecoversOCTOnJacobiPCG(t *testing.T) {
	// 2 744 vertices > 4·600, the default DirectLimit: the no-reduction
	// guard is armed.
	g := hcd.OCT3D(14, 14, 14, hcd.DefaultOCTOptions())
	b := meanFree(rand.New(rand.NewSource(45)), g.N())
	restore := faultinject.Activate(map[string]faultinject.Spec{
		faultinject.PerturbCorrupt: {OnHit: 1, Count: 0},
	})
	defer restore()
	resp, err := hcd.Do(context.Background(), g, hcd.SolveRequest{B: [][]float64{b}, Method: hcd.SolveMethodResilient, Options: hcd.DefaultSolveOptions()})
	res, rep := resp.Results[0], resp.Resilience[0]
	if err != nil {
		t.Fatalf("Do: %v\nreport: %s", err, rep)
	}
	if !res.Converged || !rep.Recovered || rep.Rung != hcd.RungJacobiPCG {
		t.Fatalf("converged=%v recovered=%v rung=%q, report: %s", res.Converged, rep.Recovered, rep.Rung, rep)
	}
	iterations := 0
	for _, a := range rep.Attempts {
		iterations += a.Iterations
	}
	if iterations >= g.N() {
		t.Errorf("%d iterations over %d attempts, want fewer than n = %d: %s", iterations, len(rep.Attempts), g.N(), rep)
	}
}

// heavyEdgeGrid is the s×s unit grid (vertex i·s+j) whose horizontal edge
// (v, v+1) weighs w whenever v is a multiple of step, and every other edge 1.
func heavyEdgeGrid(t *testing.T, s, step int, w float64) *hcd.Graph {
	t.Helper()
	var es []hcd.Edge
	for v := 0; v < s*s; v++ {
		if v%s+1 < s {
			wv := 1.0
			if v%step == 0 {
				wv = w
			}
			es = append(es, hcd.Edge{U: v, V: v + 1, W: wv})
		}
		if v+s < s*s {
			es = append(es, hcd.Edge{U: v, V: v + s, W: 1})
		}
	}
	g, err := hcd.NewGraph(s*s, es)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestUnarmedCorpusStaysOnFirstRung: with no fault armed, the ladder
// converges on its first rung, hierarchy-pcg, in one attempt, on a small
// graph of every family — hcd-solve's graph
// specs, seed and right-hand side, and a 12³ grid whose z edges weigh 1 000
// — and on weights that differ by 10¹⁶ and more: a triangle and two grids
// with heavy horizontal edges, whose coarse factors a subtracting pivot
// cancels to zero. Only an armed fault reaches the Jacobi-PCG rung.
func TestUnarmedCorpusStaysOnFirstRung(t *testing.T) {
	const seed = 1
	type named struct {
		name string
		g    *hcd.Graph
	}
	triangle, err := hcd.NewGraph(3, []hcd.Edge{{U: 0, V: 1, W: 1}, {U: 0, V: 2, W: 1}, {U: 1, V: 2, W: 1e16}})
	if err != nil {
		t.Fatal(err)
	}
	graphs := []named{
		{"aniso:12 (z 1000)", hcd.Grid3DAnisotropic(12, 12, 12, 1, 1, 1000)},
		{"triangle 1, 1, 1e16", triangle},
		{"grid 40², every 7th edge 1e20", heavyEdgeGrid(t, 40, 7, 1e20)},
		{"grid 64², every 7th edge 1e20", heavyEdgeGrid(t, 64, 7, 1e20)},
	}
	for _, spec := range []string{"grid2d:48", "grid3d:16", "road:48", "femesh:48", "oct:16", "plaw:3000,3", "tree:2000"} {
		g, err := cli.BuildGraph(spec, seed)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		graphs = append(graphs, named{spec, g})
	}
	for _, tc := range graphs {
		b := cli.MeanFreeRHS(tc.g.N(), seed+100)
		resp, err := hcd.Do(context.Background(), tc.g, hcd.SolveRequest{B: [][]float64{b}, Method: hcd.SolveMethodResilient, Options: hcd.DefaultSolveOptions()})
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		rep := resp.Resilience[0]
		if len(rep.Attempts) != 1 || rep.Rung != hcd.RungHierarchyPCG || !resp.Results[0].Converged {
			t.Errorf("%s: %d attempts, rung %q, converged %v: %s", tc.name, len(rep.Attempts), rep.Rung, resp.Results[0].Converged, rep)
		}
	}
}

func TestSolveResilientAllRungsFail(t *testing.T) {
	g := hcd.Grid2D(10, 10, nil, 1)
	b := meanFree(rand.New(rand.NewSource(44)), g.N())
	// An open-ended NaN fault poisons every matvec in every rung.
	restore := faultinject.Activate(map[string]faultinject.Spec{
		faultinject.MatvecNaN: {OnHit: 1, Count: 0},
	})
	defer restore()
	resp, err := hcd.Do(context.Background(), g, hcd.SolveRequest{B: [][]float64{b}, Method: hcd.SolveMethodResilient, Options: hcd.DefaultSolveOptions()})
	rep := resp.Resilience[0]
	if !errors.Is(err, hcd.ErrNotConverged) {
		t.Fatalf("err = %v, want ErrNotConverged", err)
	}
	// hierarchy-pcg, jacobi-pcg.
	if len(rep.Attempts) != 2 {
		t.Errorf("%d attempts, want 2: %s", len(rep.Attempts), rep)
	}
	if rep.Recovered || rep.Rung != "" {
		t.Errorf("failed ladder must not report recovery: %+v", rep)
	}
	for _, a := range rep.Attempts {
		if a.Err == "" {
			t.Errorf("attempt %s has no failure description", a.Rung)
		}
	}
}

func TestSolveResilientHonorsCancellation(t *testing.T) {
	g := hcd.Grid2D(10, 10, nil, 1)
	b := meanFree(rand.New(rand.NewSource(45)), g.N())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	resp, err := hcd.Do(ctx, g, hcd.SolveRequest{B: [][]float64{b}, Method: hcd.SolveMethodResilient, Options: hcd.DefaultSolveOptions()})
	rep := resp.Resilience[0]
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The ladder must stop immediately, not walk every rung.
	if len(rep.Attempts) > 1 {
		t.Errorf("cancelled ladder ran %d attempts: %s", len(rep.Attempts), rep)
	}
}

// TestResilientBlockBuildsOnce: the ladder walks a request's columns
// together. A clean four-column request builds one hierarchy for all of them
// — none when the request brings its own M — and every column still gets its
// own report; a column of the wrong length fails alone, before any rung.
func TestResilientBlockBuildsOnce(t *testing.T) {
	ctx := context.Background()
	g := hcd.Grid3D(12, 12, 12, hcd.LognormalWeights(1), 1)
	rng := rand.New(rand.NewSource(46))
	B := make([][]float64, 4)
	for j := range B {
		B[j] = meanFree(rng, g.N())
	}
	h, err := hcd.NewHierarchyCtx(ctx, g, hcd.DefaultHierarchyOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		m      hcd.Preconditioner
		builds int
	}{
		{"spec", nil, 1},
		{"prebuilt M", h, 0},
	} {
		tr := hcd.NewTracer()
		resp, err := hcd.Do(hcd.WithTracer(ctx, tr), g, hcd.SolveRequest{
			B: B, Method: hcd.SolveMethodResilient, M: tc.m, Options: hcd.DefaultSolveOptions(),
		})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		builds := 0
		for _, s := range tr.Spans() {
			if s.Name == "hierarchy/build" {
				builds++
			}
		}
		if builds != tc.builds {
			t.Errorf("%s: %d hierarchy builds, want %d", tc.name, builds, tc.builds)
		}
		if len(resp.Results) != len(B) || len(resp.Resilience) != len(B) {
			t.Fatalf("%s: %d results and %d reports for %d columns", tc.name, len(resp.Results), len(resp.Resilience), len(B))
		}
		for j, rep := range resp.Resilience {
			if rep.Rung != hcd.RungHierarchyPCG || len(rep.Attempts) != 1 || rep.Recovered {
				t.Errorf("%s rhs %d: report %s, rung %q", tc.name, j, rep, rep.Rung)
			}
			if r := residual(g, resp.Results[j].X, B[j]); !resp.Results[j].Converged || r > 1e-6 {
				t.Errorf("%s rhs %d: converged %v, residual %v", tc.name, j, resp.Results[j].Converged, r)
			}
		}
	}

	short := [][]float64{B[0], B[1][:10], B[2]}
	resp, err := hcd.Do(ctx, g, hcd.SolveRequest{B: short, Method: hcd.SolveMethodResilient, Options: hcd.DefaultSolveOptions()})
	if !errors.Is(err, hcd.ErrBadDimension) || !strings.Contains(err.Error(), "rhs 1 length 10") {
		t.Fatalf("short column: err %v, want ErrBadDimension naming rhs 1", err)
	}
	for _, j := range []int{0, 2} {
		if rep := resp.Resilience[j]; rep.Rung != hcd.RungHierarchyPCG || !resp.Results[j].Converged {
			t.Errorf("rhs %d beside a short column: report %s", j, rep)
		}
	}
	if rep := resp.Resilience[1]; rep.Rung != "" || len(rep.Attempts) != 0 || resp.Results[1].Converged {
		t.Errorf("short column: report %s, want no attempt", rep)
	}
}

func TestEngineBusyExported(t *testing.T) {
	if hcd.ErrEngineBusy == nil || hcd.ErrInvalidInput == nil {
		t.Fatal("sentinels must be exported")
	}
}
