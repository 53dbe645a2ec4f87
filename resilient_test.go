package hcd_test

// Tests for SolveResilient: the fallback ladder, the attempt trail, and
// deterministic fault-injected recovery.

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"hcd"
	"hcd/internal/faultinject"
)

func TestSolveResilientCleanPath(t *testing.T) {
	g := hcd.Grid2D(12, 12, nil, 1)
	b := meanFree(rand.New(rand.NewSource(41)), g.N())
	res, rep, err := hcd.SolveResilient(context.Background(), g, b, hcd.PrecondSpec{})
	if err != nil {
		t.Fatalf("SolveResilient: %v", err)
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
	// Two NaN strikes: one kills rung 1's first attempt, one its in-rung
	// restart. The window then closes, so the reseeded rung runs clean.
	restore := faultinject.Activate(map[string]faultinject.Spec{
		faultinject.MatvecNaN: {OnHit: 1, Count: 2},
	})
	defer restore()
	res, rep, err := hcd.SolveResilient(context.Background(), g, b, hcd.PrecondSpec{})
	if err != nil {
		t.Fatalf("SolveResilient: %v\nreport: %s", err, rep)
	}
	if !res.Converged {
		t.Fatalf("outcome %v, report: %s", res.Outcome, rep)
	}
	if !rep.Recovered {
		t.Error("recovery via a later rung must set Recovered")
	}
	if rep.Rung != hcd.RungReseededPCG {
		t.Errorf("recovered on rung %q, want %q", rep.Rung, hcd.RungReseededPCG)
	}
	if len(rep.Attempts) != 2 {
		t.Fatalf("%d attempts, want 2 (failed hierarchy-pcg, converged reseed): %s", len(rep.Attempts), rep)
	}
	first := rep.Attempts[0]
	if first.Rung != hcd.RungHierarchyPCG || first.Outcome != hcd.OutcomeBreakdown {
		t.Errorf("attempt 1 = %+v, want a hierarchy-pcg breakdown", first)
	}
	if first.Restarts != 1 {
		t.Errorf("attempt 1 restarts = %d, want 1 (in-rung recovery tried first)", first.Restarts)
	}
	if first.Err == "" || !strings.Contains(first.Err, "NaN") && !strings.Contains(first.Err, "non-finite") {
		t.Errorf("attempt 1 Err %q does not explain the NaN breakdown", first.Err)
	}
}

func TestSolveResilientRecoversFromCorruptedBuild(t *testing.T) {
	g := hcd.Grid2D(40, 40, nil, 1)
	b := meanFree(rand.New(rand.NewSource(43)), g.N())
	// Corrupt the first hierarchy build's clustering scan; the degenerate
	// all-singleton level trips the no-reduction guard, and the reseeded
	// rebuild (past the fault window) succeeds.
	restore := faultinject.Activate(map[string]faultinject.Spec{
		faultinject.PerturbCorrupt: {OnHit: 1, Count: 1},
	})
	defer restore()
	hopt := hcd.DefaultHierarchyOptions()
	hopt.DirectLimit = 50 // 1600 vertices >> 4·50 arms the guard
	res, rep, err := hcd.SolveResilient(context.Background(), g, b, hcd.PrecondSpec{Hierarchy: &hopt})
	if err != nil {
		t.Fatalf("SolveResilient: %v\nreport: %s", err, rep)
	}
	if !res.Converged || !rep.Recovered || rep.Rung != hcd.RungReseededPCG {
		t.Fatalf("converged=%v recovered=%v rung=%q, report: %s", res.Converged, rep.Recovered, rep.Rung, rep)
	}
	if first := rep.Attempts[0]; !strings.Contains(first.Err, "no reduction") {
		t.Errorf("attempt 1 Err %q does not carry the build failure", first.Err)
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
	_, rep, err := hcd.SolveResilient(context.Background(), g, b, hcd.PrecondSpec{})
	if !errors.Is(err, hcd.ErrNotConverged) {
		t.Fatalf("err = %v, want ErrNotConverged", err)
	}
	// hierarchy-pcg, 2 reseeds, cg, chebyshev.
	if len(rep.Attempts) != 5 {
		t.Errorf("%d attempts, want 5: %s", len(rep.Attempts), rep)
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
	_, rep, err := hcd.SolveResilient(ctx, g, b, hcd.PrecondSpec{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The ladder must stop immediately, not walk every rung.
	if len(rep.Attempts) > 1 {
		t.Errorf("cancelled ladder ran %d attempts: %s", len(rep.Attempts), rep)
	}
}

func TestEngineBusyExported(t *testing.T) {
	if hcd.ErrEngineBusy == nil || hcd.ErrInvalidInput == nil {
		t.Fatal("sentinels must be exported")
	}
}
