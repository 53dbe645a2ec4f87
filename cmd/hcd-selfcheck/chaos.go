package main

// The -chaos mode: a deterministic fault-recovery battery. Each check
// activates a seeded fault-injection plan, exercises one recovery path end
// to end, and asserts the documented containment behavior — the solve
// recovers, the error carries the right sentinel, the process stays alive.
// No randomness is involved, so a chaos failure reproduces immediately.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"

	"hcd"
	"hcd/internal/cli"
	"hcd/internal/faultinject"
	"hcd/internal/gio"
	"hcd/internal/graph"
	"hcd/internal/par"
)

// chaosCtx is the root context of every chaos check; main swaps in the
// instrumented context when -trace/-listen are set, so the fault-recovery
// battery records its span trees and fault-fire instants.
var chaosCtx = context.Background()

// chaosChecks runs the battery and returns the failure count.
func chaosChecks() int {
	checks := []struct {
		name string
		run  func() error
	}{
		{"matvec NaN mid-solve: resilient ladder recovers", chaosMatvecNaN},
		{"worker panic: error with stack, process alive", chaosWorkerPanic},
		{"stage fault: decompose build fails with error, not panic", chaosStageFail},
		{"corrupted clustering: reseeded hierarchy rung recovers", chaosCorruptBuild},
		{"PCG breakdown: in-solve restart converges", chaosBreakdownRestart},
		{"overlapping engine solves: ErrEngineBusy, no corruption", chaosEngineBusy},
		{"malformed input: line-numbered ErrInvalidInput", chaosMalformedInput},
	}
	bad := 0
	for _, c := range checks {
		status := "ok"
		if err := c.run(); err != nil {
			status = fmt.Sprintf("FAIL: %v", err)
			bad++
		}
		fmt.Printf("chaos: %-55s %s\n", c.name, status)
	}
	return bad
}

func chaosMatvecNaN() error {
	g := hcd.Grid2D(12, 12, nil, 1)
	b := cli.MeanFreeRHS(g.N(), 7)
	restore := faultinject.Activate(map[string]faultinject.Spec{
		faultinject.MatvecNaN: {OnHit: 1, Count: 2},
	})
	defer restore()
	res, rep, err := hcd.SolveResilient(chaosCtx, g, b, hcd.PrecondSpec{})
	if err != nil {
		return fmt.Errorf("ladder failed: %w (report: %s)", err, rep)
	}
	if !res.Converged || !rep.Recovered {
		return fmt.Errorf("converged=%v recovered=%v (report: %s)", res.Converged, rep.Recovered, rep)
	}
	if len(rep.Attempts) < 2 {
		return fmt.Errorf("recovery needs an attempt trail, got %d attempts", len(rep.Attempts))
	}
	return nil
}

func chaosWorkerPanic() error {
	// Exercise the multi-worker path even on single-core hosts, where
	// par.For would otherwise short-circuit to a plain sequential call.
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	restore := faultinject.Activate(map[string]faultinject.Spec{
		faultinject.WorkerPanic: {OnHit: 2, Count: 1},
	})
	defer restore()
	err := func() (err error) {
		defer func() {
			if v := recover(); v != nil {
				err = par.AsError(v)
			}
		}()
		par.For(1<<16, 1024, func(lo, hi int) {})
		return nil
	}()
	if err == nil {
		return fmt.Errorf("injected worker panic was swallowed")
	}
	var pe *par.PanicError
	if !errors.As(err, &pe) {
		return fmt.Errorf("error %T does not carry the worker panic", err)
	}
	if len(pe.Stack) == 0 {
		return fmt.Errorf("worker panic lost its stack")
	}
	if !errors.Is(err, faultinject.ErrInjected) {
		return fmt.Errorf("panic value lost the injected sentinel: %v", err)
	}
	return nil
}

func chaosStageFail() error {
	g := hcd.Grid2D(10, 10, nil, 1)
	restore := faultinject.Activate(map[string]faultinject.Spec{
		faultinject.StageFail: {OnHit: 1, Count: 1},
	})
	defer restore()
	_, err := hcd.DecomposeCtx(chaosCtx, g, hcd.DefaultDecomposeOptions(hcd.MethodFixedDegree))
	if !errors.Is(err, faultinject.ErrInjected) {
		return fmt.Errorf("err = %v, want the injected stage fault", err)
	}
	// Past the fault window the same build must succeed.
	if _, err := hcd.DecomposeCtx(chaosCtx, g, hcd.DefaultDecomposeOptions(hcd.MethodFixedDegree)); err != nil {
		return fmt.Errorf("clean rebuild after fault window: %w", err)
	}
	return nil
}

func chaosCorruptBuild() error {
	g := hcd.Grid2D(40, 40, nil, 1)
	b := cli.MeanFreeRHS(g.N(), 8)
	restore := faultinject.Activate(map[string]faultinject.Spec{
		faultinject.PerturbCorrupt: {OnHit: 1, Count: 1},
	})
	defer restore()
	hopt := hcd.DefaultHierarchyOptions()
	hopt.DirectLimit = 50
	res, rep, err := hcd.SolveResilient(chaosCtx, g, b, hcd.PrecondSpec{Hierarchy: &hopt})
	if err != nil {
		return fmt.Errorf("ladder failed: %w (report: %s)", err, rep)
	}
	if !rep.Recovered || rep.Rung != hcd.RungReseededPCG {
		return fmt.Errorf("recovered=%v rung=%q, want reseeded recovery (report: %s)", rep.Recovered, rep.Rung, rep)
	}
	if !res.Converged {
		return fmt.Errorf("outcome %v", res.Outcome)
	}
	return nil
}

func chaosBreakdownRestart() error {
	g := hcd.Grid2D(12, 12, nil, 1)
	b := cli.MeanFreeRHS(g.N(), 9)
	restore := faultinject.Activate(map[string]faultinject.Spec{
		faultinject.ForceBreakdown: {OnHit: 5, Count: 1},
	})
	defer restore()
	opt := hcd.DefaultSolveOptions()
	opt.MaxRestarts = 1
	res, err := hcd.SolvePCGCtx(chaosCtx, g, b, nil, opt)
	if err != nil {
		return err
	}
	if !res.Converged {
		return fmt.Errorf("outcome %v reason %q", res.Outcome, res.Reason)
	}
	if res.Metrics.Restarts < 1 {
		return fmt.Errorf("restarts = %d, want >= 1", res.Metrics.Restarts)
	}
	return nil
}

func chaosEngineBusy() error {
	g := hcd.Grid2D(10, 10, nil, 1)
	b := cli.MeanFreeRHS(g.N(), 10)
	entered := make(chan struct{})
	release := make(chan struct{})
	blocking := &blockingPrecond{n: g.N(), entered: entered, release: release}
	eng, err := hcd.NewEngine(g, blocking, hcd.DefaultSolveOptions())
	if err != nil {
		return err
	}
	done := make(chan error, 1)
	go func() {
		_, err := eng.Solve(context.Background(), b)
		done <- err
	}()
	<-entered
	if _, err := eng.Solve(context.Background(), b); !errors.Is(err, hcd.ErrEngineBusy) {
		close(release)
		return fmt.Errorf("overlapping solve: err = %v, want ErrEngineBusy", err)
	}
	close(release)
	if err := <-done; err != nil {
		return fmt.Errorf("first solve: %w", err)
	}
	return nil
}

func chaosMalformedInput() error {
	_, err := gio.ReadEdgeList(strings.NewReader("0 1 1.0\n0 2 NaN\n"))
	if !errors.Is(err, graph.ErrInvalidInput) {
		return fmt.Errorf("err = %v, want ErrInvalidInput", err)
	}
	if !strings.Contains(err.Error(), "line 2") {
		return fmt.Errorf("err %q does not carry the line number", err)
	}
	if _, err := gio.ReadMatrixMarket(strings.NewReader("%%MatrixMarket matrix coordinate real symmetric\n2 2 99999999999\n")); !errors.Is(err, graph.ErrInvalidInput) {
		return fmt.Errorf("oversized nnz: err = %v, want ErrInvalidInput", err)
	}
	return nil
}

// blockingPrecond is an identity preconditioner that parks its first apply
// on a channel, holding the engine mid-solve so an overlapping call is
// provoked deterministically.
type blockingPrecond struct {
	n                int
	first            bool
	entered, release chan struct{}
}

func (p *blockingPrecond) Dim() int { return p.n }

func (p *blockingPrecond) Apply(dst, r []float64) {
	if !p.first {
		p.first = true
		close(p.entered)
		<-p.release
	}
	copy(dst, r)
}
