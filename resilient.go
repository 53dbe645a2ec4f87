package hcd

// The fault-tolerant solve path: Do's SolveMethodResilient walks a ladder of
// solver/preconditioner configurations, from the best-performing to the most
// robust, until one converges. Each rung's attempt — outcome, iteration
// count, why it fell through — is recorded in a ResilienceReport,
// so a recovered solve documents exactly what failed and what saved it.
//
// The ladder, in order:
//
//	[1] hierarchy-pcg  PCG with the multilevel Steiner preconditioner (the
//	                   paper's construction; fastest when healthy)
//	[2] jacobi-pcg     PCG with the diagonal (Jacobi) preconditioner —
//	                   takes the hierarchy off the fault surface and keeps
//	                   the diagonal scaling weighted graphs need
//
// Unarmed, every measured input converges on rung 1, whatever its weight
// spread: the coarse factor's pivots cannot cancel (DESIGN §5). A corrupted
// build or solve is left to Jacobi-PCG.
//
// Every rung is one PCG attempt under the request's Options, so a breakdown
// on rung 1 falls straight to rung 2. A request's right-hand sides walk the
// ladder together: each rung builds at most once and solves the columns
// still failing as one block, and each column keeps its own attempt trail.
// Build failures (a hierarchy that cannot be constructed) are recorded as
// attempts and fall through like solve failures. Context cancellation stops
// the ladder immediately.

import (
	"context"
	"errors"
	"fmt"
	"time"

	"hcd/internal/hierarchy"
	"hcd/internal/obs"
	"hcd/internal/solver"
)

// Ladder rung names, as they appear in SolveAttempt.Rung.
const (
	RungHierarchyPCG = "hierarchy-pcg"
	RungJacobiPCG    = "jacobi-pcg"
)

// SolveAttempt records one rung of a resilient solve.
type SolveAttempt struct {
	Rung          string
	Outcome       SolveOutcome
	Iterations    int
	FinalResidual float64
	Duration      time.Duration
	// Err holds the failure description: a build or solve error, or the
	// solver's Reason for a guard-terminated attempt. Empty on success.
	Err string
}

// ResilienceReport is the attempt trail of one right-hand side of a
// resilient solve.
type ResilienceReport struct {
	Attempts []SolveAttempt
	// Recovered is true when the solve converged on any rung after the
	// first attempt failed.
	Recovered bool
	// Rung names the ladder rung that produced the returned solution
	// (empty if no rung converged).
	Rung string
}

// Publish counts the ladder's attempts into the registry under the
// hcd_resilient_* namespace, one labelled series per (rung, outcome) pair.
// The resilient method calls it automatically when a registry travels in the
// solve context (WithMetricRegistry); nil registries are no-ops.
func (r ResilienceReport) Publish(reg *MetricRegistry) {
	if reg == nil {
		return
	}
	for _, a := range r.Attempts {
		reg.Counter(`hcd_resilient_attempts_total{rung="` + a.Rung + `",outcome="` + a.Outcome.String() + `"}`).Inc()
	}
	reg.Counter("hcd_resilient_solves_total").Inc()
	if r.Recovered {
		reg.Counter("hcd_resilient_recovered_total").Inc()
	}
	if r.Rung == "" {
		reg.Counter("hcd_resilient_failed_total").Inc()
	}
}

// String renders the attempt trail on one line per rung.
func (r ResilienceReport) String() string {
	s := ""
	for i, a := range r.Attempts {
		if i > 0 {
			s += "; "
		}
		s += fmt.Sprintf("%s: %v", a.Rung, a.Outcome)
		if a.Err != "" {
			s += " (" + a.Err + ")"
		}
	}
	return s
}

// solveResilient is the ladder implementation behind Do's resilient method.
// It walks the columns of bs down the ladder together: each rung builds its
// preconditioner at most once and solves the columns no earlier rung
// converged as one block, and every column keeps its own attempt trail. Rung
// 1 solves with m when it is set, else builds hopt; rung 2 is Jacobi-PCG;
// every rung is one PCG attempt under opt.
func solveResilient(ctx context.Context, g *Graph, bs [][]float64, m Preconditioner, hopt HierarchyOptions, opt SolveOptions) ([]SolveResult, []ResilienceReport, error) {
	ctx, lsp := obs.StartSpan(ctx, "resilient/solve")
	var (
		results = make([]SolveResult, len(bs))
		reports = make([]ResilienceReport, len(bs))
		pending []int // the columns no rung has converged, ascending
		errs    []error
		a       = solver.LapOperator(g)
	)
	// A column of the wrong length fails alone, before any rung: no
	// preconditioner can make it solvable.
	for j, b := range bs {
		if len(b) != g.N() {
			errs = append(errs, fmt.Errorf("hcd: rhs %d length %d vs graph dimension %d: %w", j, len(b), g.N(), ErrBadDimension))
			continue
		}
		pending = append(pending, j)
	}
	defer func() {
		reg, failed := obs.RegistryFrom(ctx), 0
		for _, rep := range reports {
			rep.Publish(reg)
			if rep.Rung == "" {
				failed++
			}
		}
		if lsp != nil {
			lsp.Arg("rhs", len(bs))
			lsp.Arg("failed", failed)
		}
		lsp.End()
	}()
	// startRung opens the span of one ladder rung (build plus solve); the
	// disabled path materializes no name string.
	startRung := func(rung string) (context.Context, *obs.Span) {
		if obs.TracerFrom(ctx) == nil {
			return ctx, nil
		}
		return obs.StartSpan(ctx, "resilient/rung/"+rung)
	}
	columns := func() [][]float64 {
		cols := make([][]float64, len(pending))
		for i, j := range pending {
			cols[i] = bs[j]
		}
		return cols
	}
	// record files one rung's attempt for every pending column and drops the
	// columns it converged from pending: res holds their results in pending
	// order, or is nil when the rung produced none and err says why (a failed
	// build, a panic).
	record := func(rung string, res []SolveResult, err error, dur time.Duration) {
		kept := pending[:0]
		for i, j := range pending {
			var r SolveResult
			cerr := err
			if res != nil {
				r, cerr = res[i], nil
			}
			at := SolveAttempt{
				Rung:          rung,
				Outcome:       r.Outcome,
				Iterations:    r.Iterations,
				FinalResidual: r.Metrics.FinalResidual,
				Duration:      dur,
			}
			switch {
			case cerr != nil:
				at.Err = cerr.Error()
			case r.Reason != "":
				at.Err = r.Reason
			case r.Outcome != OutcomeConverged:
				at.Err = r.Outcome.String()
			}
			rep := &reports[j]
			rep.Attempts = append(rep.Attempts, at)
			results[j] = r
			if cerr == nil && r.Converged {
				rep.Rung = rung
				rep.Recovered = len(rep.Attempts) > 1
				continue
			}
			kept = append(kept, j)
		}
		pending = kept
	}
	cancelled := func(rung string) error {
		if ctx.Err() != nil {
			return fmt.Errorf("hcd: resilient solve cancelled at rung %s: %w", rung, ctx.Err())
		}
		return nil
	}
	// pcgRung runs one PCG rung on the pending columns: build, then one block
	// solve.
	pcgRung := func(rung string, build func(context.Context) (Preconditioner, error)) error {
		if len(pending) == 0 {
			return nil
		}
		rctx, rsp := startRung(rung)
		defer rsp.End()
		start := time.Now()
		m, err := build(rctx)
		if err != nil {
			record(rung, nil, err, time.Since(start))
			return cancelled(rung)
		}
		start = time.Now()
		res, err := solver.BlockPCGCtx(rctx, a, m, columns(), opt)
		record(rung, res, err, time.Since(start))
		return cancelled(rung)
	}

	// [1] Hierarchy-preconditioned PCG.
	err := pcgRung(RungHierarchyPCG, func(rctx context.Context) (Preconditioner, error) {
		if m != nil {
			return m, nil
		}
		h, err := hierarchy.NewCtx(rctx, g, hopt)
		if err != nil {
			return nil, fmt.Errorf("hierarchy build: %w", err)
		}
		return h, nil
	})
	// [2] Jacobi-preconditioned PCG.
	if err == nil {
		err = pcgRung(RungJacobiPCG, func(context.Context) (Preconditioner, error) { return JacobiPreconditioner(g), nil })
	}
	if err == nil {
		for _, j := range pending {
			errs = append(errs, fmt.Errorf("hcd: rhs %d: all %d resilient-solve attempts failed (%s): %w",
				j, len(reports[j].Attempts), reports[j].String(), ErrNotConverged))
		}
	}
	return results, reports, errors.Join(append(errs, err)...)
}
