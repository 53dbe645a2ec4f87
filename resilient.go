package hcd

// The fault-tolerant solve path: SolveResilient walks a ladder of
// solver/preconditioner configurations, from the best-performing to the most
// robust, until one converges. Each rung's attempt — outcome, iteration
// count, restarts, why it fell through — is recorded in a ResilienceReport,
// so a recovered solve documents exactly what failed and what saved it.
//
// The ladder, in order:
//
//	[1] hierarchy-pcg          PCG with the multilevel Steiner preconditioner
//	                           (the paper's construction; fastest when healthy)
//	[2] reseeded-hierarchy-pcg the same, with the hierarchy rebuilt from
//	                           re-seeded randomized clusterings — recovers
//	                           from an unluckily or corruptly built hierarchy
//	[3] cg                     unpreconditioned conjugate gradients — removes
//	                           the preconditioner from the fault surface
//	[4] chebyshev              Jacobi-preconditioned Chebyshev iteration with
//	                           conservative spectrum bounds — needs no inner
//	                           products and no curvature, the last resort
//
// Every rung runs under the request's Options with one restart, so a
// transient breakdown restarts in place before the ladder moves on. Build
// failures (a hierarchy that cannot be constructed) are recorded as attempts
// and fall through like solve failures. Context cancellation stops the ladder
// immediately.

import (
	"context"
	"fmt"
	"time"

	"hcd/internal/hierarchy"
	"hcd/internal/obs"
	"hcd/internal/solver"
)

// Ladder rung names, as they appear in SolveAttempt.Rung.
const (
	RungHierarchyPCG = "hierarchy-pcg"
	RungReseededPCG  = "reseeded-hierarchy-pcg"
	RungCG           = "cg"
	RungChebyshev    = "chebyshev"
)

// The ladder's fixed shape: one in-rung PCG restart, two reseeded rebuilds.
const (
	ladderRestarts = 1
	ladderReseeds  = 2
)

// SolveAttempt records one rung of a resilient solve.
type SolveAttempt struct {
	Rung          string
	Outcome       SolveOutcome
	Iterations    int
	Restarts      int
	FinalResidual float64
	Duration      time.Duration
	// Err holds the failure description: a build or solve error, or the
	// solver's Reason for a guard-terminated attempt. Empty on success.
	Err string
}

// ResilienceReport is the attempt trail of one SolveResilient call.
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
// SolveResilient calls it automatically when a registry travels in the
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

// SolveResilient solves the Laplacian system A·x = b with fallback: it walks
// the rung ladder documented above until a rung converges, recording every
// attempt. On success it returns the converged result, the report, and a nil
// error. When every rung fails it returns the last attempt's result and an
// error wrapping ErrNotConverged; when the context is cancelled it returns
// an error wrapping the context's error. The report is meaningful in every
// case. Rung 1 builds the hierarchy spec describes (its Kind must be the
// hierarchy's, or empty); every rung iterates under DefaultSolveOptions.
// SolveResilient is a thin wrapper over Do with SolveMethodResilient and a
// single right-hand side.
func SolveResilient(ctx context.Context, g *Graph, b []float64, spec PrecondSpec) (SolveResult, ResilienceReport, error) {
	resp, err := Do(ctx, g, SolveRequest{B: [][]float64{b}, Method: SolveMethodResilient, Precond: spec, Options: DefaultSolveOptions()})
	var rep ResilienceReport
	if len(resp.Resilience) > 0 {
		rep = resp.Resilience[0]
	}
	res, err := single(resp, err)
	return res, rep, err
}

// solveResilient is the ladder implementation behind Do's resilient method
// (and hence SolveResilient), one right-hand side per call: rung 1 builds
// hopt, rung 2 rebuilds it under perturbed seeds, and every rung iterates
// under opt with ladderRestarts restarts.
func solveResilient(ctx context.Context, g *Graph, b []float64, hopt HierarchyOptions, opt SolveOptions) (SolveResult, ResilienceReport, error) {
	opt.MaxRestarts = ladderRestarts
	ctx, lsp := obs.StartSpan(ctx, "resilient/solve")
	var (
		report ResilienceReport
		last   SolveResult
		a      = solver.LapOperator(g)
	)
	defer func() {
		if lsp != nil {
			lsp.Arg("attempts", len(report.Attempts))
			lsp.Arg("rung", report.Rung)
			lsp.Arg("recovered", report.Recovered)
		}
		lsp.End()
		report.Publish(obs.RegistryFrom(ctx))
	}()
	// startRung opens the span of one ladder rung (build plus solve); the
	// disabled path materializes no name string.
	startRung := func(rung string) (context.Context, *obs.Span) {
		if obs.TracerFrom(ctx) == nil {
			return ctx, nil
		}
		return obs.StartSpan(ctx, "resilient/rung/"+rung)
	}
	record := func(rung string, res SolveResult, err error, dur time.Duration) bool {
		at := SolveAttempt{
			Rung:          rung,
			Outcome:       res.Outcome,
			Iterations:    res.Iterations,
			Restarts:      res.Metrics.Restarts,
			FinalResidual: res.Metrics.FinalResidual,
			Duration:      dur,
		}
		switch {
		case err != nil:
			at.Err = err.Error()
		case res.Reason != "":
			at.Err = res.Reason
		case res.Outcome != OutcomeConverged:
			at.Err = res.Outcome.String()
		}
		report.Attempts = append(report.Attempts, at)
		last = res
		if err == nil && res.Converged {
			report.Rung = rung
			report.Recovered = len(report.Attempts) > 1
			return true
		}
		return false
	}
	tryPCG := func(sctx context.Context, rung string, m Preconditioner) (bool, error) {
		start := time.Now()
		res, err := solver.PCGCtx(sctx, a, m, b, opt)
		done := record(rung, res, err, time.Since(start))
		if done {
			return true, nil
		}
		if ctx.Err() != nil {
			return false, fmt.Errorf("hcd: resilient solve cancelled at rung %s: %w", rung, ctx.Err())
		}
		return false, nil
	}

	// [1] Hierarchy-preconditioned PCG.
	start := time.Now()
	rctx, rsp := startRung(RungHierarchyPCG)
	h, err := hierarchy.NewCtx(rctx, g, hopt)
	if err != nil {
		rsp.End()
		record(RungHierarchyPCG, SolveResult{}, fmt.Errorf("hierarchy build: %w", err), time.Since(start))
		if ctx.Err() != nil {
			return last, report, fmt.Errorf("hcd: resilient solve cancelled at rung %s: %w", RungHierarchyPCG, ctx.Err())
		}
	} else {
		done, cerr := tryPCG(rctx, RungHierarchyPCG, h)
		rsp.End()
		if done || cerr != nil {
			return last, report, cerr
		}
	}

	// [2] Rebuilt hierarchies under fresh randomized seeds: a bad draw of
	// the perturbed clustering (or a corrupted build) is re-rolled.
	for try := 0; try < ladderReseeds; try++ {
		reseeded := hopt
		// A large odd prime offset keeps reseeded streams disjoint from
		// every level's Seed+level sequence.
		reseeded.Seed = hopt.Seed + int64(try+1)*1000003
		start := time.Now()
		rctx, rsp := startRung(RungReseededPCG)
		h, err := hierarchy.NewCtx(rctx, g, reseeded)
		if err != nil {
			rsp.End()
			record(RungReseededPCG, SolveResult{}, fmt.Errorf("hierarchy rebuild (seed %d): %w", reseeded.Seed, err), time.Since(start))
			if ctx.Err() != nil {
				return last, report, fmt.Errorf("hcd: resilient solve cancelled at rung %s: %w", RungReseededPCG, ctx.Err())
			}
			continue
		}
		done, cerr := tryPCG(rctx, RungReseededPCG, h)
		rsp.End()
		if done || cerr != nil {
			return last, report, cerr
		}
	}

	// [3] Unpreconditioned CG.
	rctx, rsp = startRung(RungCG)
	done, cerr := tryPCG(rctx, RungCG, nil)
	rsp.End()
	if done || cerr != nil {
		return last, report, cerr
	}

	// [4] Jacobi-Chebyshev with conservative bounds. For D⁻¹L the spectrum
	// lies in (0, 2]; probing λmin via a short PCG probe tightens the lower
	// bound, and a failed probe falls back to a fixed wide bracket.
	// Chebyshev with conservative bounds converges slower than PCG: its
	// budget is four times the PCG rungs'.
	cheb := opt
	if cheb.MaxIter <= 0 {
		cheb.MaxIter = 10*g.N() + 50
	}
	cheb.MaxIter *= 4
	jac := JacobiPreconditioner(g)
	lmin, lmax := 1e-4, 2.0
	rctx, rsp = startRung(RungChebyshev)
	probe, perr := solver.PCGCtx(rctx, a, jac, b, solver.Options{Tol: 1e-12, MaxIter: 40, ProjectMean: opt.ProjectMean})
	if perr == nil && len(probe.Alphas) > 0 {
		if lo, hi, serr := solver.SpectrumEstimate(probe.Alphas, probe.Betas); serr == nil && lo > 0 {
			lmin, lmax = 0.5*lo, 1.25*hi
		}
	}
	if ctx.Err() != nil {
		rsp.End()
		return last, report, fmt.Errorf("hcd: resilient solve cancelled at rung %s: %w", RungChebyshev, ctx.Err())
	}
	start = time.Now()
	res, err := solver.ChebyshevCtx(rctx, a, jac, b, lmin, lmax, cheb)
	rsp.End()
	if record(RungChebyshev, res, err, time.Since(start)) {
		return last, report, nil
	}
	if ctx.Err() != nil {
		return last, report, fmt.Errorf("hcd: resilient solve cancelled at rung %s: %w", RungChebyshev, ctx.Err())
	}
	return last, report, fmt.Errorf("hcd: all %d resilient-solve attempts failed (%s): %w",
		len(report.Attempts), report.String(), ErrNotConverged)
}
