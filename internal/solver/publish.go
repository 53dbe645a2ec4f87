package solver

import "hcd/internal/obs"

// Publish accumulates the solve's work counters into the registry under the
// hcd_solve_* namespace and updates the last-solve gauges. The solver's
// driver calls it automatically when a registry travels in the solve context
// (obs.WithRegistry); it is also exported so callers holding a Result can
// publish into their own registry. Nil registries are no-ops.
func (m Metrics) Publish(r *obs.Registry) {
	if r == nil {
		return
	}
	r.Counter("hcd_solve_total").Inc()
	r.Counter("hcd_solve_matvecs_total").Add(int64(m.MatVecs))
	r.Counter("hcd_solve_precond_applies_total").Add(int64(m.PrecondApplies))
	r.Counter("hcd_solve_iterations_total").Add(int64(m.Iterations))
	r.Counter("hcd_solve_restarts_total").Add(int64(m.Restarts))
	r.Counter("hcd_solve_scratch_allocs_total").Add(int64(m.ScratchAllocs))
	r.Counter("hcd_solve_setup_ns_total").Add(int64(m.SetupTime))
	r.Counter("hcd_solve_iter_ns_total").Add(int64(m.IterTime))
	r.Counter("hcd_solve_ns_total").Add(int64(m.TotalTime))
	r.Gauge("hcd_solve_last_final_residual").Set(m.FinalResidual)
	r.Gauge("hcd_solve_last_iterations").Set(float64(m.Iterations))
}

// publishOutcome counts one solve termination by outcome, e.g.
// hcd_solve_outcome_total{method="pcg",outcome="converged"}.
func publishOutcome(r *obs.Registry, o Outcome) {
	r.Counter(`hcd_solve_outcome_total{method="pcg",outcome="` + o.String() + `"}`).Inc()
}
