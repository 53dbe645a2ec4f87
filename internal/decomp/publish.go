package decomp

import "hcd/internal/obs"

// publishReport records the quality measurements of one evaluation: the
// exact certification work counters plus last-evaluation gauges of the
// headline [φ, ρ] figures. Called from the evaluate loop when a registry
// travels in its context; the integer counters are aggregated with atomic
// adds from deterministic per-cluster work, so totals are identical at any
// GOMAXPROCS.
func publishReport(r *obs.Registry, rep *Report) {
	if r == nil {
		return
	}
	rep.Cert.Publish(r)
	r.Counter("hcd_evaluate_total").Inc()
	r.Counter("hcd_evaluate_clusters_total").Add(int64(rep.Count))
	r.Gauge("hcd_evaluate_last_phi").Set(rep.Phi)
	r.Gauge("hcd_evaluate_last_rho").Set(rep.Rho)
	r.Gauge("hcd_evaluate_last_gamma_min").Set(rep.GammaMin)
	r.Gauge("hcd_evaluate_last_clusters").Set(float64(rep.Count))
}
