package replay

import (
	"fmt"
	"math"
	"sort"
	"time"

	"hcd/internal/obs"
)

// Deterministic is the report section derived only from solver observables
// that are bit-identical across runs at any GOMAXPROCS: request outcomes,
// iteration counts, cache behaviour. The fitness Score is a pure function of
// this section, so committed scores diff cleanly.
type Deterministic struct {
	Outcomes        map[string]int `json:"outcomes"`
	Converged       int            `json:"converged"`
	Errors          int            `json:"errors"`
	Degraded        int            `json:"degraded"`
	CacheHits       int            `json:"cache_hits"`
	TotalIterations int64          `json:"total_iterations"`
	// Iteration-count quantiles over requests, computed exactly from the
	// sorted per-request totals (the deterministic tail-work proxy).
	IterP50 float64 `json:"iter_p50"`
	IterP95 float64 `json:"iter_p95"`
	IterP99 float64 `json:"iter_p99"`
}

// Measured is the wall-clock section: real latencies, throughput, and
// memory. It varies run to run and machine to machine — trend material, not
// diff material. Latency quantiles are estimated from obs histograms
// (fixed buckets, linear interpolation), the same estimator the serve
// metrics endpoint uses.
type Measured struct {
	WallClockMS    float64 `json:"wall_clock_ms"`
	ThroughputRPS  float64 `json:"throughput_rps"`
	LatencyP50MS   float64 `json:"latency_p50_ms"`
	LatencyP95MS   float64 `json:"latency_p95_ms"`
	LatencyP99MS   float64 `json:"latency_p99_ms"`
	QueueWaitP99MS float64 `json:"queue_wait_p99_ms"`
	PeakRSSBytes   int64   `json:"peak_rss_bytes,omitempty"`
}

// Fitness is the score breakdown: each term in [0, 1] before weighting.
type Fitness struct {
	SuccessRate  float64        `json:"success_rate"`
	TailScore    float64        `json:"tail_score"`
	Efficiency   float64        `json:"efficiency"`
	ErrorRate    float64        `json:"error_rate"`
	DegradedRate float64        `json:"degraded_rate"`
	Weights      FitnessWeights `json:"weights"`
}

// SLOCheck is one evaluated objective. Measured marks checks judged against
// the Measured section (advisory: they can flap with machine load).
type SLOCheck struct {
	Name     string  `json:"name"`
	Limit    float64 `json:"limit"`
	Actual   float64 `json:"actual"`
	Pass     bool    `json:"pass"`
	Measured bool    `json:"measured,omitempty"`
}

// Report is the scored result of one replay run.
type Report struct {
	Scenario      string        `json:"scenario"`
	Seed          int64         `json:"seed"`
	Requests      int           `json:"requests"`
	Score         float64       `json:"score"`
	Fitness       Fitness       `json:"fitness"`
	Deterministic Deterministic `json:"deterministic"`
	Measured      Measured      `json:"measured"`
	SLO           []SLOCheck    `json:"slo,omitempty"`
}

// SLOPass reports whether every deterministic (non-advisory) objective
// passed. Measured checks are excluded: a regression gate keyed on
// wall-clock under CI noise would cry wolf.
func (r *Report) SLOPass() bool {
	for _, c := range r.SLO {
		if !c.Measured && !c.Pass {
			return false
		}
	}
	return true
}

// latencyBuckets spans request latencies from 50µs to ~80s, ~1.55× per
// bucket — fine enough that interpolated p99s are meaningful, coarse enough
// to stay a fixed small array.
func latencyBuckets() []float64 {
	b := make([]float64, 0, 32)
	for v := 0.05; v < 100_000; v *= 1.55 {
		b = append(b, v)
	}
	return b
}

// exactQuantile is the nearest-rank quantile of a sorted slice.
func exactQuantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// buildReport aggregates samples (in trace order) into the scored report.
func buildReport(tr *Trace, samples []sample, wall time.Duration) *Report {
	sc := tr.Scenario
	det := Deterministic{Outcomes: map[string]int{}}
	iters := make([]float64, 0, len(samples))
	lat := obs.NewRegistry().Histogram("replay_latency_ms", latencyBuckets())
	qw := obs.NewRegistry().Histogram("replay_queue_wait_ms", latencyBuckets())
	for _, s := range samples {
		det.Outcomes[s.outcome]++
		if s.converged {
			det.Converged++
		}
		if s.code != 0 && (s.code < 200 || s.code >= 400) || s.err != nil {
			det.Errors++
		}
		if s.degraded {
			det.Degraded++
		}
		if s.cacheHit {
			det.CacheHits++
		}
		det.TotalIterations += int64(s.iterations)
		iters = append(iters, float64(s.iterations))
		lat.Observe(float64(s.latency) / float64(time.Millisecond))
		qw.Observe(float64(s.queueWaitMS))
	}
	sort.Float64s(iters)
	det.IterP50 = exactQuantile(iters, 0.50)
	det.IterP95 = exactQuantile(iters, 0.95)
	det.IterP99 = exactQuantile(iters, 0.99)

	n := float64(len(samples))
	weights := DefaultWeights()
	if sc.Weights != nil {
		weights = *sc.Weights
	}
	fit := Fitness{
		SuccessRate:  float64(det.Converged) / n,
		TailScore:    1 / (1 + det.IterP99/100),
		Efficiency:   1 / (1 + float64(det.TotalIterations)/n/100),
		ErrorRate:    float64(det.Errors) / n,
		DegradedRate: float64(det.Degraded) / n,
		Weights:      weights,
	}
	score := scoreOf(fit)

	wallMS := float64(wall) / float64(time.Millisecond)
	meas := Measured{
		WallClockMS:    wallMS,
		LatencyP50MS:   lat.Quantile(0.50),
		LatencyP95MS:   lat.Quantile(0.95),
		LatencyP99MS:   lat.Quantile(0.99),
		QueueWaitP99MS: qw.Quantile(0.99),
		PeakRSSBytes:   obs.PeakRSS(),
	}
	if wallMS > 0 {
		meas.ThroughputRPS = n / (wallMS / 1000)
	}

	rep := &Report{
		Scenario:      sc.Name,
		Seed:          sc.Seed,
		Requests:      len(samples),
		Score:         score,
		Fitness:       fit,
		Deterministic: det,
		Measured:      meas,
	}
	rep.SLO = evalSLO(sc.SLO, rep)
	return rep
}

// scoreOf folds the fitness terms into the 0–100 composite: the weighted
// mean of the reward terms, minus weighted error/degradation penalties,
// clamped to [0, 100]. Every input is deterministic and the arithmetic is a
// fixed sequence of float64 operations, so equal runs score bit-identically.
func scoreOf(f Fitness) float64 {
	w := f.Weights
	rewardW := w.Success + w.Tail + w.Efficiency
	reward := 0.0
	if rewardW > 0 {
		reward = (w.Success*f.SuccessRate + w.Tail*f.TailScore + w.Efficiency*f.Efficiency) / rewardW
	}
	score := 100*reward - 100*(w.ErrorPenalty*f.ErrorRate+w.DegradedPenalty*f.DegradedRate)
	if score < 0 {
		score = 0
	}
	if score > 100 {
		score = 100
	}
	return score
}

// evalSLO materializes the scenario's objectives against the report.
func evalSLO(slo SLOSpec, rep *Report) []SLOCheck {
	var checks []SLOCheck
	if slo.MinScore > 0 {
		checks = append(checks, SLOCheck{
			Name: "min_score", Limit: slo.MinScore, Actual: rep.Score,
			Pass: rep.Score >= slo.MinScore,
		})
	}
	if slo.MaxErrorRate > 0 {
		checks = append(checks, SLOCheck{
			Name: "max_error_rate", Limit: slo.MaxErrorRate, Actual: rep.Fitness.ErrorRate,
			Pass: rep.Fitness.ErrorRate <= slo.MaxErrorRate,
		})
	}
	if slo.MaxDegradedRate > 0 {
		checks = append(checks, SLOCheck{
			Name: "max_degraded_rate", Limit: slo.MaxDegradedRate, Actual: rep.Fitness.DegradedRate,
			Pass: rep.Fitness.DegradedRate <= slo.MaxDegradedRate,
		})
	}
	if slo.MaxP99MS > 0 {
		checks = append(checks, SLOCheck{
			Name: "max_p99_ms", Limit: slo.MaxP99MS, Actual: rep.Measured.LatencyP99MS,
			Pass: rep.Measured.LatencyP99MS <= slo.MaxP99MS, Measured: true,
		})
	}
	return checks
}

// Summary renders the human one-screen view of a report.
func (r *Report) Summary() string {
	s := fmt.Sprintf("scenario %s (seed %d): %d requests, score %.4f\n",
		r.Scenario, r.Seed, r.Requests, r.Score)
	s += fmt.Sprintf("  deterministic: %d converged, %d errors, %d degraded, %d cache hits, %d iterations (p99 %.0f)\n",
		r.Deterministic.Converged, r.Deterministic.Errors, r.Deterministic.Degraded,
		r.Deterministic.CacheHits, r.Deterministic.TotalIterations, r.Deterministic.IterP99)
	s += fmt.Sprintf("  measured: %.0f ms wall, %.1f req/s, latency p50/p95/p99 %.2f/%.2f/%.2f ms\n",
		r.Measured.WallClockMS, r.Measured.ThroughputRPS,
		r.Measured.LatencyP50MS, r.Measured.LatencyP95MS, r.Measured.LatencyP99MS)
	for _, c := range r.SLO {
		verdict := "PASS"
		if !c.Pass {
			verdict = "FAIL"
		}
		note := ""
		if c.Measured {
			note = " (advisory)"
		}
		s += fmt.Sprintf("  slo %-18s %s: %.4f vs limit %.4f%s\n", c.Name, verdict, c.Actual, c.Limit, note)
	}
	return s
}
