package serve

// Metric names of the serve_* family. Everything the server counts goes
// through these helpers so the names stay greppable in one place and tenant
// strings are sanitized before they become label values.

import (
	"strings"
	"time"

	"hcd/internal/obs"
)

// Metric names (label-free forms; labelled series append {k="v"} suffixes).
const (
	metricRequests     = "serve_requests_total"      // {route,code}
	metricRequestTime  = "serve_request_seconds"     // {route}
	metricCacheHits    = "serve_handle_cache_hits"   // solve found a ready hierarchy
	metricCacheMisses  = "serve_handle_cache_misses" // solve had to wait for a build
	metricBuilds       = "serve_builds_total"        // {outcome}
	metricBuildTime    = "serve_build_seconds"
	metricHandles      = "serve_handles"      // gauge: live handles
	metricHandleBytes  = "serve_handle_bytes" // gauge: graph+hierarchy budget in use
	metricEvictions    = "serve_evictions_total"
	metricSolves       = "serve_solves_total" // {outcome}
	metricSolveTime    = "serve_solve_seconds"
	metricAdmitted     = "serve_admitted_total"  // {tenant}
	metricThrottled    = "serve_throttled_total" // {tenant}
	metricQueueWait    = "serve_queue_wait_seconds"
	metricEnginesLive  = "serve_engines"      // gauge: engines built across pools
	metricEnginesBusy  = "serve_engines_busy" // gauge: engines checked out right now
	metricInflight     = "serve_inflight"     // gauge: requests being served
	metricDrainRefused = "serve_drain_refused_total"

	// Durability and degradation (PR 8).
	metricRestoreHandles   = "serve_restore_handles_total" // handles re-registered from the manifest
	metricRestoreOK        = "serve_restore_ok_total"      // lazy hydrations that verified clean
	metricRestoreCorrupt   = "serve_restore_corrupt_total" // quarantined snapshots (partial or total)
	metricSnapshotWrites   = "serve_snapshot_writes_total" // {outcome}
	metricDegradedSolves   = "serve_degraded_solves_total" // solves served by the Jacobi-PCG rung
	metricBreakerOpen      = "serve_breaker_open_total"    // handles tripped into degraded
	metricDeadlineExceeded = "serve_deadline_exceeded_total"

	// What this process runs (PR 25, 28): constant 1, the facts are the labels.
	metricBuildInfo = "hcd_build_info" // {goarch,kernel}
)

var durationBuckets = []float64{
	0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 10, 60,
}

// counter is a nil-safe labelled-counter increment.
func counter(reg *obs.Registry, name string) {
	if reg != nil {
		reg.Counter(name).Inc()
	}
}

// observe is a nil-safe duration observation in seconds.
func observe(reg *obs.Registry, name string, d time.Duration) {
	if reg != nil {
		reg.Histogram(name, durationBuckets).Observe(d.Seconds())
	}
}

// gaugeAdd shifts a gauge by delta, reading through Value (the registry's
// gauges are set-only); callers serialize through their own locks.
func gaugeAdd(reg *obs.Registry, name string, delta float64) {
	if reg != nil {
		g := reg.Gauge(name)
		g.Set(g.Value() + delta)
	}
}

func gaugeSet(reg *obs.Registry, name string, v float64) {
	if reg != nil {
		reg.Gauge(name).Set(v)
	}
}

// safeLabel sanitizes a caller-supplied string (tenant names arrive in an
// HTTP header) into a metric label value: letters, digits, '_', '-', '.'
// pass through, everything else becomes '_', and the result is capped at 64
// bytes so a hostile header cannot balloon the registry.
func safeLabel(s string) string {
	if s == "" {
		return "default"
	}
	var b strings.Builder
	for _, r := range s {
		if b.Len() >= 64 {
			break
		}
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_', r == '-', r == '.':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}
