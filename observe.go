package hcd

// The public surface of the unified observability layer (internal/obs):
// hierarchical tracing of solves and decomposition builds, a registry of
// atomic counters/gauges/histograms that every layer publishes into, and
// streaming per-iteration solve observers.
//
// Both instruments travel in a context.Context. Install them with
// WithTracer/WithMetricRegistry and pass the context to Do, DecomposeCtx or
// NewHierarchyCtx: the solver cores, the pipeline stages, the hierarchy
// builder, the resilient ladder, and the exact certifier all pick them up
// automatically. With neither installed the entire layer is inert — nil
// lookups and nil-receiver no-ops, zero allocations (the disabled path is
// asserted alloc-free by the obs tests, preserving the engine's zero-alloc
// warm-solve guarantee).
//
//	tr, reg := hcd.NewTracer(), hcd.NewMetricRegistry()
//	ctx := hcd.WithMetricRegistry(hcd.WithTracer(context.Background(), tr), reg)
//	resp, err := hcd.Do(ctx, g, hcd.SolveRequest{B: [][]float64{b}, Method: hcd.SolveMethodResilient})
//	tr.WriteChromeTrace(f)     // chrome://tracing / ui.perfetto.dev
//	reg.WritePrometheus(os.Stdout)

import (
	"context"

	"hcd/internal/obs"
)

// Tracer records a tree of timed spans (solve attempts, pipeline stages,
// hierarchy levels, resilient-ladder rungs) against one monotonic clock,
// exportable as Chrome trace_event JSON via WriteChromeTrace. Safe for
// concurrent use; nil means disabled.
type Tracer = obs.Tracer

// MetricRegistry is a named set of atomic counters, gauges and histograms
// with JSON and Prometheus text-exposition encoders (WriteJSON,
// WritePrometheus). Safe for concurrent use; nil means disabled.
type MetricRegistry = obs.Registry

// IterationObserver streams a solve's per-iteration residual norms as they
// happen; set one on SolveOptions.Observer. See StreamResiduals,
// HistogramResiduals, TraceResiduals and MultiObserver in this package's
// internal/obs for ready-made implementations re-exported below.
type IterationObserver = obs.IterationObserver

// ObserverFunc adapts a plain function to IterationObserver.
type ObserverFunc = obs.ObserverFunc

// NewTracer starts an empty trace clocked from the moment of the call.
func NewTracer() *Tracer { return obs.NewTracer() }

// NewMetricRegistry returns an empty metric registry.
func NewMetricRegistry() *MetricRegistry { return obs.NewRegistry() }

// WithTracer returns a context under which every instrumented layer records
// spans into t (nil t returns ctx unchanged).
func WithTracer(ctx context.Context, t *Tracer) context.Context {
	return obs.WithTracer(ctx, t)
}

// WithMetricRegistry returns a context under which every instrumented layer
// publishes its metrics into r (nil r returns ctx unchanged).
func WithMetricRegistry(ctx context.Context, r *MetricRegistry) context.Context {
	return obs.WithRegistry(ctx, r)
}
