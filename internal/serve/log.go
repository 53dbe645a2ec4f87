package serve

// Structured request logging. When Config.Logger is set, every request that
// passes wrap emits exactly one slog record ("request") after the handler
// returns: route, method, path, status code, tenant, duration, and — when a
// tracer is installed — the trace/span IDs of the request's serve/* span, so
// a log line joins back to the span tree that recorded the same request.
// Handlers annotate the record with request-scoped facts (graph handle,
// solve outcome, batch width) through a mutable logFields carried in the
// request context.
//
// The disabled path is free: with a nil logger, wrap neither wraps the
// ResponseWriter nor installs logFields, logFieldsFrom returns nil, every
// logFields setter is a nil-safe no-op, and logRequest returns before
// building a single attribute — zero allocations, matching the obs layer's
// disabled-path guarantee (asserted by TestDisabledLoggingZeroAlloc).

import (
	"context"
	"log/slog"
	"net/http"
	"time"

	"hcd/internal/obs"
)

// logFields collects per-request annotations set by handlers and flushed
// into the access-log record by wrap. Only the request's handler goroutine
// writes it, so no locking.
type logFields struct {
	handle     string
	outcome    string
	rhs        int
	iterations int
	degraded   bool
	queueMS    int64
}

type logFieldsKey struct{}

// logFieldsFrom returns the request's log record, or nil when logging is
// disabled — callers use the nil-safe setters unconditionally.
func logFieldsFrom(ctx context.Context) *logFields {
	if ctx == nil {
		return nil
	}
	lf, _ := ctx.Value(logFieldsKey{}).(*logFields)
	return lf
}

func (lf *logFields) setHandle(id string) {
	if lf != nil {
		lf.handle = id
	}
}

// setSolve records the solve-shaped annotations in one call: aggregate
// outcome, right-hand-side count, total iterations, degraded flag, and
// admission queue wait.
func (lf *logFields) setSolve(outcome string, rhs, iterations int, degraded bool, queueMS int64) {
	if lf == nil {
		return
	}
	lf.outcome = outcome
	lf.rhs = rhs
	lf.iterations = iterations
	lf.degraded = degraded
	lf.queueMS = queueMS
}

func (lf *logFields) setOutcome(outcome string) {
	if lf != nil {
		lf.outcome = outcome
	}
}

// statusRecorder captures the response status code for the access log. Only
// installed when logging is enabled, so the disabled path never pays the
// wrapper allocation (at the cost of losing http.Flusher — none of the v1
// handlers stream).
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (sr *statusRecorder) WriteHeader(code int) {
	sr.code = code
	sr.ResponseWriter.WriteHeader(code)
}

// logRequest emits the single access-log record for one request. code is the
// captured status, lf the handler's annotations (nil when none were set —
// possible on early-exit paths), sp the request's serve/* span.
func (s *Server) logRequest(ctx context.Context, route string, r *http.Request, code int, dur time.Duration, lf *logFields) {
	if s.log == nil {
		return
	}
	level := slog.LevelInfo
	switch {
	case code >= 500:
		level = slog.LevelError
	case code >= 400:
		level = slog.LevelWarn
	}
	if !s.log.Enabled(ctx, level) {
		return
	}
	attrs := make([]slog.Attr, 0, 16)
	attrs = append(attrs,
		slog.String("route", route),
		slog.String("method", r.Method),
		slog.String("path", r.URL.Path),
		slog.Int("code", code),
		slog.String("tenant", tenant(r)),
		slog.Float64("dur_ms", float64(dur)/float64(time.Millisecond)),
	)
	if s.tr != nil {
		attrs = append(attrs,
			slog.Uint64("trace_id", s.tr.ID()),
			slog.Uint64("span_id", obs.SpanFrom(ctx).ID()),
		)
	}
	if lf != nil {
		if lf.handle != "" {
			attrs = append(attrs, slog.String("handle", lf.handle))
		}
		if lf.outcome != "" {
			attrs = append(attrs, slog.String("outcome", lf.outcome))
		}
		if lf.rhs > 0 {
			attrs = append(attrs,
				slog.Int("rhs", lf.rhs),
				slog.Int("iterations", lf.iterations),
				slog.Int64("queue_wait_ms", lf.queueMS),
			)
		}
		if lf.degraded {
			attrs = append(attrs, slog.Bool("degraded", true))
		}
	}
	s.log.LogAttrs(ctx, level, "request", attrs...)
}
