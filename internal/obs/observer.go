package obs

import (
	"fmt"
	"io"
)

// IterationObserver receives the convergence history of an iterative solve
// as it happens: the solver's PCG driver invokes ObserveIteration after every
// iteration with the 1-based iteration number and the current residual norm.
// Observers run on the solve goroutine between iterations — keep them cheap,
// or hand off to a channel/writer with its own buffering.
//
// This is the streaming alternative to the post-hoc Result.Residuals copy:
// a long solve can be watched live (and its history histogrammed or traced)
// without waiting for, or allocating, the full residual slice downstream.
type IterationObserver interface {
	ObserveIteration(iter int, residual float64)
}

// ObserverFunc adapts a plain function to IterationObserver.
type ObserverFunc func(iter int, residual float64)

// ObserveIteration invokes the function.
func (f ObserverFunc) ObserveIteration(iter int, residual float64) { f(iter, residual) }

// StreamResiduals returns an observer that writes one "iter residual" line
// per iteration to w. Wrap w in a bufio.Writer for hot loops.
func StreamResiduals(w io.Writer) IterationObserver {
	return ObserverFunc(func(iter int, residual float64) {
		fmt.Fprintf(w, "%d %.6e\n", iter, residual)
	})
}

// HistogramResiduals returns an observer recording every residual norm into
// the named registry histogram (defaultResidualBuckets decade buckets). A
// nil registry yields a no-op observer.
func HistogramResiduals(r *Registry, name string) IterationObserver {
	h := r.Histogram(name, nil)
	return ObserverFunc(func(_ int, residual float64) { h.Observe(residual) })
}

// TraceResiduals returns an observer emitting the residual norm as a Chrome
// counter-event series into t, so the convergence curve renders under the
// solve's span tree. A nil tracer yields a no-op observer.
func TraceResiduals(t *Tracer, name string) IterationObserver {
	return ObserverFunc(func(_ int, residual float64) { t.Counter(name, residual) })
}

// MultiObserver fans one iteration stream out to several observers, in
// order. Nil entries are skipped.
func MultiObserver(obs ...IterationObserver) IterationObserver {
	flat := make([]IterationObserver, 0, len(obs))
	for _, o := range obs {
		if o != nil {
			flat = append(flat, o)
		}
	}
	return ObserverFunc(func(iter int, residual float64) {
		for _, o := range flat {
			o.ObserveIteration(iter, residual)
		}
	})
}
