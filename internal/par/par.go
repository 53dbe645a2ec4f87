// Package par provides the parallel primitive used by the "linear work,
// O(log n) parallel time" constructions of the paper: a chunk-stealing
// parallel for. Parallelism defaults to runtime.GOMAXPROCS(0) and degrades
// gracefully to sequential execution for small inputs.
//
// # Panic safety
//
// A panic on a bare goroutine kills the whole process: no caller can recover
// it. The primitives here therefore never let a worker panic escape on a
// worker goroutine. Each worker recovers panics, the first one cancels the
// sibling workers (they stop claiming chunks at the next claim), and after
// the join the pool re-raises a single aggregate *PanicError — carrying the
// first worker's message and stack plus the number of workers that panicked
// — on the CALLING goroutine, where ordinary recover() works. Top-level
// entry points (the solver cores, the decomposition pipeline) convert that
// panic into a returned error via AsError.
package par

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"hcd/internal/faultinject"
)

// DefaultGrain is the minimum chunk size handed to a worker when the caller
// does not specify one; it keeps scheduling overhead negligible relative to
// per-element work.
const DefaultGrain = 4096

// Workers returns the degree of parallelism used by this package.
func Workers() int { return runtime.GOMAXPROCS(0) }

// PanicError is a panic recovered from a parallel worker, re-raised (or
// returned, via AsError) on the caller's goroutine. Value and Stack come
// from the first worker that panicked; Workers counts how many panicked
// before the pool drained.
type PanicError struct {
	Value   interface{} // the recovered panic value
	Stack   []byte      // stack of the first panicking worker
	Workers int         // number of workers that panicked (≥ 1)
}

// Error renders the first panic value; the stack is carried separately so
// logs can choose whether to print it.
func (e *PanicError) Error() string {
	if e.Workers > 1 {
		return fmt.Sprintf("par: %d workers panicked, first: %v", e.Workers, e.Value)
	}
	return fmt.Sprintf("par: worker panicked: %v", e.Value)
}

// Unwrap exposes a panic value that was itself an error to errors.Is/As.
func (e *PanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// AsError converts a recovered panic value into an error: a *PanicError
// passes through, anything else (a panic raised on the caller's own
// goroutine, e.g. by the sequential short-circuit paths) is wrapped with
// the current stack. Returns nil for nil. The idiom for a panic-safe entry
// point is:
//
//	defer func() {
//	    if v := recover(); v != nil { err = par.AsError(v) }
//	}()
func AsError(v interface{}) error {
	if v == nil {
		return nil
	}
	if pe, ok := v.(*PanicError); ok {
		return pe
	}
	return &PanicError{Value: v, Stack: debug.Stack(), Workers: 1}
}

// trap collects panics from a pool of workers. The first panic flips stop
// (checked by the chunk-claim loops, so siblings wind down at their next
// claim) and records its value and stack; rethrow re-raises the aggregate
// on the caller's goroutine after the join.
type trap struct {
	stop  atomic.Bool
	mu    sync.Mutex
	first *PanicError
	count int
}

// catch must be deferred first thing in every worker goroutine.
func (t *trap) catch() {
	v := recover()
	if v == nil {
		return
	}
	t.stop.Store(true)
	t.mu.Lock()
	t.count++
	if t.first == nil {
		t.first = &PanicError{Value: v, Stack: debug.Stack()}
	}
	t.mu.Unlock()
}

// rethrow re-raises the aggregate panic, if any, after all workers joined.
func (t *trap) rethrow() {
	if t.first != nil {
		t.first.Workers = t.count
		panic(t.first)
	}
}

// For runs fn over the chunked range [0, n) in parallel. Chunks have size
// grain (DefaultGrain if grain <= 0) and are claimed with an atomic counter,
// so uneven chunks balance automatically. fn must be safe to call
// concurrently on disjoint ranges. For n <= grain the call is sequential.
//
// A panic inside fn cancels the remaining chunks and re-raises as a single
// *PanicError on the calling goroutine (see the package comment).
func For(n, grain int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if grain <= 0 {
		grain = DefaultGrain
	}
	workers := Workers()
	if n <= grain || workers == 1 {
		fn(0, n)
		return
	}
	forWorkers(n, grain, workers, fn)
}

// forWorkers is For's parallel path. It is a function of its own so that the
// variables its goroutines share are allocated only when it runs: one the
// workers captured in For itself would be allocated on every call, the
// sequential ones included.
func forWorkers(n, grain, workers int, fn func(lo, hi int)) {
	chunks := (n + grain - 1) / grain
	if workers > chunks {
		workers = chunks
	}
	var t trap
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			defer t.catch()
			for !t.stop.Load() {
				c := int(next.Add(1)) - 1
				if c >= chunks {
					return
				}
				if faultinject.Enabled() && faultinject.Fire(faultinject.WorkerPanic) {
					panic(fmt.Errorf("%w: %s", faultinject.ErrInjected, faultinject.WorkerPanic))
				}
				lo := c * grain
				hi := lo + grain
				if hi > n {
					hi = n
				}
				fn(lo, hi)
			}
		}()
	}
	wg.Wait()
	t.rethrow()
}
