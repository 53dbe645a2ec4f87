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
// goroutine, e.g. on For's sequential path) is wrapped with
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

// A Ranger is the body of a parallel loop: Range(lo, hi) does the work of
// indices [lo, hi). A sweep is a value holding its operands, so For can run
// it on the calling goroutine without building a closure.
type Ranger interface{ Range(lo, hi int) }

// Func adapts a closure to a Ranger, for loops that run once per build, where
// the closure's allocation does not matter.
type Func func(lo, hi int)

// Range calls f(lo, hi).
func (f Func) Range(lo, hi int) { f(lo, hi) }

// For runs body over the chunked range [0, n) in parallel. Chunks have size
// grain (≥ 1) and are claimed with an atomic counter, so uneven chunks
// balance automatically. body must be safe to run concurrently on disjoint
// ranges. For n <= grain, and on one worker, the call is body.Range(0, n) on
// the calling goroutine, and allocates nothing: body is copied to the heap
// only on the parallel path.
//
// A panic inside body cancels the remaining chunks and re-raises as a single
// *PanicError on the calling goroutine (see the package comment).
func For[R Ranger](n, grain int, body R) {
	if n <= 0 {
		return
	}
	workers := runtime.GOMAXPROCS(0)
	if n <= grain || workers == 1 {
		body.Range(0, n)
		return
	}
	forWorkers(n, grain, workers, body)
}

// forWorkers is For's parallel path. It is a function of its own so that body
// and the variables its goroutines share are allocated only when it runs: one
// the workers captured in For itself would be allocated on every call, the
// sequential ones included.
func forWorkers(n, grain, workers int, body Ranger) {
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
				body.Range(lo, min(lo+grain, n))
			}
		}()
	}
	wg.Wait()
	t.rethrow()
}
