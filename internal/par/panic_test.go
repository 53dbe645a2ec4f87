package par

import (
	"bytes"
	"errors"
	"sync/atomic"
	"testing"

	"hcd/internal/faultinject"
)

// catchPanic runs fn and returns the error form of whatever it panicked
// with (nil if it returned normally).
func catchPanic(fn func()) (err error) {
	defer func() { err = AsError(recover()) }()
	fn()
	return nil
}

func TestForWorkerPanicSurfacesOnCaller(t *testing.T) {
	forceParallel(t)
	sentinel := errors.New("boom")
	err := catchPanic(func() {
		For(100000, 1000, Func(func(lo, hi int) {
			if lo == 5000 {
				panic(sentinel)
			}
		}))
	})
	if err == nil {
		t.Fatal("worker panic did not propagate to the caller")
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("got %T, want *PanicError", err)
	}
	if !errors.Is(err, sentinel) {
		t.Fatalf("PanicError does not unwrap to the panic value: %v", err)
	}
	if len(pe.Stack) == 0 || !bytes.Contains(pe.Stack, []byte("par.")) {
		t.Fatalf("PanicError carries no worker stack: %q", pe.Stack)
	}
	if pe.Workers < 1 {
		t.Fatalf("Workers = %d, want ≥ 1", pe.Workers)
	}
}

func TestForPanicCancelsSiblings(t *testing.T) {
	forceParallel(t)
	var done atomic.Int64
	const chunks = 1000
	err := catchPanic(func() {
		For(chunks, 1, Func(func(lo, hi int) {
			if lo == 0 {
				panic("first chunk dies")
			}
			done.Add(1)
		}))
	})
	if err == nil {
		t.Fatal("panic did not propagate")
	}
	// The stop flag is checked at every chunk claim, so the pool must wind
	// down well before draining all chunks. Allow generous slack for chunks
	// already claimed when the panic hit.
	if n := done.Load(); n >= chunks-1 {
		t.Fatalf("%d/%d chunks ran after a panic; siblings were not cancelled", n, chunks)
	}
}

func TestSequentialPanicStillCatchable(t *testing.T) {
	// The sequential short-circuit (n <= grain) panics on the caller's own
	// goroutine; AsError must still wrap it.
	err := catchPanic(func() {
		For(10, 100, Func(func(lo, hi int) { panic("serial") }))
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("got %v, want *PanicError", err)
	}
}

func TestAsErrorNil(t *testing.T) {
	if AsError(nil) != nil {
		t.Fatal("AsError(nil) != nil")
	}
}

func TestInjectedWorkerPanic(t *testing.T) {
	forceParallel(t)
	restore := faultinject.Activate(map[string]faultinject.Spec{
		faultinject.WorkerPanic: {OnHit: 3, Count: 1},
	})
	defer restore()
	err := catchPanic(func() {
		For(100000, 1000, Func(func(lo, hi int) {}))
	})
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("injected worker panic surfaced as %v, want ErrInjected", err)
	}
	if pe := (*PanicError)(nil); !errors.As(err, &pe) || len(pe.Stack) == 0 {
		t.Fatalf("injected worker panic surfaced as %T without the worker's stack", err)
	}
	// With the fault window exhausted the same loop must run clean.
	if err := catchPanic(func() { For(100000, 1000, Func(func(lo, hi int) {})) }); err != nil {
		t.Fatalf("loop after fault window: %v", err)
	}
}
