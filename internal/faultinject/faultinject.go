// Package faultinject provides deterministic fault points for exercising
// the library's recovery paths: NaN injection into a solver matvec,
// forced PCG breakdown, panics inside parallel workers, pipeline-stage
// failures, and corruption of the randomized clustering perturbation.
//
// The package is a no-op by default. Every instrumented call site guards
// its hook with Enabled() — a single atomic load that branch-predicts
// perfectly false in production — so the instrumented hot paths pay no
// measurable cost when no fault plan is active.
//
// Faults are deterministic, not random: each point counts its hits with an
// atomic counter and fires on a configured, reproducible window of hit
// indices (Spec.OnHit/Count). A test that activates
//
//	restore := faultinject.Activate(map[string]faultinject.Spec{
//	    faultinject.MatvecNaN: {OnHit: 5, Count: 1},
//	})
//	defer restore()
//
// corrupts exactly the 5th matvec of the process from that moment on —
// the same matvec on every run — which is what lets the recovery branches
// be asserted by ordinary unit tests.
package faultinject

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Fault point names. Each names one instrumented site; the site documents
// what a fire does there.
const (
	// MatvecNaN overwrites entry 0 of a solver matvec result with NaN — the
	// A·p of internal/solver's PCG driver, where entry 0 belongs to the first
	// active column — modeling a corrupted operator apply. The solver's NaN guard must classify the
	// solve as OutcomeBreakdown instead of iterating on garbage.
	MatvecNaN = "solver/matvec-nan"

	// ForceBreakdown makes the PCG curvature pᵀAp appear negative for one
	// iteration, forcing the historical OutcomeBreakdown exit.
	ForceBreakdown = "solver/force-breakdown"

	// WorkerPanic panics inside an internal/par worker goroutine. The pool
	// must recover it, cancel the sibling workers, and surface a
	// *par.PanicError on the caller's goroutine instead of crashing the
	// process.
	WorkerPanic = "par/worker-panic"

	// StageFail fails a decomposition build stage (internal/decomp
	// RunStage) with an ErrInjected-wrapped error. Hit j = the j-th stage
	// executed since activation.
	StageFail = "decomp/stage-fail"

	// PerturbCorrupt degenerates the Section 3.1 fixed-degree clustering:
	// the perturbed heaviest-edge selection is discarded, so every vertex
	// becomes a singleton and the clustering achieves no reduction —
	// the failure mode a re-seeded rebuild must recover from.
	PerturbCorrupt = "decomp/perturb-corrupt"

	// SnapshotWrite fails a gio snapshot encode (graph or hierarchy),
	// modeling a full disk or I/O error during hierarchy persistence. The
	// serving layer must keep the in-memory handle alive and count the
	// failure instead of crashing or poisoning the handle.
	SnapshotWrite = "gio/snapshot-write"

	// SnapshotRead fails a gio snapshot decode, modeling on-disk corruption
	// beyond what a flipped payload byte exercises. The serving layer must
	// quarantine the snapshot and fall back to a rebuild.
	SnapshotRead = "gio/snapshot-read"

	// BuildFail fails a serve-layer hierarchy build (internal/serve
	// store.build) before construction starts. Consecutive firings drive a
	// handle's circuit breaker into the degraded state.
	BuildFail = "serve/build-fail"

	// SolveDelay stalls a serve-layer solve request just before the solver
	// runs, for the configured Spec.Delay. Used with DelayOnly it injects
	// pure latency — the tool for exercising deadline budgets (504s) and
	// client-cancellation paths without slowing the solver itself.
	SolveDelay = "serve/solve-delay"
)

// ErrInjected is the sentinel wrapped by every error manufactured by an
// injected fault, so tests can tell injected failures from organic ones.
var ErrInjected = errors.New("faultinject: injected fault")

// Spec configures when a fault point fires, in terms of the point's hit
// counter (each call to Fire on the point is one hit, starting at 1).
type Spec struct {
	// OnHit is the first hit index that fires (default 1: fire immediately).
	OnHit int
	// Count is the number of consecutive hits that fire starting at OnHit;
	// 0 means every hit from OnHit on.
	Count int
	// Delay, when positive, makes a firing hit sleep for this duration on
	// the goroutine that hit the point — deterministic latency injection.
	// The fault itself still fires afterwards unless DelayOnly is set.
	Delay time.Duration
	// DelayOnly suppresses the fault behavior of a firing hit: the hit
	// sleeps for Delay (and notifies the observer) but Fire reports false
	// and Err returns nil. Pure latency, no error.
	DelayOnly bool
}

type point struct {
	spec Spec
	hits atomic.Int64
}

type plan struct {
	points map[string]*point
}

var (
	enabled atomic.Bool
	mu      sync.Mutex
	active  atomic.Pointer[plan]

	// observer, when set, is invoked with the point name every time a fault
	// actually fires — the hook the observability layer uses to drop an
	// instant event into the active trace at the exact moment of injection.
	observer atomic.Pointer[observerFunc]
)

type observerFunc struct{ fn func(point string) }

// SetObserver installs fn to be called (on the goroutine that hit the fault
// point) whenever a fault fires; nil removes it. Only one observer is held;
// the caller is responsible for keeping fn cheap and concurrency-safe.
func SetObserver(fn func(point string)) {
	if fn == nil {
		observer.Store(nil)
		return
	}
	observer.Store(&observerFunc{fn: fn})
}

// Enabled reports whether a fault plan is active. Instrumented call sites
// use it as the zero-cost production guard:
//
//	if faultinject.Enabled() && faultinject.Fire(faultinject.MatvecNaN) { ... }
func Enabled() bool { return enabled.Load() }

// Activate installs a fault plan and returns the function that removes it.
// Only one plan may be active at a time; activating over a live plan
// panics, because overlapping plans would make hit counts meaningless.
// Tests must call the returned restore (typically via defer).
func Activate(specs map[string]Spec) (restore func()) {
	mu.Lock()
	defer mu.Unlock()
	if active.Load() != nil {
		panic("faultinject: a fault plan is already active")
	}
	p := &plan{points: make(map[string]*point, len(specs))}
	for name, spec := range specs {
		if spec.OnHit <= 0 {
			spec.OnHit = 1
		}
		if spec.Count < 0 {
			spec.Count = 0
		}
		p.points[name] = &point{spec: spec}
	}
	active.Store(p)
	enabled.Store(true)
	return func() {
		mu.Lock()
		defer mu.Unlock()
		enabled.Store(false)
		active.Store(nil)
	}
}

// Fire registers one hit on the named point and reports whether the fault
// fires on this hit. With no active plan, or no spec for the point, it
// reports false without counting. A firing hit with a Delay sleeps first;
// a DelayOnly spec sleeps and notifies the observer but reports false —
// latency without a fault.
func Fire(name string) bool {
	p := active.Load()
	if p == nil {
		return false
	}
	pt := p.points[name]
	if pt == nil {
		return false
	}
	h := pt.hits.Add(1)
	if h < int64(pt.spec.OnHit) {
		return false
	}
	if pt.spec.Count > 0 && h >= int64(pt.spec.OnHit+pt.spec.Count) {
		return false
	}
	if pt.spec.Delay > 0 {
		time.Sleep(pt.spec.Delay)
	}
	if o := observer.Load(); o != nil {
		o.fn(name)
	}
	return !pt.spec.DelayOnly
}

// Err is the error-shaped form of Fire: it returns an ErrInjected-wrapped
// error naming the point when the fault fires, nil otherwise.
func Err(name string) error {
	if Fire(name) {
		return fmt.Errorf("%w: %s", ErrInjected, name)
	}
	return nil
}

// Hits reports how many times the named point has been hit under the
// current plan (0 with no plan or an untracked point). For test assertions.
func Hits(name string) int {
	p := active.Load()
	if p == nil {
		return 0
	}
	pt := p.points[name]
	if pt == nil {
		return 0
	}
	return int(pt.hits.Load())
}
