package decomp

// The build-path counterpart of internal/solver's outcome/metrics machinery:
// a Pipeline runs the named stages of a decomposition construction under a
// context, records per-stage wall time, problem sizes and scratch
// allocations into BuildMetrics, and converts context cancellation into the
// ErrBuildCancelled sentinel so callers can test either errors.Is target.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"time"

	"hcd/internal/faultinject"
	"hcd/internal/obs"
	"hcd/internal/par"
)

// ErrBuildCancelled reports that a decomposition build was stopped by its
// context. Errors carrying it also wrap the context's own error, so both
// errors.Is(err, ErrBuildCancelled) and errors.Is(err, context.Canceled)
// (or context.DeadlineExceeded) hold.
var ErrBuildCancelled = errors.New("decomp: build cancelled")

// Cancelled wraps the context's error in ErrBuildCancelled. Call it only
// after observing ctx.Err() != nil.
func Cancelled(ctx context.Context) error {
	return fmt.Errorf("%w: %w", ErrBuildCancelled, ctx.Err())
}

// pollMask bounds the cancellation-check interval of the tight build loops:
// ctx.Err() is consulted every pollMask+1 iterations.
const pollMask = 4095

// poll is the bounded-interval cancellation check for tight loops: it
// consults ctx.Err() once every pollMask+1 values of i and returns the
// ErrBuildCancelled-wrapped error when the context is done. The test on i is
// all that inlines into the loop; the consultation is a call.
func poll(ctx context.Context, i int) error {
	if i&pollMask != 0 {
		return nil
	}
	return pollNow(ctx)
}

// pollNow returns the ErrBuildCancelled-wrapped error of a done context.
func pollNow(ctx context.Context) error {
	if ctx.Err() != nil {
		return Cancelled(ctx)
	}
	return nil
}

// Canonical stage names shared by the pipeline builders and their tests.
const (
	StageBaseTree = "base-tree"      // spanning tree underlying the sparse subgraph
	StageSparsify = "sparsify"       // stretch-driven off-tree edge selection
	StageCoreCut  = "strip-cut-core" // degree-1/2 stripping + per-path lightest cut
	StageTree     = "tree-decompose" // Theorem 2.1 forest decomposition
	StageCluster  = "cluster"        // Section 3.1 fixed-degree clustering
	StageSpectral = "spectral-cut"   // recursive sweep-cut baseline
	StageRebind   = "rebind"         // read the partition over the original graph
	StageEvaluate = "evaluate"       // measure φ, ρ, γ of the result
)

// StageMetrics instruments one pipeline stage, mirroring solver.Metrics on
// the build side.
type StageMetrics struct {
	Name     string
	Duration time.Duration
	// Vertices and Edges describe the stage's output size (what the next
	// stage consumes).
	Vertices, Edges int
	// ScratchAllocs counts heap allocations performed while the stage ran
	// (a mallocs delta, so it includes allocations by concurrent goroutines;
	// on the single-threaded build path it is the stage's own scratch).
	ScratchAllocs int
}

// BuildMetrics aggregates the per-stage costs of one decomposition build.
type BuildMetrics struct {
	Stages    []StageMetrics
	TotalTime time.Duration
	// Cert counts the exact-certification work of the evaluate stage: cores
	// enumerated, boundary stubs collapsed into anchor volumes, core
	// side-assignments visited, and sweep-bound fallbacks.
	Cert CertStats
	// PeakHeapBytes is the largest Go heap (HeapAlloc) observed at a stage
	// boundary during the build — an in-process view of the build's memory
	// high-water mark.
	PeakHeapBytes uint64
	// PeakRSSBytes is the process's resident-set high-water mark (VmHWM) as
	// of the end of the build, or 0 where the platform does not expose it.
	// Unlike PeakHeapBytes it covers the whole process lifetime, not just
	// this build.
	PeakRSSBytes int64
}

// String renders one line per the -metrics CLI convention:
// "base-tree=1.2ms (v=4096 e=4095 allocs=12) | ... | total=5.4ms".
func (m BuildMetrics) String() string {
	var b strings.Builder
	for _, s := range m.Stages {
		fmt.Fprintf(&b, "%s=%v (v=%d e=%d allocs=%d) | ",
			s.Name, s.Duration.Round(time.Microsecond), s.Vertices, s.Edges, s.ScratchAllocs)
	}
	if m.Cert != (CertStats{}) {
		fmt.Fprintf(&b, "cert(cores=%d stubs=%d subsets=%d bounds=%d) | ",
			m.Cert.Cores, m.Cert.Stubs, m.Cert.Subsets, m.Cert.Bounds)
	}
	if m.PeakHeapBytes > 0 {
		fmt.Fprintf(&b, "peak(heap=%dB rss=%dB) | ", m.PeakHeapBytes, m.PeakRSSBytes)
	}
	fmt.Fprintf(&b, "total=%v", m.TotalTime.Round(time.Microsecond))
	return b.String()
}

// StageInfo is what a stage function reports back about its output.
type StageInfo struct {
	Vertices, Edges int
}

// Pipeline runs the named stages of a decomposition build under one context,
// accumulating BuildMetrics. Zero value is not usable; construct with
// NewPipeline.
type Pipeline struct {
	ctx     context.Context
	start   time.Time
	Metrics BuildMetrics
}

// NewPipeline starts a build under ctx (nil means context.Background()).
func NewPipeline(ctx context.Context) *Pipeline {
	if ctx == nil {
		ctx = context.Background()
	}
	return &Pipeline{ctx: ctx, start: time.Now()}
}

// Run executes one named stage. The stage is skipped (with an
// ErrBuildCancelled error) if the context is already done; a stage error that
// stems from cancellation is promoted to carry ErrBuildCancelled so every
// cancelled build surfaces the same sentinel regardless of which internal
// package noticed the context first. Metrics are recorded even for failed
// stages, so a cancelled build still reports where the time went.
//
// A panic inside the stage — including worker panics surfaced by
// internal/par — is recovered and returned as an error carrying the
// panicking goroutine's stack, so a build can fail but never crash the
// caller.
func (p *Pipeline) Run(name string, fn func(ctx context.Context) (StageInfo, error)) error {
	if p.ctx.Err() != nil {
		return fmt.Errorf("decomp: stage %s skipped: %w", name, Cancelled(p.ctx))
	}
	if faultinject.Enabled() {
		if err := faultinject.Err(faultinject.StageFail); err != nil {
			return fmt.Errorf("decomp: stage %s: %w", name, err)
		}
	}
	// The span name is only materialized when a tracer is installed, so the
	// disabled path performs no concatenation and no allocation.
	sctx := p.ctx
	var sp *obs.Span
	if obs.TracerFrom(p.ctx) != nil {
		sctx, sp = obs.StartSpan(p.ctx, "build/"+name)
	}
	defer sp.End()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	info, err := runStage(sctx, fn)
	dur := time.Since(start)
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	p.Metrics.Stages = append(p.Metrics.Stages, StageMetrics{
		Name:          name,
		Duration:      dur,
		Vertices:      info.Vertices,
		Edges:         info.Edges,
		ScratchAllocs: int(after.Mallocs - before.Mallocs),
	})
	if after.HeapAlloc > p.Metrics.PeakHeapBytes {
		p.Metrics.PeakHeapBytes = after.HeapAlloc
	}
	if before.HeapAlloc > p.Metrics.PeakHeapBytes {
		p.Metrics.PeakHeapBytes = before.HeapAlloc
	}
	p.Metrics.PeakRSSBytes = obs.PeakRSS()
	p.Metrics.TotalTime = time.Since(p.start)
	if sp != nil {
		sp.Arg("vertices", info.Vertices)
		sp.Arg("edges", info.Edges)
		if err != nil {
			sp.Arg("error", err.Error())
		}
	}
	if err != nil {
		if cancellation(err) && !errors.Is(err, ErrBuildCancelled) {
			err = fmt.Errorf("%w: %w", ErrBuildCancelled, err)
		}
		return fmt.Errorf("decomp: stage %s: %w", name, err)
	}
	return nil
}

// runStage invokes one stage function with panic containment.
func runStage(ctx context.Context, fn func(ctx context.Context) (StageInfo, error)) (info StageInfo, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("panic during stage: %w", par.AsError(v))
		}
	}()
	return fn(ctx)
}

func cancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
