package decomp

// The build path's stage runner: RunStage runs one named stage of a
// decomposition construction under a context, records it as a span (and as
// registry series when a registry travels in the context), and converts
// context cancellation into the ErrBuildCancelled sentinel so callers can
// test either errors.Is target.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
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

// StageInfo is what a stage function reports back about its output.
type StageInfo struct {
	Vertices, Edges int
}

// RunStage executes one named stage of a decomposition build under ctx. The
// stage is skipped (with an ErrBuildCancelled error) if the context is
// already done; a stage error that stems from cancellation is promoted to
// carry ErrBuildCancelled so every cancelled build surfaces the same sentinel
// regardless of which internal package noticed the context first.
//
// The stage's record is its build/<name> span, with the output's vertices
// and edges (and the error, if any) as args, and, when a registry travels in
// ctx, the hcd_build_stage_{runs,ns,allocs}_total{stage="<name>"} series. Both
// are written for failed stages too, so an aborted build still shows where
// the time went. The allocation count is a mallocs delta, so it includes
// allocations by concurrent goroutines.
//
// A panic inside the stage — including worker panics surfaced by
// internal/par — is recovered and returned as an error carrying the
// panicking goroutine's stack, so a build can fail but never crash the
// caller.
func RunStage(ctx context.Context, name string, fn func(ctx context.Context) (StageInfo, error)) error {
	if ctx.Err() != nil {
		return fmt.Errorf("decomp: stage %s skipped: %w", name, Cancelled(ctx))
	}
	if faultinject.Enabled() {
		if err := faultinject.Err(faultinject.StageFail); err != nil {
			return fmt.Errorf("decomp: stage %s: %w", name, err)
		}
	}
	// The registry's reads of the allocation count stay outside the span,
	// so a span times its stage alone. Certification counters are not
	// published here: they flow into the registry at their source, the
	// evaluate measurement loop.
	reg := obs.RegistryFrom(ctx)
	var mem [2]runtime.MemStats
	if reg != nil {
		runtime.ReadMemStats(&mem[0])
	}
	start := time.Now()
	err := runStage(ctx, name, fn)
	if reg != nil {
		dur := time.Since(start)
		runtime.ReadMemStats(&mem[1])
		reg.Counter(`hcd_build_stage_runs_total{stage="` + name + `"}`).Inc()
		reg.Counter(`hcd_build_stage_ns_total{stage="` + name + `"}`).Add(int64(dur))
		reg.Counter(`hcd_build_stage_allocs_total{stage="` + name + `"}`).Add(int64(mem[1].Mallocs - mem[0].Mallocs))
	}
	if err != nil {
		if cancellation(err) && !errors.Is(err, ErrBuildCancelled) {
			err = fmt.Errorf("%w: %w", ErrBuildCancelled, err)
		}
		return fmt.Errorf("decomp: stage %s: %w", name, err)
	}
	return nil
}

// runStage invokes one stage function under its build/<name> span, with
// panic containment. The span name is only materialized when a tracer is
// installed, so the disabled path performs no concatenation and no
// allocation.
func runStage(ctx context.Context, name string, fn func(ctx context.Context) (StageInfo, error)) (err error) {
	var info StageInfo
	var sp *obs.Span
	if obs.TracerFrom(ctx) != nil {
		ctx, sp = obs.StartSpan(ctx, "build/"+name)
	}
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("panic during stage: %w", par.AsError(v))
		}
		if sp != nil {
			sp.Arg("vertices", info.Vertices)
			sp.Arg("edges", info.Edges)
			if err != nil {
				sp.Arg("error", err.Error())
			}
			sp.End()
		}
	}()
	info, err = fn(ctx)
	return err
}

func cancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
