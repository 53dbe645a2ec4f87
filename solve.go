package hcd

// The solve engine's public types: sentinel errors, termination outcomes,
// per-solve metrics and the Engine session. Do (do.go) is the one solve call;
// it and Engine.Solve / SolveBlock run the one PCG driver of internal/solver,
// which iterates any number of right-hand sides at once — a single one is the
// width-1 block.
// Its level-1 kernels (dots, norms, the fused update and mean-projection
// sweeps) and the Laplacian matvec run across cores, with reductions summed
// over a fixed chunk partition so a solve is bit-identical at any worker
// count.

import (
	"context"

	"hcd/internal/graph"
	"hcd/internal/solver"
)

// Sentinel errors for the construction and solve paths. Callers should test
// with errors.Is instead of matching message strings.
var (
	// ErrDisconnected: the operation requires a connected graph
	// (e.g. SmallestEigenpairs).
	ErrDisconnected = graph.ErrDisconnected
	// ErrBadDimension: vertex counts, edge endpoints, or vector lengths
	// disagree with the graph/operator dimension (NewGraph, Do,
	// engine construction).
	ErrBadDimension = graph.ErrBadDimension
	// ErrNotConverged: an iterative solve exhausted its budget before
	// reaching tolerance.
	ErrNotConverged = solver.ErrNotConverged
	// ErrEngineBusy: two solves overlapped on one Engine, which is not
	// concurrency-safe; the second call fails instead of corrupting the
	// shared work buffers.
	ErrEngineBusy = solver.ErrEngineBusy
	// ErrInvalidInput: a caller-reachable precondition was violated
	// (out-of-range or duplicate vertices, a graph too large for exact
	// conductance enumeration, malformed input files).
	ErrInvalidInput = graph.ErrInvalidInput
)

// SolveOutcome classifies how a solve terminated: converged, iteration
// budget exhausted, cancelled via context, numerical breakdown, or
// divergence.
type SolveOutcome = solver.Outcome

// Solve outcomes.
const (
	OutcomeUnknown   = solver.OutcomeUnknown
	OutcomeConverged = solver.OutcomeConverged
	OutcomeMaxIter   = solver.OutcomeMaxIter
	OutcomeCancelled = solver.OutcomeCancelled
	OutcomeBreakdown = solver.OutcomeBreakdown
	OutcomeDiverged  = solver.OutcomeDiverged
)

// SolveMetrics instruments one solve: matvec and preconditioner-apply
// counts, iteration count, wall time per phase, scratch allocations, and the
// final residual. Every SolveResult carries one.
type SolveMetrics = solver.Metrics

// Engine is a reusable solve session over one graph: it owns the Laplacian
// operator, a preconditioner, and pooled work buffers, so repeated solves
// (batched right-hand sides) allocate nothing after the first. Results alias
// engine buffers until the next call; an Engine is not safe for concurrent
// use — run one Engine per goroutine.
type Engine = solver.Engine

// NewEngine builds a solve session for g with the given preconditioner
// (nil means unpreconditioned CG) and default options.
func NewEngine(g *Graph, m Preconditioner, opt SolveOptions) (*Engine, error) {
	return solver.NewEngine(solver.LapOperator(g), m, opt)
}

// SolvePCGCtx is Do with one right-hand side, the prebuilt preconditioner m
// (nil runs plain CG) and opt. It is kept only for the benchmark harness,
// which calls it; every other caller uses Do.
func SolvePCGCtx(ctx context.Context, g *Graph, b []float64, m Preconditioner, opt SolveOptions) (SolveResult, error) {
	resp, err := Do(ctx, g, SolveRequest{B: [][]float64{b}, M: m, Precond: PrecondSpec{Kind: PrecondNone}, Options: opt})
	if len(resp.Results) == 0 {
		return SolveResult{}, err
	}
	return resp.Results[0], err
}
