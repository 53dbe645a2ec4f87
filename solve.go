package hcd

// The solve engine: context-aware entry points, reusable solve sessions,
// termination outcomes, and per-solve metrics. Every solve path (SolveCtx,
// SolvePCGCtx, Do, Engine.Solve / SolveBlock) is a call into the one PCG
// driver of internal/solver, which runs any number of right-hand sides at
// once — a single one is the width-1 block.
// Its level-1 kernels (dots, norms, the fused update and mean-projection
// sweeps) and the Laplacian matvec run across cores, with reductions summed
// over a fixed chunk partition so a solve is bit-identical at any worker
// count.

import (
	"context"

	"hcd/internal/graph"
	"hcd/internal/hierarchy"
	"hcd/internal/solver"
)

// Sentinel errors for the construction and solve paths. Callers should test
// with errors.Is instead of matching message strings.
var (
	// ErrDisconnected: the operation requires a connected graph
	// (e.g. SmallestEigenpairs).
	ErrDisconnected = graph.ErrDisconnected
	// ErrBadDimension: vertex counts, edge endpoints, or vector lengths
	// disagree with the graph/operator dimension (NewGraph, SolvePCGCtx,
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

// NewHierarchyEngine builds the batteries-included session: a multilevel
// Steiner preconditioner (the Remark 3 construction) plus a solve engine.
// This is the session form of SolveCtx; the hierarchy build polls ctx as
// NewHierarchyCtx does.
func NewHierarchyEngine(ctx context.Context, g *Graph, hopt HierarchyOptions, opt SolveOptions) (*Engine, error) {
	h, err := hierarchy.NewCtx(ctx, g, hopt)
	if err != nil {
		return nil, err
	}
	return solver.NewEngine(solver.LapOperator(g), h, opt)
}

// SolvePCGCtx solves the Laplacian system A·x = b with preconditioned
// conjugate gradients under a context: cancellation or deadline expiry stops
// the iteration within one iteration with OutcomeCancelled. Dimension mismatches return an error
// wrapping ErrBadDimension. A nil m runs plain CG (the PrecondNone spec). It
// is Do with one right-hand side.
func SolvePCGCtx(ctx context.Context, g *Graph, b []float64, m Preconditioner, opt SolveOptions) (SolveResult, error) {
	return single(Do(ctx, g, SolveRequest{B: [][]float64{b}, M: m, Precond: PrecondSpec{Kind: PrecondNone}, Options: opt}))
}

// SolveCtx is the batteries-included context-aware entry point: it builds a
// multilevel Steiner preconditioner and runs PCG to the default tolerance —
// Do with the zero-value PrecondSpec. For repeated solves on one graph build
// a NewHierarchyEngine instead, which amortizes both the preconditioner and
// the work buffers.
func SolveCtx(ctx context.Context, g *Graph, b []float64) (SolveResult, error) {
	return single(Do(ctx, g, SolveRequest{B: [][]float64{b}, Options: solver.DefaultOptions()}))
}

// single unpacks a one-right-hand-side Do call: its one result (zero when Do
// failed before attempting the column) and its error.
func single(resp *SolveResponse, err error) (SolveResult, error) {
	if len(resp.Results) == 0 {
		return SolveResult{}, err
	}
	return resp.Results[0], err
}
