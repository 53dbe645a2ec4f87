package hcd

// The solve engine: context-aware entry points, reusable solve sessions,
// termination outcomes, and per-solve metrics. Every PCG path (SolveCtx,
// SolvePCGCtx, Do, Engine.Solve / SolveWith / SolveBlock) is a call into the
// one PCG driver of internal/solver, which iterates any number of right-hand
// sides at once — a single one is the width-1 block — and every Chebyshev path
// into its one Chebyshev loop. Their level-1 kernels (dot, norm, axpy, mean
// projection) and the Laplacian matvec run across cores, with reductions
// summed over a fixed chunk partition so a solve is bit-identical at any
// worker count.

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
// budget exhausted, cancelled via context, or numerical breakdown.
type SolveOutcome = solver.Outcome

// Solve outcomes.
const (
	OutcomeUnknown   = solver.OutcomeUnknown
	OutcomeConverged = solver.OutcomeConverged
	OutcomeMaxIter   = solver.OutcomeMaxIter
	OutcomeCancelled = solver.OutcomeCancelled
	OutcomeBreakdown = solver.OutcomeBreakdown
	OutcomeDiverged  = solver.OutcomeDiverged
	OutcomeStagnated = solver.OutcomeStagnated
)

// RecoveryPolicy configures restart-on-breakdown for a solve: after a
// recoverable failure (breakdown, divergence, stagnation) the iteration
// restarts from its current iterate up to MaxRestarts times, waiting
// Backoff (doubling per restart) in between. The zero value disables
// restarts. Set it via SolveOptions.Recovery.
type RecoveryPolicy = solver.RecoveryPolicy

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
// the iteration within one check interval (opt.CheckEvery, default 8
// iterations) with OutcomeCancelled. Dimension mismatches return an error
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

// ChebyshevOptions configures SolveChebyshevCtx: the bootstrap PCG probe
// that estimates the spectrum of M⁻¹A, the Ritz-bracket widening applied to
// the estimate (Ritz values sit strictly inside the true spectrum), and the
// Chebyshev iteration itself.
type ChebyshevOptions struct {
	Iters      int     // Chebyshev iteration count (required > 0)
	ProbeIters int     // PCG probe depth for the spectrum estimate (default 40)
	WidenLow   float64 // multiplier on the λmin estimate (default 0.8)
	WidenHigh  float64 // multiplier on the λmax estimate (default 1.2)
	Tol        float64 // optional early-exit tolerance (0 = run all Iters)
	// Observer, when non-nil, receives the Chebyshev iteration's residual
	// norms as they are computed (the bootstrap probe is not streamed).
	Observer IterationObserver
}

// DefaultChebyshevOptions returns the historical settings: a 40-iteration
// probe and the 0.8/1.2 bracket widening.
func DefaultChebyshevOptions(iters int) ChebyshevOptions {
	return ChebyshevOptions{Iters: iters, ProbeIters: 40, WidenLow: 0.8, WidenHigh: 1.2}
}

// ChebyshevResult is a SolveResult plus the spectrum estimate the iteration
// was bootstrapped from.
type ChebyshevResult struct {
	SolveResult
	// Lmin, Lmax are the probe's Ritz estimates of the extreme eigenvalues
	// of M⁻¹A, before widening. The iteration used
	// [WidenLow·Lmin, WidenHigh·Lmax].
	Lmin, Lmax float64
	// ProbeMetrics instruments the bootstrap PCG probe; the embedded
	// SolveResult.Metrics covers the Chebyshev iteration itself.
	ProbeMetrics SolveMetrics
}

// SolveChebyshevCtx solves A·x = b by Chebyshev iteration — the
// inner-product-free companion of the parallel preconditioners (no
// reductions across workers per step). It bootstraps eigenvalue bounds for
// M⁻¹A from a short PCG probe, widens the Ritz bracket per opt, and
// iterates under ctx; a nil m runs unpreconditioned. It is Do with
// SolveMethodChebyshev and one right-hand side. A cancelled probe returns
// its partial result with the error, so the caller can inspect it.
func SolveChebyshevCtx(ctx context.Context, g *Graph, b []float64, m Preconditioner, opt ChebyshevOptions) (ChebyshevResult, error) {
	resp, err := Do(ctx, g, SolveRequest{B: [][]float64{b}, Method: SolveMethodChebyshev, M: m, Precond: PrecondSpec{Kind: PrecondNone}, Chebyshev: opt})
	res, err := single(resp, err)
	return ChebyshevResult{SolveResult: res, Lmin: resp.Lmin, Lmax: resp.Lmax, ProbeMetrics: resp.ProbeMetrics}, err
}
