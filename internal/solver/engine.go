package solver

import (
	"context"
	"fmt"
	"sync/atomic"

	"hcd/internal/graph"
)

// Engine is a reusable solve session: it owns an operator, a preconditioner,
// default options, and all iteration work buffers. Repeated solves on one
// graph — batched right-hand sides, of any width — reuse every work buffer
// after the first solve (Metrics.ScratchAllocs == 0), and allocate nothing at
// all on one worker, or while every sweep is shorter than one chunk
// (kernel.ChunkRows): par.For then runs the sweeps on the calling goroutine.
// On several workers, a sweep longer than one chunk fans out to goroutines,
// which allocate.
//
// An Engine is NOT safe for concurrent use; the parallelism lives inside the
// kernels, not across solves. Overlapping calls are detected: the second
// call returns an error wrapping ErrEngineBusy instead of corrupting the
// shared buffers. The X, Residuals, Alphas and Betas slices of a returned
// Result alias the engine's buffers and are only valid until the next call
// on the same engine; copy them if they must outlive it.
type Engine struct {
	a     Operator
	m     Preconditioner
	opt   Options
	inUse atomic.Bool
	s     scratch
}

// NewEngine builds a solve session. A nil preconditioner means plain CG.
// Returns an error wrapping graph.ErrBadDimension if the preconditioner's
// dimension disagrees with the operator's.
func NewEngine(a Operator, m Preconditioner, opt Options) (*Engine, error) {
	if m == nil {
		m = Identity(a.Dim())
	}
	if m.Dim() != a.Dim() {
		return nil, fmt.Errorf("solver: preconditioner dimension %d vs operator dimension %d: %w",
			m.Dim(), a.Dim(), graph.ErrBadDimension)
	}
	return &Engine{a: a, m: m, opt: opt}, nil
}

// Dim returns the system dimension.
func (e *Engine) Dim() int { return e.a.Dim() }

// acquire claims the engine's buffers for one solve. The CAS turns the
// documented "not concurrency-safe" contract into a detected error rather
// than silent buffer corruption.
func (e *Engine) acquire() error {
	if !e.inUse.CompareAndSwap(false, true) {
		return fmt.Errorf("solver: overlapping solve on one engine: %w", ErrEngineBusy)
	}
	return nil
}

func (e *Engine) release() { e.inUse.Store(false) }

// Solve runs PCG on b with the engine's default options: SolveBlock on the
// one column b, whose column list lives in the engine so that none is built
// per call.
func (e *Engine) Solve(ctx context.Context, b []float64) (Result, error) {
	if err := e.acquire(); err != nil {
		return Result{}, err
	}
	defer e.release()
	e.s.one[0] = b
	results, err := e.s.solve(ctx, e.a, e.m, e.s.one[:], e.opt)
	e.s.one[0] = nil
	return single(results, err)
}

// SolveBlock runs PCG on the columns of bs with per-call options, returning
// one Result per column (same order). All columns share every matvec and
// preconditioner traversal; converged columns deflate out of the active
// block. A column of the wrong length fails alone, as in
// BlockPCGCtx. Like Solve, what is returned aliases engine buffers — the
// result list and each column's X, Residuals, Alphas and Betas are only valid
// until the next call on the same engine.
func (e *Engine) SolveBlock(ctx context.Context, bs [][]float64, opt Options) ([]Result, error) {
	if err := e.acquire(); err != nil {
		return nil, err
	}
	defer e.release()
	return e.s.solve(ctx, e.a, e.m, bs, opt)
}
