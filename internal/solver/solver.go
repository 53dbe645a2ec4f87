// Package solver provides conjugate gradients, preconditioned conjugate
// gradients with residual histories (the instrument behind Figure 6), and
// spectrum estimation from PCG coefficients (the Lanczos connection used to
// measure condition numbers κ(A, B) throughout the experiments).
//
// PCG is one iteration loop (pcg.go), driving k right-hand sides at once on
// parallel level-1 kernels (see kernels.go, blockkernels.go) and a parallel
// Laplacian matvec; it threads a context.Context for cancellation and reports per-solve Metrics. The Engine
// type (engine.go) owns reusable work buffers so repeated solves on one
// operator allocate nothing.
//
// # Numerical guardrails
//
// Every iteration is watched by two guards: a non-finite guard (a NaN or
// Inf residual terminates with OutcomeBreakdown instead of iterating on
// garbage) and a divergence guard (a residual exceeding 1e8·‖r₀‖ terminates
// with OutcomeDiverged, PETSc's dtol idea). A failed solve carries the
// tripped guard's explanation in Result.Reason and keeps the iterate it
// reached. A solve is one attempt: retrying under another preconditioner is
// the caller's choice (the facade's resilient ladder).
//
// Panics raised inside the iteration — including panics recovered from
// parallel workers by internal/par — are converted to returned errors, so a
// solve can fail but never crash the process.
package solver

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"hcd/internal/dense"
	"hcd/internal/graph"
	"hcd/internal/obs"
)

// ErrNotConverged marks solves that exhausted their iteration budget before
// reaching the requested tolerance. Callers should test with errors.Is.
var ErrNotConverged = errors.New("solver: did not converge")

// ErrEngineBusy marks overlapping Solve calls on one Engine, which is
// documented as not concurrency-safe: the second call returns this error
// instead of silently corrupting the shared work buffers. Run one Engine
// per goroutine.
var ErrEngineBusy = errors.New("solver: engine already in use")

// Operator is a symmetric positive (semi)definite linear operator.
type Operator interface {
	Dim() int
	Apply(dst, x []float64)
}

// Preconditioner applies an approximate inverse of an Operator.
type Preconditioner interface {
	Dim() int
	Apply(dst, r []float64)
}

// OpFunc adapts a function to the Operator and Preconditioner interfaces.
type OpFunc struct {
	N int
	F func(dst, x []float64)
}

// Dim returns the operator dimension.
func (o OpFunc) Dim() int { return o.N }

// Apply evaluates the wrapped function.
func (o OpFunc) Apply(dst, x []float64) { o.F(dst, x) }

// lapOperator wraps a graph Laplacian; it implements BlockApplier so block
// solves stream the CSR once for all k columns.
type lapOperator struct{ g *graph.Graph }

func (o lapOperator) Dim() int                           { return o.g.N() }
func (o lapOperator) Apply(dst, x []float64)             { o.g.LapMul(dst, x) }
func (o lapOperator) ApplyBlock(dst, x []float64, k int) { o.g.LapMulBlock(dst, x, k) }

// LapOperator wraps a graph Laplacian as an Operator. The matvec is
// row-blocked over the CSR and runs across cores (see graph.LapMul); it also
// implements BlockApplier for multi-RHS block solves (graph.LapMulBlock).
func LapOperator(g *graph.Graph) Operator {
	return lapOperator{g}
}

// identity implements the trivial preconditioner for both scalar and block
// applies (a packed block copies the same way a vector does).
type identity struct{ n int }

func (p identity) Dim() int                           { return p.n }
func (p identity) Apply(dst, r []float64)             { copy(dst, r) }
func (p identity) ApplyBlock(dst, r []float64, k int) { copy(dst, r) }

// Identity is the trivial preconditioner (PCG degenerates to CG).
func Identity(n int) Preconditioner {
	return identity{n}
}

// jacobi is the diagonal preconditioner; the block apply scales each packed
// row by the same 1/d[v], one diagonal load per vertex for all k columns.
type jacobi struct{ d []float64 }

func (p jacobi) Dim() int { return len(p.d) }

func (p jacobi) Apply(dst, r []float64) {
	for i := range dst {
		if p.d[i] > 0 {
			dst[i] = r[i] / p.d[i]
		} else {
			dst[i] = r[i]
		}
	}
}

func (p jacobi) ApplyBlock(dst, r []float64, k int) {
	for v := range p.d {
		row := dst[v*k : v*k+k]
		src := r[v*k : v*k+k]
		if d := p.d[v]; d > 0 {
			for j := range row {
				row[j] = src[j] / d
			}
		} else {
			copy(row, src)
		}
	}
}

// Jacobi returns the diagonal preconditioner D⁻¹ for the graph Laplacian.
// Vertices with zero volume (isolated) pass through unchanged.
func Jacobi(g *graph.Graph) Preconditioner {
	return jacobi{d: g.Volumes()}
}

// Options controls the iteration. The context is polled once per iteration.
// Every operator the library builds is a graph Laplacian, so every solve
// keeps its residuals and directions ⊥ 1, its null space on a connected
// graph.
type Options struct {
	Tol     float64 // relative residual tolerance (default 1e-8)
	MaxIter int     // default 10·n
	// Observer, when non-nil, is invoked after every iteration with the
	// iteration number (1-based) and the residual norm (the largest over the
	// active columns of a block solve) — the streaming alternative to the
	// post-hoc Residuals copy. Compose several with obs.MultiObserver (e.g. a
	// live writer plus a registry histogram plus a trace counter series). It
	// runs on the solve goroutine; keep it cheap.
	Observer obs.IterationObserver
}

// divergenceTol is the divergence guard: an iteration stops with
// OutcomeDiverged once ‖r‖ exceeds divergenceTol·‖r₀‖. (The non-finite
// guard — NaN/Inf residuals terminate with OutcomeBreakdown — needs no
// threshold: no useful iteration survives a non-finite residual.)
const divergenceTol = 1e8

// DefaultOptions returns the standard Laplacian-solve settings.
func DefaultOptions() Options {
	return Options{Tol: 1e-8, MaxIter: 0}
}

// Outcome classifies how a solve terminated.
type Outcome int

const (
	// OutcomeUnknown is the zero value; no solve has been run.
	OutcomeUnknown Outcome = iota
	// OutcomeConverged: the residual reached the requested tolerance.
	OutcomeConverged
	// OutcomeMaxIter: the iteration budget was exhausted first.
	OutcomeMaxIter
	// OutcomeCancelled: the context was cancelled or its deadline passed.
	OutcomeCancelled
	// OutcomeBreakdown: a numerical breakdown stopped the recurrence
	// (non-positive curvature pᵀAp or rᵀz — often an exact solution
	// reached, or an indefinite/mismatched preconditioner — or a
	// non-finite residual).
	OutcomeBreakdown
	// OutcomeDiverged: the residual grew past the divergence guard
	// (1e8·‖r₀‖).
	OutcomeDiverged
)

// String names the outcome for logs and metrics output.
func (o Outcome) String() string {
	switch o {
	case OutcomeConverged:
		return "converged"
	case OutcomeMaxIter:
		return "max-iterations"
	case OutcomeCancelled:
		return "cancelled"
	case OutcomeBreakdown:
		return "breakdown"
	case OutcomeDiverged:
		return "diverged"
	default:
		return "unknown"
	}
}

// Metrics instruments one solve: operator/preconditioner work counts, wall
// time per phase, and the final residual. Every Result carries one.
type Metrics struct {
	MatVecs        int // operator Apply count
	PrecondApplies int // preconditioner Apply count
	Iterations     int
	FinalResidual  float64       // ‖r‖₂ at exit (after projection)
	SetupTime      time.Duration // buffer setup + initial residual/precondition
	IterTime       time.Duration // the iteration loop
	TotalTime      time.Duration
	// ScratchAllocs counts work buffers newly allocated for this solve.
	// It is zero for every solve on a warmed-up Engine.
	ScratchAllocs int
}

// Result reports a completed solve.
type Result struct {
	X          []float64
	Residuals  []float64 // ‖r_i‖₂ for i = 0..Iterations
	Iterations int
	Converged  bool    // Outcome == OutcomeConverged
	Outcome    Outcome // how the iteration terminated
	// Reason explains a guard-terminated solve (which guard tripped, at
	// which iteration, with what values); empty on convergence.
	Reason  string
	Metrics Metrics
	// Alphas and Betas are the PCG coefficients; they define a Lanczos
	// tridiagonal whose eigenvalues estimate the spectrum of M⁻¹A (see
	// SpectrumEstimate).
	Alphas, Betas []float64
}

// PCGCtx solves A·x = b with preconditioned conjugate gradients (plain CG
// for a nil m) on a graph Laplacian: the right-hand side, residuals and
// preconditioned residuals are projected orthogonal to the constant vector,
// the Laplacian's null space. The iteration loop polls ctx every iteration and returns OutcomeCancelled
// promptly when the context is done; size mismatches return
// an error wrapping graph.ErrBadDimension. It is the one-column case of
// BlockPCGCtx.
func PCGCtx(ctx context.Context, a Operator, m Preconditioner, b []float64, opt Options) (Result, error) {
	return single(BlockPCGCtx(ctx, a, m, [][]float64{b}, opt))
}

// annotateSolveSpan stamps the termination summary onto a solve span; the
// nil-span fast path keeps the disabled-tracing case free of the boxing
// allocations the Arg calls would otherwise perform.
func annotateSolveSpan(sp *obs.Span, res *Result) {
	if sp == nil {
		return
	}
	sp.Arg("outcome", res.Outcome.String())
	sp.Arg("iterations", res.Iterations)
	sp.Arg("matvecs", res.Metrics.MatVecs)
	sp.Arg("final_residual", res.Metrics.FinalResidual)
	if res.Reason != "" {
		sp.Arg("reason", res.Reason)
	}
}

// SpectrumEstimate converts PCG coefficients into estimates of the extreme
// generalized eigenvalues of (A, M): the Lanczos tridiagonal built from the
// α and β sequences has eigenvalues (Ritz values) inside the spectrum of
// M⁻¹A that converge to its extremes. Returns (λmin, λmax).
func SpectrumEstimate(alphas, betas []float64) (float64, float64, error) {
	k := len(alphas)
	if k == 0 {
		return 0, 0, fmt.Errorf("solver: no PCG coefficients")
	}
	d := make([]float64, k)
	e := make([]float64, k-1)
	for j := 0; j < k; j++ {
		d[j] = 1 / alphas[j]
		if j > 0 {
			d[j] += betas[j-1] / alphas[j-1]
		}
	}
	for j := 0; j+1 < k; j++ {
		e[j] = math.Sqrt(betas[j]) / alphas[j]
	}
	vals, err := dense.TridiagEig(d, e)
	if err != nil {
		return 0, 0, err
	}
	return vals[0], vals[len(vals)-1], nil
}
