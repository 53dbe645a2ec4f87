package hcd

// The one solve call. Do executes one SolveRequest — one or many right-hand
// sides, a named iteration method, a preconditioner given as a spec, a
// prebuilt value, or a warm Engine session — and returns a SolveResponse with
// one SolveResult per right-hand side. The CLI tools, the examples and the
// hcd-server handlers all solve through it. Every method reads its iteration
// settings from the request's Options. A PCG request of any width is one call
// into the solver's one iteration driver, and each rung of the resilient
// ladder one more.

import (
	"context"
	"fmt"

	"hcd/internal/hierarchy"
	"hcd/internal/obs"
	"hcd/internal/solver"
)

// SolveMethod names the iteration a SolveRequest runs.
type SolveMethod string

// Solve methods. The empty string defaults to PCG.
const (
	// SolveMethodPCG is preconditioned conjugate gradients — the default.
	SolveMethodPCG SolveMethod = "pcg"
	// SolveMethodResilient walks the fallback ladder of resilient.go with
	// every right-hand side: each rung builds once and solves the columns no
	// earlier rung converged as one block, recording a ResilienceReport per
	// column.
	SolveMethodResilient SolveMethod = "resilient"
)

// PrecondKind names a preconditioner construction for PrecondSpec.
type PrecondKind string

// Preconditioner kinds. The empty string defaults to the multilevel
// hierarchy — the batteries-included choice.
const (
	PrecondHierarchy PrecondKind = "hierarchy"
	PrecondNone      PrecondKind = "none"
	PrecondJacobi    PrecondKind = "jacobi"
	PrecondSteiner   PrecondKind = "steiner"
	PrecondTree      PrecondKind = "tree"
	PrecondSubgraph  PrecondKind = "subgraph"
)

// PrecondSpec describes a preconditioner to build for a solve. The zero
// value selects the default multilevel Steiner hierarchy.
type PrecondSpec struct {
	Kind PrecondKind
	// SizeCap is the cluster size cap for the steiner and hierarchy kinds
	// (0 selects the default, 4).
	SizeCap int
	// Seed drives the randomized constructions (0 selects the default, 1).
	// The tree and subgraph kinds use a max-weight spanning tree, the
	// subgraph kind with n/4 off-tree edges.
	Seed int64
}

// NewPreconditioner builds the preconditioner a spec describes. PrecondNone
// returns (nil, nil): a nil Preconditioner means plain CG everywhere in this
// package. The context cancels hierarchy and clustering builds.
func NewPreconditioner(ctx context.Context, g *Graph, spec PrecondSpec) (Preconditioner, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	switch spec.Kind {
	case PrecondNone:
		return nil, nil
	case PrecondJacobi:
		return JacobiPreconditioner(g), nil
	case PrecondSteiner:
		res, err := DecomposeCtx(ctx, g, DecomposeOptions{
			Method: MethodFixedDegree, SizeCap: specSizeCap(spec), Seed: specSeed(spec),
			SkipReport: true,
		})
		if err != nil {
			return nil, err
		}
		h, err := hierarchy.NewSteiner(ctx, res.D)
		if err != nil {
			return nil, err
		}
		return h, nil
	case PrecondTree:
		return NewTreePreconditioner(g, MaxWeightTree, specSeed(spec))
	case PrecondSubgraph:
		popt := DefaultPlanarOptions()
		popt.Seed = specSeed(spec)
		res, err := NewSubgraphPreconditioner(g, popt)
		if err != nil {
			return nil, err
		}
		return res.P, nil
	case PrecondHierarchy, "":
		return NewHierarchyCtx(ctx, g, specHierarchy(spec))
	default:
		return nil, fmt.Errorf("hcd: unknown preconditioner kind %q: %w", spec.Kind, ErrInvalidInput)
	}
}

// specHierarchy is the hierarchy build a spec of the hierarchy kind
// describes: the defaults with the spec's SizeCap and Seed.
func specHierarchy(spec PrecondSpec) HierarchyOptions {
	opt := DefaultHierarchyOptions()
	opt.SizeCap, opt.Seed = specSizeCap(spec), specSeed(spec)
	return opt
}

func specSizeCap(spec PrecondSpec) int {
	if spec.SizeCap >= 2 {
		return spec.SizeCap
	}
	return DefaultHierarchyOptions().SizeCap
}

func specSeed(spec PrecondSpec) int64 {
	if spec.Seed != 0 {
		return spec.Seed
	}
	return 1
}

// SolveRequest is the canonical description of one solve: one or more
// right-hand sides against a single graph Laplacian, an iteration method,
// and a preconditioner. Exactly one of the preconditioner fields is
// consulted, in order of precedence: Engine (a warm session whose operator
// and preconditioner are already built), M (a prebuilt Preconditioner
// value), then Precond (a spec built on demand by Do).
type SolveRequest struct {
	// B holds the right-hand sides, one solve each, all of length g.N().
	B [][]float64
	// Method selects the iteration ("" = PCG).
	Method SolveMethod
	// Precond describes the preconditioner to build when neither Engine
	// nor M is set. The zero value builds the multilevel hierarchy. For
	// SolveMethodResilient it must be of the hierarchy kind: it is the
	// hierarchy the ladder's first rung builds when M is nil.
	Precond PrecondSpec
	// M, when non-nil, is used directly and Precond is not built; under
	// SolveMethodResilient it preconditions the first rung.
	M Preconditioner
	// Engine, when non-nil, runs the solves on a warm session (the
	// serving path: per-hierarchy engine pools). Result slices are copied
	// out of the engine's buffers, so they remain valid after the engine
	// is reused. SolveMethodResilient ignores it.
	Engine *Engine
	// Options configures the iteration of every method. Every method
	// projects out the mean, the Laplacian's null space. The resilient ladder
	// runs every rung as one attempt under Options.
	Options SolveOptions
}

// SolveResponse reports one Do call: per-right-hand-side results plus the
// resilient method's attempt trails.
type SolveResponse struct {
	// Results holds one SolveResult per right-hand side, in request order.
	// On error it still contains one entry per attempted column — completed
	// columns keep their results, failed columns carry zero-value entries —
	// so a partially failed batch loses nothing that finished.
	Results []SolveResult
	// Resilience holds one attempt-trail report per right-hand side for
	// the resilient method.
	Resilience []ResilienceReport
}

// Do executes a SolveRequest against g's Laplacian and returns one result
// per right-hand side. It is the single solve implementation of this package
// and of the hcd-server solve handlers.
//
// Errors follow the wrapped-sentinel convention: dimension mismatches wrap
// ErrBadDimension, exhausted ladders wrap ErrNotConverged, a cancelled
// context surfaces via the per-result OutcomeCancelled (PCG) or a wrapped
// context error (resilient). A multi-RHS PCG request attempts every column
// even when one fails: the response carries a result per attempted column
// and the error joins the per-column failures (errors.Is still matches the
// wrapped sentinels through the join).
func Do(ctx context.Context, g *Graph, req SolveRequest) (*SolveResponse, error) {
	resp := &SolveResponse{}
	if ctx == nil {
		ctx = context.Background()
	}
	if g == nil {
		return resp, fmt.Errorf("hcd: Do: nil graph: %w", ErrInvalidInput)
	}
	if len(req.B) == 0 {
		return resp, fmt.Errorf("hcd: Do: no right-hand sides: %w", ErrInvalidInput)
	}
	method := req.Method
	if method == "" {
		method = SolveMethodPCG
	}
	// The resilient ladder opens its own root span per RHS
	// ("resilient/solve"); wrapping it here would only add a level.
	if method != SolveMethodResilient {
		var sp *obs.Span
		ctx, sp = obs.StartSpan(ctx, "solve/do")
		defer sp.End()
		if sp != nil {
			sp.Arg("method", string(method))
			sp.Arg("rhs", len(req.B))
		}
	}
	switch method {
	case SolveMethodPCG:
		return doPCG(ctx, g, req, resp)
	case SolveMethodResilient:
		if k := req.Precond.Kind; k != PrecondHierarchy && k != "" {
			return resp, fmt.Errorf("hcd: Do: the resilient method builds a hierarchy, not %q: %w", k, ErrInvalidInput)
		}
		var err error
		resp.Results, resp.Resilience, err = solveResilient(ctx, g, req.B, req.M, specHierarchy(req.Precond), req.Options)
		return resp, err
	default:
		return resp, fmt.Errorf("hcd: Do: unknown solve method %q: %w", req.Method, ErrInvalidInput)
	}
}

func doPCG(ctx context.Context, g *Graph, req SolveRequest, resp *SolveResponse) (*SolveResponse, error) {
	m := req.M
	if m == nil && req.Engine == nil {
		var err error
		m, err = NewPreconditioner(ctx, g, req.Precond)
		if err != nil {
			return resp, err
		}
	}
	// One driver call for the whole request: every matvec and preconditioner
	// traversal is shared across the columns, converged columns deflate out of
	// the active block, and a column of the wrong length fails alone (see
	// solver.BlockPCGCtx).
	if req.Engine == nil {
		var err error
		resp.Results, err = solver.BlockPCGCtx(ctx, solver.LapOperator(g), m, req.B, req.Options)
		return resp, err
	}
	results, err := req.Engine.SolveBlock(ctx, req.B, req.Options)
	resp.Results = make([]SolveResult, len(results))
	for i, res := range results {
		resp.Results[i] = detachResult(res)
	}
	return resp, err
}

// detachResult copies the slices of an engine-produced result out of the
// engine's reusable buffers, so the result survives the engine's return to a
// pool and its next solve.
func detachResult(res SolveResult) SolveResult {
	res.X = append([]float64(nil), res.X...)
	res.Residuals = append([]float64(nil), res.Residuals...)
	res.Alphas = append([]float64(nil), res.Alphas...)
	res.Betas = append([]float64(nil), res.Betas...)
	return res
}
