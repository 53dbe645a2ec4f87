package hcd

import (
	"context"
	"fmt"

	"hcd/internal/graph"
	"hcd/internal/hierarchy"
	"hcd/internal/lowstretch"
	"hcd/internal/mst"
	"hcd/internal/solver"
	"hcd/internal/sparsify"
	"hcd/internal/subgraph"
	"hcd/internal/support"
	"hcd/internal/treealg"
)

// Operator is a symmetric positive semidefinite linear operator.
type Operator = solver.Operator

// Preconditioner applies an approximate inverse.
type Preconditioner = solver.Preconditioner

// SolveOptions controls PCG.
type SolveOptions = solver.Options

// SolveResult reports a completed solve, including the residual history
// behind Figure 6 and the PCG coefficients behind spectrum estimates.
type SolveResult = solver.Result

// DefaultSolveOptions returns the standard Laplacian-solve settings
// (relative tolerance 1e-8, mean projection on).
func DefaultSolveOptions() SolveOptions { return solver.DefaultOptions() }

// LaplacianOperator wraps a graph's Laplacian as an Operator.
func LaplacianOperator(g *Graph) Operator { return solver.LapOperator(g) }

// JacobiPreconditioner is the diagonal D⁻¹ baseline.
func JacobiPreconditioner(g *Graph) Preconditioner { return solver.Jacobi(g) }

// NewSteinerPreconditioner builds the Section 3 Steiner preconditioner for
// the decomposition's graph, B⁺r = D⁻¹r + R·Q⁺(Rᵀr), as a hierarchy whose
// level 0 is the decomposition, unsmoothed. A quotient of at most 2 500
// vertices is factored directly, which makes the apply the two-level identity
// exactly; a larger one is clustered further by the hierarchy's pure
// recursion. A decomposition that does not match its graph returns an error
// wrapping ErrInvalidInput.
func NewSteinerPreconditioner(d *Decomposition) (*Hierarchy, error) {
	return hierarchy.NewSteiner(context.Background(), d)
}

// SubgraphResult bundles a subgraph preconditioner with its structure.
type SubgraphResult struct {
	P Preconditioner
	// B is the underlying subgraph (tree + extra edges).
	B *Graph
	// CoreSize is what remains of B once its degree-1 and degree-2 vertices
	// are eliminated: n / CoreSize is the reduction factor Figure 6 matches
	// against the Steiner quotient.
	CoreSize int
}

// NewSubgraphPreconditioner builds the classical baseline of Figure 6: a
// sparsified subgraph B applied as an exact solve with B, through a sparse
// Cholesky factor whose minimum-degree ordering eliminates B's degree-1/2
// chains first.
func NewSubgraphPreconditioner(g *Graph, opt PlanarOptions) (*SubgraphResult, error) {
	sres, err := sparsify.SparsifyCtx(context.Background(), g, opt)
	if err != nil {
		return nil, err
	}
	return newSubgraphResult(sres.B)
}

func newSubgraphResult(b *Graph) (*SubgraphResult, error) {
	p, err := subgraph.New(b)
	if err != nil {
		return nil, err
	}
	return &SubgraphResult{P: p, B: b, CoreSize: subgraph.ProbeCoreSize(b)}, nil
}

// NewTreePreconditioner builds a spanning-tree-only preconditioner (the
// original Vaidya construction and Remark 1's reference point): an exact
// O(n)-per-apply tree Laplacian solve over a max-weight or low-stretch
// spanning tree. κ(A, T) is bounded by the total stretch of the off-tree
// edges, so it degrades with size — which is why both the paper and this
// library augment trees with extra edges or clusters.
func NewTreePreconditioner(g *Graph, base BaseTree, seed int64) (Preconditioner, error) {
	var edges []Edge
	switch base {
	case MaxWeightTree:
		edges = mst.Kruskal(g, mst.Max)
	case LowStretchTree:
		// AKPWCtx fails only when its context is cancelled, which this one never is.
		edges, _ = lowstretch.AKPWCtx(context.Background(), g, seed)
	default:
		return nil, fmt.Errorf("hcd: unknown base tree %d: %w", base, ErrInvalidInput)
	}
	forest, err := graph.NewFromUniqueEdges(g.N(), edges)
	if err != nil {
		return nil, err
	}
	rooted, err := treealg.RootForest(forest)
	if err != nil {
		return nil, err
	}
	s := treealg.NewSolver(rooted)
	return solver.OpFunc{N: g.N(), F: s.Solve}, nil
}

// NewGridSubgraphPreconditioner builds the miniaturized subgraph
// preconditioner the paper's Section 3.2 used for Figure 6's baseline on
// 3D grids: per-block max-weight trees plus one heaviest edge per adjacent
// block pair (blockSize controls the reduction, ≈ blockSize³/6). The graph
// must use the workload generators' (i·ny + j)·nz + k vertex layout.
func NewGridSubgraphPreconditioner(g *Graph, nx, ny, nz, blockSize int) (*SubgraphResult, error) {
	sres, err := sparsify.GridMiniature(g, nx, ny, nz, blockSize)
	if err != nil {
		return nil, err
	}
	return newSubgraphResult(sres.B)
}

// NewSubgraphPreconditionerMatched builds a subgraph preconditioner whose
// degree-1/2 elimination core has about n/targetReduction vertices — the
// "same reduction factor" protocol of the paper's Figure 6 comparison. It
// bisects the off-tree edge budget using a numerics-free elimination probe.
func NewSubgraphPreconditionerMatched(g *Graph, targetReduction float64, seed int64) (*SubgraphResult, error) {
	if targetReduction <= 1 {
		return nil, fmt.Errorf("hcd: target reduction %g must exceed 1: %w", targetReduction, ErrInvalidInput)
	}
	targetCore := int(float64(g.N()) / targetReduction)
	lo, hi := 0.0, 1.0
	best := subgraphOpt(seed, 0.25)
	for iter := 0; iter < 12; iter++ {
		mid := (lo + hi) / 2
		opt := subgraphOpt(seed, mid)
		sres, err := sparsify.SparsifyCtx(context.Background(), g, opt)
		if err != nil {
			return nil, err
		}
		core := subgraph.ProbeCoreSize(sres.B)
		if core < targetCore {
			lo = mid // need more off-tree edges for a bigger core
		} else {
			hi = mid
		}
		best = opt
		best.ExtraFraction = (lo + hi) / 2
	}
	return NewSubgraphPreconditioner(g, best)
}

func subgraphOpt(seed int64, fraction float64) PlanarOptions {
	opt := DefaultPlanarOptions()
	opt.Seed = seed
	opt.ExtraFraction = fraction
	return opt
}

// HierarchyOptions configures the multilevel Steiner preconditioner.
type HierarchyOptions = hierarchy.Options

// DefaultHierarchyOptions returns the standard multilevel settings.
func DefaultHierarchyOptions() HierarchyOptions { return hierarchy.DefaultOptions() }

// Hierarchy is the multilevel (laminar) Steiner preconditioner — the CMG
// precursor sketched in the paper's Section 1.1 and Remark 3.
type Hierarchy = hierarchy.Hierarchy

// NewHierarchyCtx builds a multilevel Steiner preconditioner for g under a
// context: the per-level clusterings poll cancellation, so a cancelled setup
// returns an error wrapping ErrBuildCancelled promptly.
func NewHierarchyCtx(ctx context.Context, g *Graph, opt HierarchyOptions) (*Hierarchy, error) {
	return hierarchy.NewCtx(ctx, g, opt)
}

// SupportNumbers holds measured support values σ(A,B), σ(B,A) and the
// condition number κ(A,B) of a preconditioned pair.
type SupportNumbers = support.Numbers

// MeasureSupport estimates the support numbers of (A, B) where B is given
// through its inverse applier, using a PCG/Lanczos probe of the given depth.
func MeasureSupport(g *Graph, bInv Preconditioner, probe []float64, depth int) (SupportNumbers, error) {
	return support.Probe(solver.LapOperator(g), bInv, probe, depth)
}

// EstimateSpectrum converts PCG coefficients into (λmin, λmax) estimates of
// the preconditioned operator.
func EstimateSpectrum(res SolveResult) (float64, float64, error) {
	return solver.SpectrumEstimate(res.Alphas, res.Betas)
}
