package hcd

// The decomposition pipeline: every construction of the paper — Theorem 2.1
// trees, the Theorem 2.2/2.3 sparse-core pipelines, the Section 3.1
// fixed-degree clustering, and the top-down spectral baseline — is reachable
// through one context-aware entry point, DecomposeCtx, which runs the
// method's stages through decomp.RunStage, one build/<stage> span each.

import (
	"context"
	"fmt"
	"time"

	"hcd/internal/decomp"
	"hcd/internal/graph"
	"hcd/internal/obs"
	"hcd/internal/sparsify"
	"hcd/internal/spectralcut"
)

// DecomposeMethod selects which construction DecomposeCtx runs.
type DecomposeMethod int

const (
	// MethodTree: Theorem 2.1 on a tree or forest (ρ ≥ 6/5, φ ≥ 1/3).
	MethodTree DecomposeMethod = iota
	// MethodPlanar: the Theorem 2.2 pipeline — sparsify over a max-weight
	// base tree, strip/cut the core, tree-decompose, rebind to g.
	MethodPlanar
	// MethodMinorFree: the Theorem 2.3 variant — the same pipeline over an
	// AKPW low-stretch base tree.
	MethodMinorFree
	// MethodFixedDegree: the Section 3.1 perturb/heaviest-edge/split
	// clustering (ρ ≥ 2).
	MethodFixedDegree
	// MethodSpectral: the recursive sweep-cut baseline
	// (Kannan–Vempala–Vetta style).
	MethodSpectral
)

// String names the method for logs and metrics labels.
func (m DecomposeMethod) String() string {
	switch m {
	case MethodTree:
		return "tree"
	case MethodPlanar:
		return "planar"
	case MethodMinorFree:
		return "minor-free"
	case MethodFixedDegree:
		return "fixed-degree"
	case MethodSpectral:
		return "spectral"
	}
	return fmt.Sprintf("method(%d)", int(m))
}

// ErrBuildCancelled: a decomposition build was stopped by its context.
// Errors carrying it also wrap the context's own error (context.Canceled or
// context.DeadlineExceeded), so either sentinel works with errors.Is.
var ErrBuildCancelled = decomp.ErrBuildCancelled

// DecomposeOptions configures DecomposeCtx. Method selects the construction;
// the remaining fields apply to the methods noted on each. The zero value
// runs MethodTree; use DefaultDecomposeOptions for per-method defaults.
type DecomposeOptions struct {
	Method DecomposeMethod

	// SizeCap bounds cluster sizes for MethodFixedDegree (must be ≥ 2).
	SizeCap int

	// Seed drives the edge perturbation (MethodFixedDegree), the AKPW tree
	// and off-tree selection (MethodPlanar/MethodMinorFree), and the
	// eigensolves (MethodSpectral).
	Seed int64

	// Base selects the spanning tree for MethodPlanar; MethodMinorFree
	// always uses LowStretchTree.
	Base BaseTree

	// ExtraFraction is the off-tree edge budget of the sparse pipelines, as
	// a fraction of n (MethodPlanar/MethodMinorFree). Zero keeps the bare
	// tree.
	ExtraFraction float64

	// Spectral configures MethodSpectral.
	Spectral SpectralCutOptions

	// SkipReport omits the final evaluate stage; DecomposeResult.Report
	// stays zero.
	SkipReport bool
}

// DefaultDecomposeOptions returns the standard settings for a method: size
// cap 4 (fixed-degree), n/4 extra edges on the method's base tree (sparse
// pipelines), target conductance 0.1 (spectral), seed 1.
func DefaultDecomposeOptions(m DecomposeMethod) DecomposeOptions {
	opt := DecomposeOptions{Method: m, Seed: 1}
	switch m {
	case MethodFixedDegree:
		opt.SizeCap = 4
	case MethodPlanar:
		opt.Base = MaxWeightTree
		opt.ExtraFraction = 0.25
	case MethodMinorFree:
		opt.Base = LowStretchTree
		opt.ExtraFraction = 0.25
	case MethodSpectral:
		opt.Spectral = DefaultSpectralCutOptions()
	}
	return opt
}

// DecomposeResult is the uniform output of DecomposeCtx: the decomposition
// and its quality report (unless SkipReport). The trailing fields carry
// method-specific extras and are zero for methods that do not produce them.
// Where the build's time went is in its trace, not here.
type DecomposeResult struct {
	D      *Decomposition
	Report Report // zero if DecomposeOptions.SkipReport

	// Sparse-pipeline extras (MethodPlanar/MethodMinorFree).
	B                  *Graph // the subgraph the decomposition was computed on
	CoreSize, CutEdges int    // |W| and |C| of the strip/cut phase
	AvgStretch         float64

	// SpectralStats reports MethodSpectral's work profile.
	SpectralStats SpectralCutStats
}

// DecomposeCtx decomposes g with the method opt selects, under a context.
// Each stage of the build (base tree, sparsify, strip/cut core, tree
// decomposition, rebind, evaluate — whichever the method uses) polls
// cancellation at bounded intervals. With a tracer in ctx every stage is a
// build/<stage> span, carrying its output's vertices and edges, under one
// decompose/<method> span; with a registry in ctx the build publishes the
// hcd_build_stage_* series per stage and hcd_build_total. A cancelled build
// returns an error wrapping both ErrBuildCancelled and the context's error.
func DecomposeCtx(ctx context.Context, g *Graph, opt DecomposeOptions) (*DecomposeResult, error) {
	start := time.Now()
	if obs.TracerFrom(ctx) != nil {
		var sp *obs.Span
		ctx, sp = obs.StartSpan(ctx, "decompose/"+opt.Method.String())
		defer sp.End()
	}
	res := &DecomposeResult{}
	var err error
	switch opt.Method {
	case MethodTree:
		err = decomp.RunStage(ctx, decomp.StageTree, func(ctx context.Context) (decomp.StageInfo, error) {
			var err error
			res.D, err = decomp.TreeCtx(ctx, g)
			return stageInfoOf(res.D), err
		})
	case MethodPlanar, MethodMinorFree:
		err = buildSparseMethod(ctx, g, opt, res)
	case MethodFixedDegree:
		err = decomp.RunStage(ctx, decomp.StageCluster, func(ctx context.Context) (decomp.StageInfo, error) {
			var err error
			res.D, err = decomp.FixedDegreeCtx(ctx, g, opt.SizeCap, opt.Seed)
			return stageInfoOf(res.D), err
		})
	case MethodSpectral:
		err = decomp.RunStage(ctx, decomp.StageSpectral, func(ctx context.Context) (decomp.StageInfo, error) {
			var err error
			res.D, res.SpectralStats, err = spectralcut.DecomposeCtx(ctx, g, opt.Spectral)
			return stageInfoOf(res.D), err
		})
	default:
		return nil, fmt.Errorf("hcd: unknown decomposition method %d: %w", int(opt.Method), ErrInvalidInput)
	}
	if err == nil && !opt.SkipReport {
		err = decomp.RunStage(ctx, decomp.StageEvaluate, func(ctx context.Context) (decomp.StageInfo, error) {
			var rerr error
			res.Report, rerr = decomp.EvaluateCtx(ctx, res.D, graph.MaxExactConductance)
			return decomp.StageInfo{Vertices: g.N(), Edges: g.M()}, rerr
		})
	}
	if reg := obs.RegistryFrom(ctx); reg != nil {
		reg.Counter("hcd_build_total").Inc()
		reg.Counter("hcd_build_ns_total").Add(int64(time.Since(start)))
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

// buildSparseMethod runs the Theorem 2.2/2.3 pipeline stage by stage:
// base-tree → sparsify → strip-cut-core → tree-decompose → rebind.
func buildSparseMethod(ctx context.Context, g *Graph, opt DecomposeOptions, res *DecomposeResult) error {
	sopt := sparsify.Options{Base: opt.Base, ExtraFraction: opt.ExtraFraction, Seed: opt.Seed}
	if opt.Method == MethodMinorFree {
		sopt.Base = sparsify.LowStretchTree
	}
	var tree []Edge
	if err := decomp.RunStage(ctx, decomp.StageBaseTree, func(ctx context.Context) (decomp.StageInfo, error) {
		var err error
		tree, err = sparsify.BaseTreeCtx(ctx, g, sopt)
		return decomp.StageInfo{Vertices: g.N(), Edges: len(tree)}, err
	}); err != nil {
		return err
	}
	var sres *sparsify.Result
	if err := decomp.RunStage(ctx, decomp.StageSparsify, func(ctx context.Context) (decomp.StageInfo, error) {
		var err error
		sres, err = sparsify.FromTreeCtx(ctx, g, tree, sopt)
		if err != nil {
			return decomp.StageInfo{}, err
		}
		return decomp.StageInfo{Vertices: sres.B.N(), Edges: sres.B.M()}, nil
	}); err != nil {
		return err
	}
	res.B = sres.B
	res.AvgStretch = sres.AvgStretch
	var forest *Graph
	if err := decomp.RunStage(ctx, decomp.StageCoreCut, func(ctx context.Context) (decomp.StageInfo, error) {
		var stats decomp.SparseStats
		var err error
		forest, stats, err = decomp.CoreCutCtx(ctx, sres.B)
		if err != nil {
			return decomp.StageInfo{}, err
		}
		res.CoreSize, res.CutEdges = stats.CoreSize, stats.CutEdges
		return decomp.StageInfo{Vertices: forest.N(), Edges: forest.M()}, nil
	}); err != nil {
		return err
	}
	var td *Decomposition
	if err := decomp.RunStage(ctx, decomp.StageTree, func(ctx context.Context) (decomp.StageInfo, error) {
		var err error
		td, err = decomp.TreeCtx(ctx, forest)
		return stageInfoOf(td), err
	}); err != nil {
		return err
	}
	return decomp.RunStage(ctx, decomp.StageRebind, func(context.Context) (decomp.StageInfo, error) {
		db := &decomp.Decomposition{G: sres.B, Assign: td.Assign, Count: td.Count}
		var err error
		res.D, err = decomp.Rebind(db, g)
		return stageInfoOf(res.D), err
	})
}

// stageInfoOf sizes a stage by its decomposition output (nil-safe for failed
// stages).
func stageInfoOf(d *Decomposition) decomp.StageInfo {
	if d == nil {
		return decomp.StageInfo{}
	}
	return decomp.StageInfo{Vertices: d.G.N(), Edges: d.G.M()}
}
