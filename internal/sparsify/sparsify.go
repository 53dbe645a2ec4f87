// Package sparsify builds the sparse spectral subgraph B that Theorem 2.2
// feeds into the decomposition engine: a spanning tree plus a bounded number
// of off-tree edges. The paper obtains B from the multiway-separator
// miniaturization of Koutis–Miller [18] (planar) or from low-stretch trees
// with Spielman–Teng augmentation [27, 9] (minor-free); this package
// substitutes the standard stretch-driven construction — keep the off-tree
// edges of largest stretch — which yields the same object class (spanning
// tree + c·n extra edges, measured spectral distance k) without the planar
// separator machinery. DESIGN.md documents the substitution.
package sparsify

import (
	"context"
	"fmt"
	"sort"

	"hcd/internal/graph"
	"hcd/internal/lowstretch"
	"hcd/internal/mst"
)

// BaseTree selects the spanning tree underlying the subgraph.
type BaseTree int

const (
	// MaxWeightTree uses the maximum-weight spanning tree (Vaidya/Joshi
	// style), the natural choice under large weight variation.
	MaxWeightTree BaseTree = iota
	// LowStretchTree uses an AKPW low-stretch tree (the Theorem 2.3 path).
	LowStretchTree
)

// Options configures SparsifyCtx.
type Options struct {
	Base BaseTree
	// ExtraFraction is the number of off-tree edges to keep, as a fraction
	// of n (the paper's "constant fraction of non-tree edges").
	ExtraFraction float64
	Seed          int64
}

// DefaultOptions keeps n/4 off-tree edges on a max-weight base tree.
func DefaultOptions() Options {
	return Options{Base: MaxWeightTree, ExtraFraction: 0.25, Seed: 1}
}

// Result is the sparse subgraph together with its composition.
type Result struct {
	B          *graph.Graph
	TreeEdges  []graph.Edge
	ExtraEdges []graph.Edge
	// AvgStretch is the average stretch of all edges of the input over the
	// base tree — the quantity controlling the spectral distance of B to A.
	AvgStretch float64
	// MaxDroppedStretch is the largest stretch among edges NOT kept; it
	// bounds the per-edge support loss of the sparsification.
	MaxDroppedStretch float64
}

// SparsifyCtx returns the subgraph B of the connected graph g consisting of
// a spanning tree plus the ⌈ExtraFraction·n⌉ off-tree edges of largest
// stretch. Every edge of B is an edge of g with its original weight.
//
// SparsifyCtx = BaseTreeCtx + FromTreeCtx; the two halves are exposed
// separately so the decomposition pipeline can time the base-tree
// construction apart from the stretch-driven edge selection.
func SparsifyCtx(ctx context.Context, g *graph.Graph, opt Options) (*Result, error) {
	tree, err := BaseTreeCtx(ctx, g, opt)
	if err != nil {
		return nil, err
	}
	return FromTreeCtx(ctx, g, tree, opt)
}

// BaseTreeCtx validates g and builds the spanning tree opt.Base selects.
// For n ≤ 2 the tree is the whole (at most one-edge) graph.
func BaseTreeCtx(ctx context.Context, g *graph.Graph, opt Options) ([]graph.Edge, error) {
	if !g.Connected() {
		return nil, fmt.Errorf("sparsify: graph must be connected")
	}
	if opt.ExtraFraction < 0 {
		return nil, fmt.Errorf("sparsify: negative ExtraFraction")
	}
	if g.N() <= 2 {
		return g.Edges(), nil
	}
	switch opt.Base {
	case MaxWeightTree:
		return mst.KruskalCtx(ctx, g, mst.Max)
	case LowStretchTree:
		return lowstretch.AKPWCtx(ctx, g, opt.Seed)
	default:
		return nil, fmt.Errorf("sparsify: unknown base tree %d", opt.Base)
	}
}

// FromTreeCtx completes the sparsification over an already-built base tree:
// compute stretches, keep the ⌈ExtraFraction·n⌉ off-tree edges of largest
// stretch, and assemble B.
func FromTreeCtx(ctx context.Context, g *graph.Graph, tree []graph.Edge, opt Options) (*Result, error) {
	n := g.N()
	if n <= 2 {
		return &Result{B: g.Clone(), TreeEdges: g.Edges()}, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("sparsify: cancelled: %w", err)
	}
	stretches, avg, err := lowstretch.Stretches(g, tree)
	if err != nil {
		return nil, err
	}
	inTree := make(map[[2]int]bool, len(tree))
	for _, e := range tree {
		inTree[key(e.U, e.V)] = true
	}
	type offEdge struct {
		e graph.Edge
		s float64
	}
	var off []offEdge
	for i, e := range g.Edges() {
		if !inTree[key(e.U, e.V)] {
			off = append(off, offEdge{e: e, s: stretches[i]})
		}
	}
	sort.Slice(off, func(i, j int) bool { return off[i].s > off[j].s })
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("sparsify: cancelled: %w", err)
	}
	budget := int(opt.ExtraFraction*float64(n) + 0.5)
	if budget > len(off) {
		budget = len(off)
	}
	res := &Result{TreeEdges: tree, AvgStretch: avg}
	bEdges := append([]graph.Edge(nil), tree...)
	for i := 0; i < budget; i++ {
		res.ExtraEdges = append(res.ExtraEdges, off[i].e)
		bEdges = append(bEdges, off[i].e)
	}
	for i := budget; i < len(off); i++ {
		if off[i].s > res.MaxDroppedStretch {
			res.MaxDroppedStretch = off[i].s
		}
	}
	res.B = graph.MustFromEdges(n, bEdges)
	return res, nil
}

func key(u, v int) [2]int {
	if u > v {
		u, v = v, u
	}
	return [2]int{u, v}
}
