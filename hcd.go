// Package hcd is a Go implementation of Koutis & Miller, "Graph partitioning
// into isolated, high conductance clusters: theory, computation and
// applications to preconditioning" (SPAA 2008).
//
// It decomposes weighted graphs into vertex-disjoint clusters whose closures
// (induced subgraph + one stub per boundary edge) all have conductance ≥ φ
// ([φ, ρ] decompositions), and uses the decompositions to build Steiner-graph
// preconditioners for graph Laplacian systems — including the recursive,
// multilevel variant that prefigures combinatorial multigrid.
//
// Quick start:
//
//	g, _ := hcd.NewGraph(n, edges)
//	r, _ := hcd.DecomposeCtx(ctx, g, hcd.DefaultDecomposeOptions(hcd.MethodFixedDegree))
//	rep := r.Report                              // measured φ, ρ, γ
//	p, _ := hcd.NewSteinerPreconditioner(r.D)    // Section 3 preconditioner
//	resp, _ := hcd.Do(ctx, g, hcd.SolveRequest{B: [][]float64{b}, M: p})
//	x := resp.Results[0].X                       // one result per right-hand side
//
// Every operation has one entry point, and every entry point that can run
// long takes a context: DecomposeCtx runs each decomposition method as named
// stages that honor cancellation and record themselves as build/<stage>
// spans of the context's tracer, and Do runs every solve. An Engine
// (NewEngine) keeps a preconditioner and its work buffers warm across solves;
// SolveRequest.Engine runs a Do call on one.
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-vs-measured record.
package hcd

import (
	"hcd/internal/decomp"
	"hcd/internal/graph"
	"hcd/internal/sparsify"
	"hcd/internal/spectralcut"
)

// Edge is an undirected weighted edge.
type Edge = graph.Edge

// Graph is an immutable weighted undirected graph in CSR form.
type Graph = graph.Graph

// NewGraph builds a graph on n vertices from an edge list; parallel edges
// merge by weight summation, self-loops and non-positive weights error.
// Negative vertex counts and out-of-range endpoints return errors wrapping
// ErrBadDimension.
func NewGraph(n int, edges []Edge) (*Graph, error) {
	return graph.NewFromEdges(n, edges)
}

// Decomposition is a partition of a graph's vertices into clusters.
type Decomposition = decomp.Decomposition

// Report summarizes decomposition quality (φ, ρ, γ, sizes).
type Report = decomp.Report

// MaxExactConductance is the largest cluster core (vertex count, stubs
// excluded) for which Evaluate certifies closure conductance exactly. The
// stub-aware certifier collapses boundary stubs into anchor volumes in
// closed form, so the limit applies to the cluster size — a 4-vertex cluster
// is certified in 2³ enumeration steps no matter how many boundary edges
// its closure has.
const MaxExactConductance = graph.MaxExactConductance

// CertStats counts exact-certification work (cores enumerated, stubs
// collapsed, core side-assignments visited, sweep-bound fallbacks); it is
// reported in Report.Cert.
type CertStats = graph.CertStats

// ClusterStats describes one cluster (size, volume, boundary, conductance).
type ClusterStats = decomp.ClusterStats

// Details returns per-cluster statistics sorted by ascending closure
// conductance — the problematic clusters first. Its φ and γ are Evaluate's
// own measurements: their minima are Report.Phi and Report.GammaMin.
func Details(d *Decomposition) []ClusterStats {
	return decomp.Details(d, graph.MaxExactConductance)
}

// AgreementReport holds the external clustering metrics of one comparison:
// purity of a against b and the Rand index over vertex pairs.
type AgreementReport = decomp.AgreementReport

// Agreement scores a cluster assignment against another (e.g. planted
// ground truth), returning the metrics as a single report struct.
func Agreement(a, b []int) (AgreementReport, error) {
	return decomp.Agreement(a, b)
}

// MergeSingletons greedily folds singleton clusters into their heaviest
// neighbor cluster whenever the merged closure's conductance stays ≥ minPhi
// (certified exactly). It improves ρ at no conductance cost below the floor
// and returns the new decomposition with the number of merges.
func MergeSingletons(d *Decomposition, minPhi float64) (*Decomposition, int) {
	return decomp.MergeSingletons(d, minPhi, graph.MaxExactConductance)
}

// BaseTree selects the spanning tree for the sparse-subgraph pipelines.
type BaseTree = sparsify.BaseTree

// Base tree choices for MethodPlanar and the tree and subgraph preconditioners.
const (
	MaxWeightTree  = sparsify.MaxWeightTree
	LowStretchTree = sparsify.LowStretchTree
)

// PlanarOptions configures the sparse subgraph — a base tree plus
// ExtraFraction·n off-tree edges, the paper's "constant fraction" — of the
// subgraph preconditioners.
type PlanarOptions = sparsify.Options

// DefaultPlanarOptions uses a max-weight base tree with n/4 extra edges.
func DefaultPlanarOptions() PlanarOptions { return sparsify.DefaultOptions() }

// Evaluate measures a decomposition: minimum closure conductance φ (exact
// for clusters of up to MaxExactConductance core vertices, however many
// stubs their closures carry), reduction factor ρ, per-vertex retention γ,
// size statistics, and certification work counters.
func Evaluate(d *Decomposition) Report {
	return decomp.Evaluate(d, graph.MaxExactConductance)
}

// Validate checks the partition invariants (coverage, range, connectivity).
func Validate(d *Decomposition) error { return d.Validate() }

// SpectralCutOptions configures the top-down recursive spectral baseline.
type SpectralCutOptions = spectralcut.Options

// SpectralCutStats reports its work profile (splits, eigensolves).
type SpectralCutStats = spectralcut.Stats

// DefaultSpectralCutOptions targets conductance 0.1.
func DefaultSpectralCutOptions() SpectralCutOptions { return spectralcut.DefaultOptions() }
