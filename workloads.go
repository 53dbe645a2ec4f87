package hcd

import (
	"math/rand"

	"hcd/internal/treealg"
	"hcd/internal/workload"
)

// The workload re-exports give library users the same graph families the
// paper evaluates on without reaching into internal packages.

// WeightFn draws one edge weight.
type WeightFn = func(rng *rand.Rand) float64

// LognormalWeights returns a sampler of exp(σ·N(0,1)) weights — the paper's
// large-variation regime at σ ≥ 1.
func LognormalWeights(sigma float64) WeightFn { return workload.Lognormal(sigma) }

// UniformWeights returns a sampler of Uniform(lo, hi) weights.
func UniformWeights(lo, hi float64) WeightFn { return workload.UniformWeight(lo, hi) }

// Grid2D returns an nx×ny grid graph (nil wf = unit weights).
func Grid2D(nx, ny int, wf WeightFn, seed int64) *Graph {
	return workload.Grid2D(nx, ny, wf, seed)
}

// Grid3D returns an nx×ny×nz grid graph — the paper's weighted 3D regular
// grid (nil wf = unit weights).
func Grid3D(nx, ny, nz int, wf WeightFn, seed int64) *Graph {
	return workload.Grid3D(nx, ny, nz, wf, seed)
}

// Grid3DAnisotropic returns a 3D grid with fixed per-direction weights
// wx/wy/wz — the classic strong-coupling hard case for pointwise smoothers
// (ablation A5).
func Grid3DAnisotropic(nx, ny, nz int, wx, wy, wz float64) *Graph {
	return workload.Grid3DAnisotropic(nx, ny, nz, wx, wy, wz)
}

// OCTOptions configures the synthetic optical-coherence-tomography volume
// standing in for the paper's 3D medical scans.
type OCTOptions = workload.OCTOptions

// DefaultOCTOptions mirrors the paper's "very large weight variations"
// regime: 4 layers at contrast 100 with unit-σ speckle.
func DefaultOCTOptions() OCTOptions { return workload.DefaultOCTOptions() }

// OCT3D returns a synthetic layered, speckled 3D scan volume graph.
func OCT3D(nx, ny, nz int, opt OCTOptions) *Graph {
	return workload.OCT3D(nx, ny, nz, opt)
}

// PlanarMesh returns an nx×ny grid with one random diagonal per cell — a
// planar triangulated mesh for the Theorem 2.2 experiments.
func PlanarMesh(nx, ny int, wf WeightFn, seed int64) *Graph {
	return workload.GridDiag2D(nx, ny, wf, seed)
}

// RandomTree returns a uniformly random labeled tree (Prüfer sampling).
func RandomTree(n int, wf WeightFn, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	var draw func() float64
	if wf != nil {
		draw = func() float64 { return wf(rng) }
	}
	return treealg.RandomTree(rng, n, draw)
}
