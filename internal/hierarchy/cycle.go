package hierarchy

// Cycle parameters: the one definition the scalar cycle, the block cycle and
// the test oracle share.
//
// On a level with Laplacian A, diagonal D, clustering R (the 0/1 membership
// matrix) and next-level operator C ≈ Q⁺, the smoothed cycle is
//
//	x ← ν damped-Jacobi steps from zero     (x ← x + ωD⁻¹(r − Ax))
//	x ← x + α·R·C·Rᵀ(r − Ax)
//	x ← ν more damped-Jacobi steps
//
// It is a fixed symmetric operator M for any α > 0 and 0 < ω < 1, positive
// definite on the mean-free subspace of every component, whenever C is — which
// the exact coarsest solve is, and each level hands that property up. With
// S = I − ωD⁻¹A the error propagation is E = Sᵛ(I − αRCRᵀA)Sᵛ, A-self-adjoint
// because D⁻¹ and C are symmetric, and
//
//	⟨Ee, e⟩_A = ‖Sᵛe‖²_A − α⟨C·RᵀASᵛe, RᵀASᵛe⟩ ≤ ‖Sᵛe‖²_A < ‖e‖²_A :
//
// the eigenvalues of D⁻¹A lie in (0, 2] on that subspace (2 exactly on
// bipartite graphs), so those of S lie in [1 − 2ω, 1) ⊂ (−1, 1) and S is a
// strict A-contraction. M = (I − E)A⁺ is therefore positive definite. S need
// not be positive semidefinite — ω ≤ ½ is sufficient, not necessary — and α
// changes the quality of M, never its definiteness. TestApplyIsSPD pins this
// on bipartite and non-bipartite graphs.

import (
	"fmt"

	"hcd/internal/graph"
)

const (
	// jacobiOmega is ω, the damped-Jacobi weight of the smoothed cycle.
	jacobiOmega = 0.8
	// coarseBeta is β in α = 1 + β·vol(Q)/vol(G). The exact two-level identity
	// has α = 1; a V-cycle under-solves Q, and piecewise-constant prolongation
	// makes the Galerkin quotient too stiff for what the smoother leaves, so
	// the coarse step is over-corrected — but only in proportion to the weight
	// the clustering cut: a mode constant on well-isolated clusters (γ near 1)
	// is already corrected exactly, and a constant α > 1 over-corrects it once
	// per level (DESIGN §12 "Cycle parameters").
	coarseBeta = 0.5
	// maxSmooth bounds Options.Smooth; it is the snapshot codec's bound too.
	maxSmooth = 64
)

// cycleScale returns a level's gamma — the fraction of its weight kept inside
// clusters, 1 − volQ/volG — and the coarse-correction scale alpha =
// 1 + beta·volQ/volG. volG and volQ are the total volumes of the level graph
// and of its quotient. A level without weight has nothing to correct: gamma 1,
// alpha 1.
func cycleScale(beta, volG, volQ float64) (gamma, alpha float64) {
	if !(volG > 0) {
		return 1, 1
	}
	cut := volQ / volG
	return 1 - cut, 1 + beta*cut
}

// checkSmooth rejects sweep counts the two cycles would not run alike (a
// negative count leaves the block cycle without post-smoothing, hence
// non-symmetric) or the snapshot codec could not carry.
func checkSmooth(smooth int) error {
	if smooth < 0 || smooth > maxSmooth {
		return fmt.Errorf("hierarchy: Smooth %d out of range [0,%d]: %w", smooth, maxSmooth, graph.ErrInvalidInput)
	}
	return nil
}
