package hierarchy

// Cycle parameters: the one definition the scalar cycle, the block cycle and
// the test oracle share.
//
// On a level with Laplacian A, diagonal D, clustering R (the 0/1 membership
// matrix) and next-level operator C ≈ Q⁺, the smoothed cycle is, with ν = 1,
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
// changes the quality of M, never its definiteness.
//
// Visits. One cycle per level under-solves Q, and the loss compounds with
// depth; the deep levels are also nearly free. So where everything below a
// level costs at most 1/cycleShare of what the finest level's own passes cost,
// the level visits it twice (cycleVisits): the coarse apply becomes two steps
// of the stationary iteration the next level's cycle M′ preconditions,
//
//	x_c ← M′r_c;  x_c ← x_c + M′(r_c − Q·x_c),        C = M′(2I − QM′).
//
// C is symmetric because M′ is, and its eigenvalues on Q's range are t(2 − t)
// for the eigenvalues t of M′Q, positive exactly when λmax(M′Q) < 2. That holds
// along the whole doubled tail by induction from the bottom. If a level's
// coarse operator has λmax(CQ) ≤ c₀, then — Π = RQ⁺RᵀA being the A-orthogonal
// projection onto range(R) —
//
//	α⟨C·RᵀAf, RᵀAf⟩ ≤ α·c₀·‖Πf‖²_A ≤ α·c₀·‖f‖²_A,   f = Sᵛe,
//
// so λmin(E) ≥ min(0, 1 − α·c₀) and λmax(MA) ≤ max(1, α·c₀). The exact solve
// has c₀ = 1, so the last level has λmax(MA) ≤ α ≤ 1 + coarseBeta = 1.5 < 2;
// t ↦ t(2 − t) maps (0, 2) into (0, 1], so a doubled level sees c₀ ≤ 1 again
// and hands λmax ≤ 1.5 up in turn. Above the tail a level takes any positive
// definite C, as before. TestApplyIsSPD pins all of this on bipartite and
// non-bipartite graphs, with and without a doubled tail.

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
	// cycleShare is c in the visit rule: a level is visited twice when that
	// costs at most entries(0)/c, so the doubled tail adds at most 2/c to the
	// work of one V-cycle (DESIGN §12 "Cycle shape" has the table c was picked
	// from).
	cycleShare = 4
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

// cycleVisits returns how often one visit of each level applies the level
// below it — 1, or 2 for the two-step coarse iteration — and the number of
// stored matrix entries one whole apply streams. nnz[ℓ] is the stored entry
// count of level ℓ's graph and factorNNZ that of the coarse factor. A visit
// of a smoothed level ℓ passes over its rows twice (the residual and the
// post-step; the first step is diagonal-only), a coarse solve over the factor
// twice, and the residual between two visits over the next level's rows
// once; bottom-up,
//
//	work(ℓ) = 2·nnz[ℓ] + visits[ℓ]·work(ℓ+1) + (visits[ℓ] − 1)·nnz[ℓ+1]
//	visits[ℓ] = 2  ⇔  work(ℓ+1) ≤ 2·nnz[0] / share.
//
// work decreases with depth, so the doubled levels are a tail: everything from
// the first doubled level down to the last but one. The last level never
// doubles — its coarse operator is the exact solve, and a second step of an
// exact solve corrects nothing — and neither does the unsmoothed Steiner
// recursion, which has no residual to iterate on and passes over no level's
// rows. share = +Inf is the plain V-cycle, share = 0 the W-cycle from the
// finest level.
func cycleVisits(share float64, smoothed bool, nnz []int, factorNNZ int) (visits []int, touched int) {
	visits = make([]int, len(nnz))
	work := 2 * factorNNZ
	for level := len(nnz) - 1; level >= 0; level-- {
		visits[level] = 1
		if !smoothed {
			continue
		}
		if level+1 < len(nnz) && float64(work) <= float64(2*nnz[0])/share {
			visits[level] = 2
			work = 2*work + nnz[level+1]
		}
		work += 2 * nnz[level]
	}
	return visits, work
}

// planCycle sets every level's visit count by cycleVisits and records what one
// apply then touches. Only stored state goes in, so a single-pass build, a
// sharded one, Rebuild and a snapshot restore of the same levels agree.
func (h *Hierarchy) planCycle(share float64) {
	nnz := make([]int, len(h.levels))
	smoothed := false
	for i, l := range h.levels {
		nnz[i], smoothed = 2*l.g.M(), l.smoothed
	}
	visits, touched := cycleVisits(share, smoothed, nnz, h.coarse.NNZ())
	for i, l := range h.levels {
		l.visits = visits[i]
	}
	h.cycleEntries = touched
}
