// Package support provides the support-theory numerics of the paper's
// appendix: generalized eigenvalue extremes of Laplacian pencils (Definition
// 5.2 / Lemma 5.3), support numbers σ(A,B) measured either densely or
// through PCG probes, and the congestion–dilation embedding bound behind the
// splitting-lemma argument of Theorem 3.5.
package support

import (
	"context"
	"fmt"
	"math"

	"hcd/internal/dense"
	"hcd/internal/graph"
	"hcd/internal/solver"
)

// GeneralizedExtremes returns the smallest and largest generalized
// eigenvalues of the pencil (B, A) — λ with Bx = λAx — restricted to the
// subspace where A is positive (eigenvalues of A below relTol·λmax(A) are
// treated as the common null space). Both matrices must be symmetric PSD
// with the same null space for the numbers to mean support values.
func GeneralizedExtremes(b, a *dense.Matrix, relTol float64) (float64, float64, error) {
	if a.Rows != a.Cols || b.Rows != b.Cols || a.Rows != b.Rows {
		return 0, 0, fmt.Errorf("support: shape mismatch")
	}
	n := a.Rows
	vals, vecs, err := dense.SymEig(a)
	if err != nil {
		return 0, 0, err
	}
	lmax := vals[n-1]
	if lmax <= 0 {
		return 0, 0, fmt.Errorf("support: A is zero or negative")
	}
	cut := relTol * lmax
	var keep []int
	for i, l := range vals {
		if l > cut {
			keep = append(keep, i)
		}
	}
	r := len(keep)
	if r == 0 {
		return 0, 0, fmt.Errorf("support: A has no positive spectrum above tolerance")
	}
	// W = U_r Λ_r^{−1/2}; M = Wᵀ B W is symmetric with eigenvalues equal to
	// the generalized eigenvalues of (B, A) on range(A).
	w := dense.NewMatrix(n, r)
	for j, idx := range keep {
		s := 1 / math.Sqrt(vals[idx])
		for i := 0; i < n; i++ {
			w.Set(i, j, vecs.At(i, idx)*s)
		}
	}
	bw := dense.NewMatrix(n, r)
	for i := 0; i < n; i++ {
		for k := 0; k < n; k++ {
			for j := 0; j < r; j++ {
				bw.Add(i, j, b.At(i, k)*w.At(k, j))
			}
		}
	}
	m := dense.NewMatrix(r, r)
	for i := 0; i < r; i++ {
		for k := 0; k < n; k++ {
			for j := 0; j < r; j++ {
				m.Add(i, j, w.At(k, i)*bw.At(k, j))
			}
		}
	}
	mv, _, err := dense.SymEig(m)
	if err != nil {
		return 0, 0, err
	}
	return mv[0], mv[r-1], nil
}

// Sigma returns σ(B, A) = λmax(B, A) for dense Laplacian pencils — the
// support number of Definition 5.1 via the Rayleigh characterization of
// Lemma 5.3.
func Sigma(b, a *dense.Matrix) (float64, error) {
	_, hi, err := GeneralizedExtremes(b, a, 1e-9)
	return hi, err
}

// ConditionNumber returns κ(A, B) = σ(A,B)·σ(B,A) for dense pencils.
func ConditionNumber(a, b *dense.Matrix) (float64, error) {
	lo, hi, err := GeneralizedExtremes(b, a, 1e-9)
	if err != nil {
		return 0, err
	}
	if lo <= 0 {
		return math.Inf(1), nil
	}
	return hi / lo, nil
}

// Numbers holds PCG-probed support values for a pair (A, B) where B is
// given through its (pseudo)inverse applier.
type Numbers struct {
	SigmaAB float64 // σ(A, B) = λmax(B⁺A)
	SigmaBA float64 // σ(B, A) = 1/λmin(B⁺A)
	Kappa   float64 // condition number κ(A,B)
}

// Probe estimates the support numbers of (A, B) from the Lanczos tridiagonal
// of a PCG run with preconditioner B⁺ and the given probe right-hand side.
// iters bounds the Lanczos depth; 50–100 gives 2–3 digits on well-behaved
// pencils.
func Probe(a solver.Operator, bInv solver.Preconditioner, probe []float64, iters int) (Numbers, error) {
	res, err := solver.PCGCtx(context.Background(), a, bInv, probe, solver.Options{Tol: 1e-14, MaxIter: iters})
	if err != nil {
		return Numbers{}, err
	}
	lmin, lmax, err := solver.SpectrumEstimate(res.Alphas, res.Betas)
	if err != nil {
		return Numbers{}, err
	}
	out := Numbers{SigmaAB: lmax}
	if lmin > 0 {
		out.SigmaBA = 1 / lmin
		out.Kappa = lmax / lmin
	} else {
		out.SigmaBA = math.Inf(1)
		out.Kappa = math.Inf(1)
	}
	return out, nil
}

// WeightedPath routes a fraction of an edge's weight along a path of
// B-edges.
type WeightedPath struct {
	Weight float64  // the portion of the A-edge's weight carried
	Edges  [][2]int // contiguous B-edges from the A-edge's U to its V
}

// FractionalEmbeddingBound generalizes EmbeddingBound to fractional
// routings: each A-edge's weight may be split across several paths (the
// routing Theorem 3.5 uses, where every crossing edge carries its own share
// of the quotient edge). For each A-edge the path weights must sum to the
// edge weight. The bound is
//
//	σ(A, B) ≤ max over f ∈ B of (Σ paths through f: weight·|path|) / w_B(f).
func FractionalEmbeddingBound(a, b *graph.Graph, routes [][]WeightedPath) (float64, error) {
	ea := a.Edges()
	if len(routes) != len(ea) {
		return 0, fmt.Errorf("support: need one route set per edge of A (%d vs %d)", len(routes), len(ea))
	}
	congestion := make(map[[2]int]float64)
	key := func(u, v int) [2]int {
		if u > v {
			u, v = v, u
		}
		return [2]int{u, v}
	}
	for i, e := range ea {
		total := 0.0
		for _, wp := range routes[i] {
			if wp.Weight <= 0 {
				return 0, fmt.Errorf("support: non-positive path weight for edge %d", i)
			}
			if len(wp.Edges) == 0 {
				return 0, fmt.Errorf("support: empty path for edge %d", i)
			}
			cur := e.U
			for _, f := range wp.Edges {
				if _, ok := b.Weight(f[0], f[1]); !ok {
					return 0, fmt.Errorf("support: path uses non-edge (%d,%d) of B", f[0], f[1])
				}
				switch cur {
				case f[0]:
					cur = f[1]
				case f[1]:
					cur = f[0]
				default:
					return 0, fmt.Errorf("support: path for edge %d is not contiguous", i)
				}
			}
			if cur != e.V {
				return 0, fmt.Errorf("support: path for edge %d ends at %d, want %d", i, cur, e.V)
			}
			total += wp.Weight
			load := wp.Weight * float64(len(wp.Edges))
			for _, f := range wp.Edges {
				congestion[key(f[0], f[1])] += load
			}
		}
		if mathAbs(total-e.W) > 1e-9*e.W {
			return 0, fmt.Errorf("support: edge %d routes %v of weight %v", i, total, e.W)
		}
	}
	bound := 0.0
	for k, c := range congestion {
		w, _ := b.Weight(k[0], k[1])
		if r := c / w; r > bound {
			bound = r
		}
	}
	return bound, nil
}

func mathAbs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// EmbeddingBound evaluates the congestion–dilation support bound: routing
// every edge e of A along a path of edges of B, the splitting lemma gives
//
//	σ(A, B) ≤ max over f ∈ B of (Σ_{e: f ∈ path(e)} w_A(e)·|path(e)|) / w_B(f).
//
// paths[i] lists the B-edges (as index pairs) routing the i-th edge of
// a.Edges(). It returns the bound, or an error if a path uses a non-edge of
// b or does not connect the endpoints of its A-edge.
func EmbeddingBound(a, b *graph.Graph, paths [][][2]int) (float64, error) {
	ea := a.Edges()
	if len(paths) != len(ea) {
		return 0, fmt.Errorf("support: need one path per edge of A (%d vs %d)", len(paths), len(ea))
	}
	congestion := make(map[[2]int]float64)
	key := func(u, v int) [2]int {
		if u > v {
			u, v = v, u
		}
		return [2]int{u, v}
	}
	for i, e := range ea {
		path := paths[i]
		if len(path) == 0 {
			return 0, fmt.Errorf("support: empty path for edge %d", i)
		}
		// Verify connectivity: the path must walk from e.U to e.V.
		cur := e.U
		for _, f := range path {
			if _, ok := b.Weight(f[0], f[1]); !ok {
				return 0, fmt.Errorf("support: path uses non-edge (%d,%d) of B", f[0], f[1])
			}
			switch cur {
			case f[0]:
				cur = f[1]
			case f[1]:
				cur = f[0]
			default:
				return 0, fmt.Errorf("support: path for edge %d is not contiguous", i)
			}
		}
		if cur != e.V {
			return 0, fmt.Errorf("support: path for edge %d ends at %d, want %d", i, cur, e.V)
		}
		load := e.W * float64(len(path))
		for _, f := range path {
			congestion[key(f[0], f[1])] += load
		}
	}
	bound := 0.0
	for k, c := range congestion {
		w, _ := b.Weight(k[0], k[1])
		if r := c / w; r > bound {
			bound = r
		}
	}
	return bound, nil
}
