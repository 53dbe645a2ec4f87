// Package spectral implements Section 4: the normalized Laplacian
// Â = D^{−1/2} A D^{−1/2}, a Lanczos eigensolver (full reorthogonalization,
// kernel deflation) for its smallest eigenpairs, Cheeger-inequality
// conductance bounds, and the Theorem 4.1 measurement — how close low
// eigenvectors lie to the cluster-wise constant space Range(D^{1/2}R).
package spectral

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"hcd/internal/decomp"
	"hcd/internal/dense"
	"hcd/internal/graph"
)

// normalizedMul computes dst = Â·x = D^{−1/2} A D^{−1/2} x for the graph g,
// given precomputed sqrtD (√vol per vertex; zeros for isolated vertices are
// passed through).
func normalizedMul(g *graph.Graph, sqrtD, dst, x, scratch []float64) {
	n := g.N()
	for v := 0; v < n; v++ {
		if sqrtD[v] > 0 {
			scratch[v] = x[v] / sqrtD[v]
		} else {
			scratch[v] = 0
		}
	}
	g.LapMul(dst, scratch)
	for v := 0; v < n; v++ {
		if sqrtD[v] > 0 {
			dst[v] /= sqrtD[v]
		} else {
			dst[v] = 0
		}
	}
}

// SqrtVolumes returns √vol(v) for every vertex.
func SqrtVolumes(g *graph.Graph) []float64 {
	d := g.Volumes()
	for i, v := range d {
		d[i] = math.Sqrt(v)
	}
	return d
}

// Smallest returns the k smallest non-kernel eigenpairs (ascending) of the
// normalized Laplacian of the connected graph g, via Lanczos with full
// reorthogonalization on 2I − Â with the kernel vector D^{1/2}1 deflated.
// iters bounds the Krylov dimension (0 picks a default).
func Smallest(g *graph.Graph, k, iters int, seed int64) ([]float64, [][]float64, error) {
	n := g.N()
	if !g.Connected() {
		return nil, nil, fmt.Errorf("spectral: %w", graph.ErrDisconnected)
	}
	if k < 1 || k >= n {
		return nil, nil, fmt.Errorf("spectral: k=%d out of range for n=%d", k, n)
	}
	if iters <= 0 {
		iters = 4*k + 40
	}
	if iters > n-1 {
		iters = n - 1
	}
	if iters < k {
		iters = k
	}
	sqrtD := SqrtVolumes(g)
	// Deflation vector: normalized D^{1/2}·1.
	kernel := make([]float64, n)
	norm := 0.0
	for v := 0; v < n; v++ {
		kernel[v] = sqrtD[v]
		norm += sqrtD[v] * sqrtD[v]
	}
	norm = math.Sqrt(norm)
	for v := range kernel {
		kernel[v] /= norm
	}
	rng := rand.New(rand.NewSource(seed))
	scratch := make([]float64, n)
	opMul := func(dst, x []float64) { // 2I − Â
		normalizedMul(g, sqrtD, dst, x, scratch)
		for i := range dst {
			dst[i] = 2*x[i] - dst[i]
		}
	}
	// Lanczos with full reorthogonalization.
	basis := make([][]float64, 0, iters)
	var alphas, betas []float64
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	orthogonalize(v, kernel)
	if nrm := norm2(v); nrm == 0 {
		return nil, nil, fmt.Errorf("spectral: degenerate start vector")
	} else {
		scale(v, 1/nrm)
	}
	w := make([]float64, n)
	for j := 0; j < iters; j++ {
		basis = append(basis, append([]float64(nil), v...))
		opMul(w, v)
		alpha := dot(w, v)
		alphas = append(alphas, alpha)
		// w ← w − αv − βv_{j−1}, then full reorthogonalization.
		for i := range w {
			w[i] -= alpha * v[i]
		}
		if j > 0 {
			beta := betas[j-1]
			prev := basis[j-1]
			for i := range w {
				w[i] -= beta * prev[i]
			}
		}
		orthogonalize(w, kernel)
		for _, b := range basis {
			orthogonalize(w, b)
		}
		beta := norm2(w)
		if beta < 1e-12 {
			break
		}
		betas = append(betas, beta)
		copy(v, w)
		scale(v, 1/beta)
	}
	m := len(alphas)
	if m < k {
		return nil, nil, fmt.Errorf("spectral: Lanczos terminated after %d < k steps", m)
	}
	// Ritz pairs of the tridiagonal.
	tri := dense.NewMatrix(m, m)
	for i := 0; i < m; i++ {
		tri.Set(i, i, alphas[i])
		if i+1 < m {
			tri.Set(i, i+1, betas[i])
			tri.Set(i+1, i, betas[i])
		}
	}
	tv, tvecs, err := dense.SymEig(tri)
	if err != nil {
		return nil, nil, err
	}
	// Largest eigenvalues of 2I−Â ↔ smallest of Â.
	vals := make([]float64, k)
	vecs := make([][]float64, k)
	for idx := 0; idx < k; idx++ {
		col := m - 1 - idx
		vals[idx] = 2 - tv[col]
		vec := make([]float64, n)
		for j := 0; j < m; j++ {
			c := tvecs.At(j, col)
			for i := 0; i < n; i++ {
				vec[i] += c * basis[j][i]
			}
		}
		if nrm := norm2(vec); nrm > 0 {
			scale(vec, 1/nrm)
		}
		vecs[idx] = vec
	}
	return vals, vecs, nil
}

// CheegerBounds returns (lower, upper) bounds on the conductance of the
// connected graph g from the Cheeger inequality λ₂/2 ≤ φ ≤ √(2λ₂), with the
// upper bound tightened by a sweep cut over the second eigenvector.
func CheegerBounds(g *graph.Graph, seed int64) (float64, float64, error) {
	if g.N() < 2 {
		return math.Inf(1), math.Inf(1), nil
	}
	vals, vecs, err := Smallest(g, 1, 0, seed)
	if err != nil {
		return 0, 0, err
	}
	lambda2 := vals[0]
	lower := lambda2 / 2
	upper := math.Sqrt(2 * lambda2)
	// Sweep the Fiedler-like vector D^{−1/2}x for a certified cut.
	sqrtD := SqrtVolumes(g)
	score := make([]float64, g.N())
	perm := make([]int, g.N())
	for v := range score {
		if sqrtD[v] > 0 {
			score[v] = vecs[0][v] / sqrtD[v]
		}
		perm[v] = v
	}
	sortByScore(perm, score)
	if s, _ := g.SweepCut(perm); s < upper {
		upper = s
	}
	return lower, upper, nil
}

// Alignment returns ‖proj(x)‖² where proj is the orthogonal projection onto
// Range(D^{1/2}R) for the decomposition d: the squared cosine of Theorem
// 4.1's z. The columns of D^{1/2}R have disjoint supports, so the projection
// is a per-cluster weighted average. x must be a unit vector.
func Alignment(d *decomp.Decomposition, x []float64) float64 {
	g := d.G
	num := make([]float64, d.Count)
	den := make([]float64, d.Count)
	for v, c := range d.Assign {
		s := math.Sqrt(g.Vol(v))
		num[c] += s * x[v]
		den[c] += g.Vol(v)
	}
	total := 0.0
	for c := range num {
		if den[c] > 0 {
			total += num[c] * num[c] / den[c]
		}
	}
	return total
}

func orthogonalize(v, against []float64) {
	d := dot(v, against)
	for i := range v {
		v[i] -= d * against[i]
	}
}

func dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

func norm2(x []float64) float64 { return math.Sqrt(dot(x, x)) }

func scale(x []float64, a float64) {
	for i := range x {
		x[i] *= a
	}
}

func sortByScore(perm []int, score []float64) {
	sort.Slice(perm, func(i, j int) bool { return score[perm[i]] < score[perm[j]] })
}
