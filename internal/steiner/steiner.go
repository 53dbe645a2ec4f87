// Package steiner holds the Steiner graphs of Section 3 as test oracles.
// Given a decomposition P of a graph A, Definition 3.1 attaches to each
// cluster Vi a star Ti whose root ri connects to every u ∈ Vi with weight
// vol(u), and joins the roots by the quotient graph Q with
// w(ri, rj) = cap(Vi, Vj): the Steiner graph S_P = Q + Σ Ti.
//
// Gremban showed preconditioning with S_P is equivalent to preconditioning
// with its Schur complement B = D − V(Q+D_Q)⁻¹Vᵀ on the original vertices.
// Eliminating the leaf block analytically collapses the whole apply to
//
//	B⁺ r = D⁻¹ r + R Q⁺ (Rᵀ r)
//
// — one diagonal scale, one restriction, a quotient Laplacian solve, and one
// prolongation: the "weighted cluster-wise sums" of Remark 2. That apply is
// the unsmoothed level of internal/hierarchy (hierarchy.NewSteiner); this
// package materializes S_P and B, densely, to check it against.
package steiner

import (
	"fmt"

	"hcd/internal/decomp"
	"hcd/internal/dense"
	"hcd/internal/graph"
)

// SteinerGraph materializes S_P itself: vertices 0..n−1 are the leaves
// (original vertices), n..n+m−1 the cluster roots. Used by the verification
// tests and the spectral experiments of Section 4.
func SteinerGraph(d *decomp.Decomposition) *graph.Graph {
	g := d.G
	n := g.N()
	var es []graph.Edge
	for v := 0; v < n; v++ {
		if g.Vol(v) > 0 {
			es = append(es, graph.Edge{U: v, V: n + d.Assign[v], W: g.Vol(v)})
		}
	}
	q := g.Contract(d.Assign, d.Count)
	for _, e := range q.Edges() {
		es = append(es, graph.Edge{U: n + e.U, V: n + e.V, W: e.W})
	}
	return graph.MustFromEdges(n+d.Count, es)
}

// SchurDense computes the Schur complement B = D − V(Q+D_Q)⁻¹Vᵀ densely;
// for tests and the Theorem 3.5 / 4.1 verifications on small graphs only.
func SchurDense(d *decomp.Decomposition) (*dense.Matrix, error) {
	g := d.G
	n, m := g.N(), d.Count
	q := g.Contract(d.Assign, d.Count)
	// Q + D_Q is strictly diagonally dominant wherever a cluster has
	// volume, hence SPD after dropping zero rows; assemble densely.
	qd := dense.FromRowMajor(m, m, q.LapDense())
	for v := 0; v < n; v++ {
		c := d.Assign[v]
		qd.Add(c, c, g.Vol(v))
	}
	ch, err := dense.NewCholesky(qd)
	if err != nil {
		return nil, fmt.Errorf("steiner: Q+D_Q not SPD: %w", err)
	}
	// B = D − V (Q+D_Q)⁻¹ Vᵀ with V = DR: column c of Vᵀ is the volume
	// vector of cluster c.
	b := dense.NewMatrix(n, n)
	// Compute X = (Q+D_Q)⁻¹ Vᵀ column by column over original vertices.
	col := make([]float64, m)
	sol := make([]float64, m)
	for u := 0; u < n; u++ {
		for i := range col {
			col[i] = 0
		}
		col[d.Assign[u]] = g.Vol(u)
		ch.Solve(sol, col)
		for v := 0; v < n; v++ {
			b.Add(v, u, -g.Vol(v)*sol[d.Assign[v]])
		}
	}
	for v := 0; v < n; v++ {
		b.Add(v, v, g.Vol(v))
	}
	return b, nil
}
