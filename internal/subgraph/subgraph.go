// Package subgraph implements the classical subgraph (Vaidya-style)
// preconditioner: a spanning tree plus a few off-tree edges, B, applied as an
// exact solve with B. This is the baseline the paper compares Steiner
// preconditioners against in Figure 6, and Remark 2's foil: the factor's
// triangular solves are an inherently sequential chain, in contrast to the
// cluster-wise sums of the Steiner apply.
package subgraph

import (
	"fmt"

	"hcd/internal/graph"
	"hcd/internal/sparse"
)

// Preconditioner applies B⁺ exactly through a sparse Cholesky factor of the
// whole subgraph Laplacian (sparse.LapFactor): its minimum-degree ordering
// eliminates B's degree-1 and degree-2 chains before anything else, and its
// solves return the zero-mean solution on every component of B. ApplyBlock is
// the solver's block fast path.
type Preconditioner struct{ f *sparse.LapFactor }

// New factors the subgraph b.
func New(b *graph.Graph) (*Preconditioner, error) {
	f, err := sparse.NewLapFactor(b)
	if err != nil {
		return nil, fmt.Errorf("subgraph: factorization failed: %w", err)
	}
	return &Preconditioner{f: f}, nil
}

// Dim returns the system dimension.
func (p *Preconditioner) Dim() int { return p.f.Dim() }

// Apply computes dst = B⁺·r.
func (p *Preconditioner) Apply(dst, r []float64) { p.f.Solve(dst, r) }

// ApplyBlock computes dst = B⁺·r for k packed columns.
func (p *Preconditioner) ApplyBlock(dst, r []float64, k int) { p.f.SolveBlock(dst, r, k) }

// ProbeCoreSize runs the degree-1/2 elimination of b without numerics and
// returns the size of the remaining core — cheap enough to drive parameter
// searches like the matched-reduction construction of Figure 6, whose
// reduction factor is n divided by this count.
func ProbeCoreSize(b *graph.Graph) int {
	n := b.N()
	adj := make([]map[int]bool, n)
	for v := 0; v < n; v++ {
		m := make(map[int]bool)
		nbr, _ := b.Neighbors(v)
		for _, u := range nbr {
			m[int(u)] = true
		}
		adj[v] = m
	}
	alive := make([]bool, n)
	var queue []int
	for v := 0; v < n; v++ {
		alive[v] = true
		if len(adj[v]) <= 2 {
			queue = append(queue, v)
		}
	}
	count := n
	for len(queue) > 0 {
		v := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if !alive[v] || len(adj[v]) > 2 {
			continue
		}
		alive[v] = false
		count--
		var us []int
		for u := range adj[v] {
			us = append(us, u)
		}
		for _, u := range us {
			delete(adj[u], v)
		}
		if len(us) == 2 {
			if us[0] > us[1] { // map order must not decide the queue order
				us[0], us[1] = us[1], us[0]
			}
			adj[us[0]][us[1]] = true
			adj[us[1]][us[0]] = true
		}
		for _, u := range us {
			if alive[u] && len(adj[u]) <= 2 {
				queue = append(queue, u)
			}
		}
	}
	return count
}
