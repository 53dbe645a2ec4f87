package graph

import "fmt"

// Permuted returns g with its vertices renumbered: vertex i of the result is
// vertex order[i] of g. Every row keeps its entries in g's order — only the
// neighbor ids are renamed — so each row sum (LapMul, Vol) adds the same
// numbers in the same sequence and is bit-identical to the corresponding row
// of g; rows of the result are in general not neighbor-sorted. order must be
// a permutation of [0, N()); anything else returns an error wrapping
// ErrInvalidInput.
func (g *Graph) Permuted(order []int) (*Graph, error) {
	n := g.N()
	if len(order) != n {
		return nil, fmt.Errorf("graph: permutation has %d entries, graph has %d vertices: %w", len(order), n, ErrInvalidInput)
	}
	// inv[old] = new + 1 while validating, so the zero value marks "unseen".
	inv := make([]int32, n)
	for i, v := range order {
		if v < 0 || v >= n {
			return nil, fmt.Errorf("graph: permutation entry %d = %d out of range [0,%d): %w", i, v, n, ErrInvalidInput)
		}
		if inv[v] != 0 {
			return nil, fmt.Errorf("graph: permutation lists vertex %d twice: %w", v, ErrInvalidInput)
		}
		inv[v] = int32(i) + 1
	}
	p := &Graph{
		off: make([]int, n+1),
		adj: make([]int32, len(g.adj)),
		w:   make([]float64, len(g.w)),
		vol: make([]float64, n),
	}
	at := 0
	for i, v := range order {
		for j := g.off[v]; j < g.off[v+1]; j++ {
			p.adj[at], p.w[at] = inv[g.adj[j]]-1, g.w[j]
			at++
		}
		p.off[i+1] = at
		p.vol[i] = g.vol[v]
	}
	p.groups = rowGroups(p.off)
	return p, nil
}
