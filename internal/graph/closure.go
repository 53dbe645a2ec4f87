package graph

import "fmt"

// InducedSubgraph returns the subgraph induced by the vertex set s, together
// with the mapping from new vertex ids (0..len(s)−1) back to the originals.
// Duplicate or out-of-range entries in s return an error (a malformed
// cluster, not a programming invariant of this package).
func (g *Graph) InducedSubgraph(s []int) (*Graph, []int, error) {
	idx := make(map[int]int, len(s))
	back := make([]int, len(s))
	for i, v := range s {
		if v < 0 || v >= g.N() {
			return nil, nil, fmt.Errorf("graph: InducedSubgraph vertex %d out of range [0,%d)", v, g.N())
		}
		if _, dup := idx[v]; dup {
			return nil, nil, fmt.Errorf("graph: duplicate vertex %d in InducedSubgraph", v)
		}
		idx[v] = i
		back[i] = v
	}
	var es []Edge
	for i, v := range s {
		nbr, w := g.Neighbors(v)
		for k, u := range nbr {
			if j, ok := idx[int(u)]; ok && i < j {
				es = append(es, Edge{U: i, V: j, W: w[k]})
			}
		}
	}
	sub, err := NewFromEdges(len(s), es)
	if err != nil {
		return nil, nil, err
	}
	return sub, back, nil
}

// Closure returns the closure graph of cluster s: the induced subgraph on s
// plus one new degree-1 "stub" vertex for every edge leaving s, attached with
// that edge's weight. Cluster vertices keep ids 0..len(s)−1 (in the order of
// s); stubs follow. This is the graph G°ᵢ of the paper's Section 2, whose
// conductance defines a [φ, ρ] decomposition.
//
// Duplicate or out-of-range vertices in s describe a malformed cluster, not
// a package invariant: they return an error wrapping ErrInvalidInput.
func (g *Graph) Closure(s []int) (*Graph, []int, error) {
	idx := make(map[int]int, len(s))
	back := make([]int, len(s))
	for i, v := range s {
		if v < 0 || v >= g.N() {
			return nil, nil, fmt.Errorf("graph: Closure vertex %d out of range [0,%d): %w", v, g.N(), ErrInvalidInput)
		}
		if _, dup := idx[v]; dup {
			return nil, nil, fmt.Errorf("graph: duplicate vertex %d in Closure: %w", v, ErrInvalidInput)
		}
		idx[v] = i
		back[i] = v
	}
	var es []Edge
	next := len(s)
	for i, v := range s {
		nbr, w := g.Neighbors(v)
		for k, u := range nbr {
			if j, ok := idx[int(u)]; ok {
				if i < j {
					es = append(es, Edge{U: i, V: j, W: w[k]})
				}
			} else {
				es = append(es, Edge{U: i, V: next, W: w[k]})
				next++
			}
		}
	}
	return MustFromEdges(next, es), back, nil
}
