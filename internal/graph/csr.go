package graph

// Raw CSR access for the snapshot codec (internal/gio). A Graph is immutable
// and its CSR arrays fully determine it, so persistence serializes the arrays
// verbatim and reconstruction adopts them after validation — no edge-list
// round trip, no per-row sort and merge.

import (
	"fmt"
	"math"
)

// CompactCSR exposes the graph's raw arrays: off (len n+1, adjacency
// offsets), adj (len 2m, neighbor ids) and w (len 2m, weights parallel to
// adj). The slices are backed by the graph's own storage — callers must treat
// them as read-only.
func (g *Graph) CompactCSR() (off []int, adj []int32, w []float64) {
	return g.off, g.adj, g.w
}

// CSR is CompactCSR with the neighbor ids widened to int: off and w are the
// graph's own storage (read-only), adj is a fresh 8-byte-per-entry copy made
// on every call. It exists for callers that hash or compare ids as int; code
// that only reads the arrays should use CompactCSR.
func (g *Graph) CSR() (off []int, adj []int, w []float64) {
	adj = make([]int, len(g.adj))
	for i, u := range g.adj {
		adj[i] = int(u)
	}
	return g.off, adj, g.w
}

// NewFromCSR adopts CSR arrays as a graph, taking ownership of the slices.
// It validates the structural invariants a corrupted or hostile encoding
// could break — offset monotonicity and bounds, neighbor ranges, self-loops,
// finite positive weights — and recomputes the volume array and the row-group
// table. Symmetry (every
// edge appearing once per endpoint with equal weight) is the caller's
// contract: the snapshot codec guards it with checksums rather than an
// O(m·d) verification pass.
func NewFromCSR(off []int, adj []int32, w []float64) (*Graph, error) {
	if len(off) < 1 || off[0] != 0 {
		return nil, fmt.Errorf("graph: CSR offsets must start at 0: %w", ErrInvalidInput)
	}
	n := len(off) - 1
	if n > math.MaxInt32 {
		return nil, fmt.Errorf("graph: CSR vertex count %d exceeds the 32-bit adjacency ids: %w", n, ErrInvalidInput)
	}
	if len(adj) != len(w) {
		return nil, fmt.Errorf("graph: CSR adjacency/weight length mismatch %d vs %d: %w", len(adj), len(w), ErrInvalidInput)
	}
	if off[n] != len(adj) {
		return nil, fmt.Errorf("graph: CSR final offset %d does not match adjacency length %d: %w", off[n], len(adj), ErrInvalidInput)
	}
	if len(adj)%2 != 0 {
		return nil, fmt.Errorf("graph: CSR adjacency length %d is odd: %w", len(adj), ErrInvalidInput)
	}
	for v := 0; v < n; v++ {
		if off[v+1] < off[v] {
			return nil, fmt.Errorf("graph: CSR offsets decrease at vertex %d: %w", v, ErrInvalidInput)
		}
	}
	g := &Graph{off: off, adj: adj, w: w, vol: make([]float64, n)}
	for v := 0; v < n; v++ {
		for i := off[v]; i < off[v+1]; i++ {
			u := int(adj[i])
			if u < 0 || u >= n {
				return nil, fmt.Errorf("graph: CSR neighbor %d of vertex %d out of range [0,%d): %w", u, v, n, ErrInvalidInput)
			}
			if u == v {
				return nil, fmt.Errorf("graph: CSR self-loop at vertex %d: %w", v, ErrInvalidInput)
			}
			if !(w[i] > 0) || math.IsInf(w[i], 0) {
				return nil, fmt.Errorf("graph: CSR weight %v on edge (%d,%d) invalid: %w", w[i], v, u, ErrInvalidInput)
			}
			g.vol[v] += w[i]
		}
	}
	g.groups = rowGroups(off)
	return g, nil
}
