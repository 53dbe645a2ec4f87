// Package graph provides weighted undirected graphs in compressed sparse row
// (CSR) form, together with the volume/cut/conductance machinery used
// throughout the decomposition and preconditioning code.
//
// Terminology follows Koutis & Miller (SPAA 2008):
//
//   - vol(v) is the total weight incident to vertex v.
//   - cap(U, V) is the total weight of edges with one endpoint in U and the
//     other in V.
//   - out(S) is cap(S, V−S).
//   - The sparsity of a cut (S, V−S) is out(S)/min(vol(S), vol(V−S)) and the
//     conductance of a graph is the minimum sparsity over all cuts.
//   - The closure of a cluster C is the graph induced by C plus one degree-1
//     stub vertex per edge leaving C.
package graph

import (
	"fmt"
	"math"

	"hcd/internal/kernel"
)

// Edge is an undirected weighted edge. The orientation of (U, V) carries no
// meaning.
type Edge struct {
	U, V int
	W    float64
}

// Graph is an immutable weighted undirected graph stored in CSR form. Every
// edge appears twice in the adjacency arrays, once per endpoint. Weights are
// strictly positive and self-loops are not representable.
type Graph struct {
	off []int     // len n+1; adjacency offsets (64-bit: see DESIGN §12)
	adj []int32   // len 2m; neighbor ids
	w   []float64 // len 2m; edge weights, parallel to adj
	vol []float64 // len n; total incident weight per vertex

	// groups is the row-group table the k = 1 row kernels walk (rowgroups.go):
	// derived from off by the constructors, never written afterwards, absent
	// (nil) on a ClosureBuilder's reused output.
	groups []kernel.Group
}

// NewFromEdges builds a graph on n vertices from an edge list. Parallel edges
// are merged by summing their weights in list order. It returns an error for
// out-of-range endpoints, self-loops, and non-positive or non-finite weights.
//
// Construction is a bucket-by-vertex fill followed by the per-row sort and
// merge Builder.Finish uses — no global sort — so adjacency comes out
// neighbor-sorted and the cost is O(n + m) when rows are short.
func NewFromEdges(n int, edges []Edge) (*Graph, error) {
	g, err := fillFromEdges(n, edges)
	if err != nil {
		return nil, err
	}
	g.sortMergeRows(MergeSum)
	return g, nil
}

// MustFromEdges is NewFromEdges that panics on error; for tests and
// generators whose inputs are correct by construction.
func MustFromEdges(n int, edges []Edge) *Graph {
	g, err := NewFromEdges(n, edges)
	if err != nil {
		panic(err)
	}
	return g
}

// NewFromUniqueEdges builds a graph from an edge list the caller guarantees
// to be free of duplicates (parallel edges). It skips the per-row
// sort-and-merge pass of NewFromEdges, so adjacency keeps edge-list order;
// the Section 3.1 clustering builds its forests this way. Validation of
// ranges, self-loops and weights still applies; duplicate pairs silently
// produce a multigraph, so only use this when uniqueness holds by
// construction.
func NewFromUniqueEdges(n int, edges []Edge) (*Graph, error) {
	g, err := fillFromEdges(n, edges)
	if err != nil {
		return nil, err
	}
	for v := range g.vol {
		g.vol[v] = sum(g.w[g.off[v]:g.off[v+1]])
	}
	g.groups = rowGroups(g.off)
	return g, nil
}

// sum adds xs left to right; a vertex's volume is this sum over its row.
func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// fillFromEdges validates an edge list and buckets it by endpoint into fresh
// CSR arrays: every edge lands in the next free slot of both its rows, in
// list order. Rows are neither sorted nor merged and vol is left zero.
func fillFromEdges(n int, edges []Edge) (*Graph, error) {
	if err := checkVertexCount(n); err != nil {
		return nil, err
	}
	for _, e := range edges {
		if e.U < 0 || e.U >= n || e.V < 0 || e.V >= n {
			return nil, fmt.Errorf("graph: edge (%d,%d) out of range [0,%d): %w", e.U, e.V, n, ErrBadDimension)
		}
		if e.U == e.V {
			return nil, fmt.Errorf("graph: self-loop at vertex %d", e.U)
		}
		if !(e.W > 0) || math.IsInf(e.W, 0) {
			return nil, fmt.Errorf("graph: edge (%d,%d) has invalid weight %v", e.U, e.V, e.W)
		}
	}
	g := &Graph{
		off: make([]int, n+1),
		adj: make([]int32, 2*len(edges)),
		w:   make([]float64, 2*len(edges)),
		vol: make([]float64, n),
	}
	for _, e := range edges {
		g.off[e.U+1]++
		g.off[e.V+1]++
	}
	for i := 0; i < n; i++ {
		g.off[i+1] += g.off[i]
	}
	fill := make([]int, n)
	copy(fill, g.off[:n])
	for _, e := range edges {
		g.adj[fill[e.U]], g.w[fill[e.U]] = int32(e.V), e.W
		fill[e.U]++
		g.adj[fill[e.V]], g.w[fill[e.V]] = int32(e.U), e.W
		fill[e.V]++
	}
	return g, nil
}

// checkVertexCount rejects a vertex count no graph can hold: negative, or
// above math.MaxInt32, the largest the 32-bit adjacency ids can name. Every
// constructor calls it before it narrows an id.
func checkVertexCount(n int) error {
	if n < 0 {
		return fmt.Errorf("graph: negative vertex count %d: %w", n, ErrBadDimension)
	}
	if n > math.MaxInt32 {
		return fmt.Errorf("graph: vertex count %d exceeds the 32-bit adjacency ids: %w", n, ErrBadDimension)
	}
	return nil
}

// N returns the number of vertices.
func (g *Graph) N() int { return len(g.vol) }

// M returns the number of (undirected) edges.
func (g *Graph) M() int { return len(g.adj) / 2 }

// Degree returns the number of neighbors of v.
func (g *Graph) Degree(v int) int { return g.off[v+1] - g.off[v] }

// MaxDegree returns the maximum vertex degree, or 0 for an empty graph.
func (g *Graph) MaxDegree() int {
	d := 0
	for v := 0; v < g.N(); v++ {
		if dv := g.Degree(v); dv > d {
			d = dv
		}
	}
	return d
}

// Neighbors returns the neighbor ids and edge weights of v as slices backed
// by the graph's storage; callers must not modify them.
func (g *Graph) Neighbors(v int) ([]int32, []float64) {
	return g.adj[g.off[v]:g.off[v+1]], g.w[g.off[v]:g.off[v+1]]
}

// Vol returns the total weight incident to v.
func (g *Graph) Vol(v int) float64 { return g.vol[v] }

// TotalVol returns the sum of all vertex volumes (twice the total edge
// weight).
func (g *Graph) TotalVol() float64 {
	t := 0.0
	for _, v := range g.vol {
		t += v
	}
	return t
}

// Weight returns the weight of edge (u,v) and whether it exists.
func (g *Graph) Weight(u, v int) (float64, bool) {
	nbr, w := g.Neighbors(u)
	for i, x := range nbr {
		if int(x) == v {
			return w[i], true
		}
	}
	return 0, false
}

// Edges returns all edges with U < V, in deterministic order.
func (g *Graph) Edges() []Edge {
	es := make([]Edge, 0, g.M())
	for u := 0; u < g.N(); u++ {
		nbr, w := g.Neighbors(u)
		for i, x := range nbr {
			if v := int(x); u < v {
				es = append(es, Edge{U: u, V: v, W: w[i]})
			}
		}
	}
	return es
}

// Bytes estimates the resident memory of the graph: the CSR offset,
// adjacency, weight and volume arrays and the row-group table. It is an
// accounting figure (used by the serving layer's byte-budgeted handle cache),
// not an exact heap measurement.
func (g *Graph) Bytes() int64 {
	return int64(8*(len(g.off)+len(g.w)+len(g.vol)) + 4*len(g.adj) + 12*len(g.groups))
}

// Clone returns a deep copy of g, its arrays allocated at exact length (a
// hierarchy's layout view is a Clone, and its Bytes are its heap).
func (g *Graph) Clone() *Graph {
	c := &Graph{
		off: make([]int, len(g.off)),
		adj: make([]int32, len(g.adj)),
		w:   make([]float64, len(g.w)),
		vol: make([]float64, len(g.vol)),
	}
	copy(c.off, g.off)
	copy(c.adj, g.adj)
	copy(c.w, g.w)
	copy(c.vol, g.vol)
	c.groups = rowGroups(c.off)
	return c
}
