package graph

import "fmt"

// ClosureBuilder builds closures and induced subgraphs of clusters of one
// host graph into reusable storage: membership is tracked with an
// epoch-stamped index array instead of a per-call map, and the CSR arrays of
// the produced graph are reused across calls. The evaluate fan-out builds
// one closure per cluster; with a per-goroutine builder those builds stop
// allocating entirely once the scratch has grown to the largest cluster.
//
// The *Graph returned by Closure and InducedSubgraph aliases the builder's
// buffers and is valid only until the next call on the same builder; callers
// that need to retain it must Clone it. It carries no row-group table — its
// rows are rewritten on every call — so the k = 1 row kernels serve it through
// their Go loops; the Clone derives one. A ClosureBuilder is not safe for
// concurrent use.
type ClosureBuilder struct {
	g     *Graph
	stamp []uint64 // per host vertex: epoch when last made a member
	pos   []int32  // host vertex -> local index, valid when stamp matches
	epoch uint64

	out  Graph // reused output graph; slice headers re-point into the scratch below
	back []int
}

// NewClosureBuilder returns a builder for clusters of g.
func NewClosureBuilder(g *Graph) *ClosureBuilder {
	return &ClosureBuilder{
		g:     g,
		stamp: make([]uint64, g.N()),
		pos:   make([]int32, g.N()),
	}
}

// mark stamps the membership of s and fills pos; it returns an error for
// duplicate or out-of-range vertices (a malformed cluster, mirroring
// Graph.Closure).
func (b *ClosureBuilder) mark(s []int, op string) error {
	b.epoch++
	for i, v := range s {
		if v < 0 || v >= b.g.N() {
			return fmt.Errorf("graph: %s vertex %d out of range [0,%d): %w", op, v, b.g.N(), ErrInvalidInput)
		}
		if b.stamp[v] == b.epoch {
			return fmt.Errorf("graph: duplicate vertex %d in %s: %w", v, op, ErrInvalidInput)
		}
		b.stamp[v] = b.epoch
		b.pos[v] = int32(i)
	}
	return nil
}

// Closure returns the closure graph of cluster s — the induced subgraph on s
// plus one degree-1 stub per boundary edge (the G°ᵢ of Section 2) — along
// with the core's back-mapping to host vertex ids. Equivalent to
// Graph.Closure, but allocation-free once the builder's scratch has grown.
// The result aliases the builder and is valid until the next call.
func (b *ClosureBuilder) Closure(s []int) (*Graph, []int, error) {
	if err := b.mark(s, "Closure"); err != nil {
		return nil, nil, err
	}
	g := b.g
	k := len(s)
	// Pass 1: closure sizes. Every host edge of a member survives (core-core
	// edges keep both endpoints, boundary edges become stubs), so a core
	// vertex's closure degree equals its host degree; each stub adds one
	// vertex with one adjacency entry.
	entries, stubs := 0, 0
	for _, v := range s {
		nbr, _ := g.Neighbors(v)
		entries += len(nbr)
		for _, u := range nbr {
			if b.stamp[u] != b.epoch {
				stubs++
			}
		}
	}
	n := k + stubs
	b.out.off = grow(b.out.off, n+1)
	b.out.adj = grow(b.out.adj, entries+stubs)
	b.out.w = grow(b.out.w, entries+stubs)
	b.out.vol = grow(b.out.vol, n)
	b.back = grow(b.back, k)
	off := b.out.off
	off[0] = 0
	for i, v := range s {
		off[i+1] = off[i] + g.Degree(v)
		b.back[i] = v
	}
	for j := 0; j < stubs; j++ {
		off[k+j+1] = off[k+j] + 1
	}
	// Pass 2: fill adjacency in host CSR order; stubs are numbered in
	// encounter order, matching Graph.Closure.
	next := k
	for i, v := range s {
		nbr, w := g.Neighbors(v)
		fill := off[i]
		for e, u := range nbr {
			if b.stamp[u] == b.epoch {
				b.out.adj[fill] = b.pos[u]
			} else {
				b.out.adj[fill] = int32(next)
				b.out.adj[off[next]] = int32(i)
				b.out.w[off[next]] = w[e]
				b.out.vol[next] = w[e]
				next++
			}
			b.out.w[fill] = w[e]
			fill++
		}
		b.out.vol[i] = g.vol[v]
	}
	return &b.out, b.back, nil
}

// InducedSubgraph returns the subgraph induced by the vertex set s together
// with the mapping back to host ids — Graph.InducedSubgraph without the
// per-call map and edge-list allocations. The result aliases the builder and
// is valid until the next call.
func (b *ClosureBuilder) InducedSubgraph(s []int) (*Graph, []int, error) {
	if err := b.mark(s, "InducedSubgraph"); err != nil {
		return nil, nil, err
	}
	g := b.g
	k := len(s)
	b.out.off = grow(b.out.off, k+1)
	b.back = grow(b.back, k)
	off := b.out.off
	off[0] = 0
	for i, v := range s {
		nbr, _ := g.Neighbors(v)
		deg := 0
		for _, u := range nbr {
			if b.stamp[u] == b.epoch {
				deg++
			}
		}
		off[i+1] = off[i] + deg
		b.back[i] = v
	}
	entries := off[k]
	b.out.adj = grow(b.out.adj, entries)
	b.out.w = grow(b.out.w, entries)
	b.out.vol = grow(b.out.vol, k)
	fill := 0
	for i, v := range s {
		nbr, w := g.Neighbors(v)
		vol := 0.0
		for e, u := range nbr {
			if b.stamp[u] == b.epoch {
				b.out.adj[fill] = b.pos[u]
				b.out.w[fill] = w[e]
				vol += w[e]
				fill++
			}
		}
		b.out.vol[i] = vol
	}
	return &b.out, b.back, nil
}
