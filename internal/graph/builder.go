package graph

// Builder assembles a CSR graph from a stream of edges without ever holding
// one flat []Edge: edges land in fixed-size chunks, per-vertex degrees are
// counted as they arrive, and Finish fills the CSR arrays directly from the
// chunks and merges parallel edges per vertex with the per-row stable sort
// NewFromEdges also uses. Compared to collecting a full edge list and calling
// NewFromEdges, this avoids the append-growth overshoot (up to 2× the final
// size) and holding the list beside the arrays. The streaming readers in
// internal/gio feed this builder chunk by chunk so peak memory tracks the
// graph, not the input file.

import (
	"fmt"
	"math"
	"sort"
)

// MergePolicy says how Builder combines parallel (duplicate) edges.
type MergePolicy int

const (
	// MergeSum adds the weights of parallel edges — the edge-list and
	// NewFromEdges semantics.
	MergeSum MergePolicy = iota
	// MergeMax keeps the heaviest of parallel edges — the MatrixMarket
	// semantics, where the symmetric mirror of an explicitly stored entry
	// must not double the weight.
	MergeMax
)

// builderChunk is the number of edges buffered per chunk. Chunks are
// allocated at exactly this size, so the buffer never over-allocates the way
// a grown []Edge does.
const builderChunk = 1 << 16

// Builder accumulates a stream of edges for a graph with a fixed vertex
// count and produces the CSR form in one Finish call. It is not safe for
// concurrent use.
//
// The degree array grows lazily with the largest vertex id actually
// referenced, so a Builder declared for a huge n costs nothing until edges
// mentioning high ids arrive — the property the hardened input parsers rely
// on against hostile size declarations.
type Builder struct {
	n      int
	policy MergePolicy
	deg    []int // per-vertex half-edge count, pre-merge; grows with max id seen
	chunks [][]Edge
	count  int64
}

// NewBuilder returns a Builder for a graph on n vertices.
func NewBuilder(n int, policy MergePolicy) (*Builder, error) {
	if err := checkVertexCount(n); err != nil {
		return nil, err
	}
	return &Builder{n: n, policy: policy}, nil
}

// BufferedBytes returns the bytes currently held by the builder: buffered
// edge chunks plus the degree array. This is the figure the streaming
// readers report when an input exceeds its entry budget mid-stream.
func (b *Builder) BufferedBytes() int64 {
	edges := 0
	for _, c := range b.chunks {
		edges += cap(c)
	}
	return int64(24*edges + 8*len(b.deg))
}

// Add appends one undirected edge. It validates endpoints and weight with
// the same rules as NewFromEdges: in-range, no self-loops, weight strictly
// positive and finite.
func (b *Builder) Add(u, v int, w float64) error {
	if u < 0 || u >= b.n || v < 0 || v >= b.n {
		return fmt.Errorf("graph: edge (%d,%d) out of range [0,%d): %w", u, v, b.n, ErrBadDimension)
	}
	if u == v {
		return fmt.Errorf("graph: self-loop at vertex %d", u)
	}
	if !(w > 0) || math.IsInf(w, 0) {
		return fmt.Errorf("graph: edge (%d,%d) has invalid weight %v", u, v, w)
	}
	last := len(b.chunks) - 1
	if last < 0 || len(b.chunks[last]) == builderChunk {
		b.chunks = append(b.chunks, make([]Edge, 0, builderChunk))
		last++
	}
	b.chunks[last] = append(b.chunks[last], Edge{U: u, V: v, W: w})
	hi := u
	if v > hi {
		hi = v
	}
	for hi >= len(b.deg) {
		b.deg = append(b.deg, 0)
	}
	b.deg[u]++
	b.deg[v]++
	b.count++
	return nil
}

// Finish merges parallel edges and returns the CSR graph. The builder keeps
// no reference to the result and must not be reused afterwards.
//
// Parallel edges are merged per adjacency run with a stable sort by neighbor
// id, so duplicates combine in insertion order — both endpoints of a
// duplicated edge see the identical merged weight, and the resulting
// adjacency is neighbor-sorted exactly like NewFromEdges output.
func (b *Builder) Finish() (*Graph, error) {
	n := b.n
	g := &Graph{
		off: make([]int, n+1),
		adj: make([]int32, 2*b.count),
		w:   make([]float64, 2*b.count),
		vol: make([]float64, n),
	}
	for v := 0; v < n; v++ {
		d := 0
		if v < len(b.deg) {
			d = b.deg[v]
		}
		g.off[v+1] = g.off[v] + d
	}
	fill := make([]int, n)
	copy(fill, g.off[:n])
	for _, c := range b.chunks {
		for _, e := range c {
			g.adj[fill[e.U]], g.w[fill[e.U]] = int32(e.V), e.W
			fill[e.U]++
			g.adj[fill[e.V]], g.w[fill[e.V]] = int32(e.U), e.W
			fill[e.V]++
		}
	}
	b.chunks = nil
	g.sortMergeRows(b.policy)
	return g, nil
}

// sortMergeRows finishes a CSR graph whose rows were filled in arrival
// order: each row is sorted by neighbor id (stably, so parallel edges stay in
// arrival order and both endpoints of a duplicated edge see the identical
// merged weight), duplicates are merged under policy, the arrays are
// compacted in place, vol is set to each row's sum in row order and the
// row-group table is derived from the final offsets. Shared by Builder.Finish
// and NewFromEdges.
func (g *Graph) sortMergeRows(policy MergePolicy) {
	n := g.N()
	out := 0
	for v := 0; v < n; v++ {
		lo, hi := g.off[v], g.off[v+1]
		sortRun(g.adj[lo:hi], g.w[lo:hi])
		g.off[v] = out
		for i := lo; i < hi; i++ {
			if out > g.off[v] && g.adj[out-1] == g.adj[i] {
				switch policy {
				case MergeSum:
					g.w[out-1] += g.w[i]
				case MergeMax:
					if g.w[i] > g.w[out-1] {
						g.w[out-1] = g.w[i]
					}
				}
				continue
			}
			g.adj[out], g.w[out] = g.adj[i], g.w[i]
			out++
		}
		g.vol[v] = sum(g.w[g.off[v]:out])
	}
	g.off[n] = out
	if out < len(g.adj) {
		g.adj = g.adj[:out:out]
		g.w = g.w[:out:out]
	}
	g.groups = rowGroups(g.off)
}

// sortRunInsertionMax is the longest run sortRun orders by straight
// insertion; quotient and mesh rows are almost always shorter.
const sortRunInsertionMax = 24

// sortRun stably orders one adjacency run by neighbor id, keeping weights
// parallel. Short or already sorted runs cost one linear scan.
func sortRun(adj []int32, w []float64) {
	if len(adj) > sortRunInsertionMax {
		if r := (adjRun{adj: adj, w: w}); !sort.IsSorted(r) {
			sort.Stable(r)
		}
		return
	}
	for i := 1; i < len(adj); i++ {
		a, x := adj[i], w[i]
		j := i
		for ; j > 0 && adj[j-1] > a; j-- {
			adj[j], w[j] = adj[j-1], w[j-1]
		}
		adj[j], w[j] = a, x
	}
}

// adjRun is sortRun's sort.Interface over one long run.
type adjRun struct {
	adj []int32
	w   []float64
}

func (r adjRun) Len() int           { return len(r.adj) }
func (r adjRun) Less(i, j int) bool { return r.adj[i] < r.adj[j] }
func (r adjRun) Swap(i, j int) {
	r.adj[i], r.adj[j] = r.adj[j], r.adj[i]
	r.w[i], r.w[j] = r.w[j], r.w[i]
}
