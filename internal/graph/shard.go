package graph

// Shard views for partition-parallel decomposition builds. A Shard is a
// contiguous vertex range [Lo, Hi) of a host graph together with the host's
// CSR storage — no induced subgraph is materialized. Per-shard work reads the
// host adjacency through the view and classifies each incident edge as
// internal (both endpoints in range) or boundary (the far endpoint in some
// other shard). The fixed-degree clustering of Section 3.1 is one
// independent pass per vertex, so shards can be clustered concurrently and
// stitched along the boundary afterwards; see internal/decomp's sharded
// build path.

// Shard is a zero-copy view of the contiguous vertex range [Lo, Hi) of a
// host graph. The zero value is an empty view of no graph; construct shards
// with PartitionShards.
type Shard struct {
	g      *Graph
	lo, hi int
}

// Host returns the graph the shard views.
func (s Shard) Host() *Graph { return s.g }

// Lo returns the first vertex of the range.
func (s Shard) Lo() int { return s.lo }

// Hi returns one past the last vertex of the range.
func (s Shard) Hi() int { return s.hi }

// Len returns the number of vertices in the shard.
func (s Shard) Len() int { return s.hi - s.lo }

// Contains reports whether host vertex v lies in the shard's range.
func (s Shard) Contains(v int) bool { return v >= s.lo && v < s.hi }

// Local converts a host vertex id to its shard-local id in [0, Len()).
func (s Shard) Local(v int) int { return v - s.lo }

// Global converts a shard-local id back to the host vertex id.
func (s Shard) Global(local int) int { return s.lo + local }

// Neighbors returns host vertex v's neighbor ids and weights straight from
// the host CSR (callers must not modify them). Neighbor ids are host ids;
// use Contains to classify each as internal or boundary.
func (s Shard) Neighbors(v int) ([]int32, []float64) { return s.g.Neighbors(v) }

// PartitionShards splits g into at most k contiguous vertex-range shards of
// roughly equal adjacency mass (CSR entries, i.e. twice the incident edge
// weight count) — the balance that matters for per-shard clustering work.
// Fewer than k shards are returned when g has fewer than k vertices; every
// returned shard is non-empty. The split is a deterministic function of the
// graph and k.
func PartitionShards(g *Graph, k int) []Shard {
	n := g.N()
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	if n == 0 {
		return nil
	}
	shards := make([]Shard, 0, k)
	total := len(g.adj)
	lo := 0
	for i := 0; i < k; i++ {
		if lo >= n {
			break
		}
		// Remaining shards must each get at least one vertex; cap hi so the
		// tail never starves.
		hi := n - (k - 1 - i)
		if i < k-1 {
			// Advance to the adjacency-mass target for this cut, but at
			// least one vertex.
			target := (total * (i + 1)) / k
			h := lo + 1
			for h < hi && g.off[h] < target {
				h++
			}
			hi = h
		}
		shards = append(shards, Shard{g: g, lo: lo, hi: hi})
		lo = hi
	}
	return shards
}
