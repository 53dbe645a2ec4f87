package treealg

import (
	"fmt"
	"math/rand"

	"hcd/internal/graph"
)

// pruferDecode converts a Prüfer sequence over vertices [0, n) with
// len(seq) = n−2 into the edge list of the unique labeled tree it encodes.
func pruferDecode(n int, seq []int) ([]graph.Edge, error) {
	if n < 2 {
		if n >= 0 && len(seq) == 0 {
			return nil, nil
		}
		return nil, fmt.Errorf("treealg: bad Prüfer input n=%d len=%d", n, len(seq))
	}
	if len(seq) != n-2 {
		return nil, fmt.Errorf("treealg: Prüfer sequence must have length n-2, got %d for n=%d", len(seq), n)
	}
	deg := make([]int, n)
	for i := range deg {
		deg[i] = 1
	}
	for _, v := range seq {
		if v < 0 || v >= n {
			return nil, fmt.Errorf("treealg: Prüfer entry %d out of range", v)
		}
		deg[v]++
	}
	// ptr/leaf scan gives O(n) decoding without a heap.
	edges := make([]graph.Edge, 0, n-1)
	ptr := 0
	for deg[ptr] != 1 {
		ptr++
	}
	leaf := ptr
	for _, v := range seq {
		edges = append(edges, graph.Edge{U: leaf, V: v, W: 1})
		deg[v]--
		if deg[v] == 1 && v < ptr {
			leaf = v
		} else {
			ptr++
			for deg[ptr] != 1 {
				ptr++
			}
			leaf = ptr
		}
	}
	edges = append(edges, graph.Edge{U: leaf, V: n - 1, W: 1})
	return edges, nil
}

// PruferEncode converts a tree into its Prüfer sequence; the inverse of
// pruferDecode.
func PruferEncode(g *graph.Graph) ([]int, error) {
	n := g.N()
	if !g.IsTree() {
		return nil, fmt.Errorf("treealg: PruferEncode needs a tree")
	}
	if n < 2 {
		return nil, nil
	}
	// Root at n−1 so every other vertex has a parent; peel leaves in
	// increasing label order with the classic pointer scan.
	_, parent := g.BFS(n - 1)
	deg := make([]int, n)
	for v := 0; v < n; v++ {
		deg[v] = g.Degree(v)
	}
	seq := make([]int, 0, n-2)
	ptr := 0
	for deg[ptr] != 1 {
		ptr++
	}
	leaf := ptr
	for len(seq) < n-2 {
		next := parent[leaf]
		seq = append(seq, next)
		deg[next]--
		if deg[next] == 1 && next < ptr {
			leaf = next
		} else {
			ptr++
			for deg[ptr] != 1 {
				ptr++
			}
			leaf = ptr
		}
	}
	return seq, nil
}

// RandomTree returns a uniformly random labeled tree on n vertices with edge
// weights drawn by weightFn (or unit weights if weightFn is nil).
func RandomTree(rng *rand.Rand, n int, weightFn func() float64) *graph.Graph {
	if n <= 1 {
		return graph.MustFromEdges(maxInt(n, 0), nil)
	}
	seq := make([]int, maxInt(n-2, 0))
	for i := range seq {
		seq[i] = rng.Intn(n)
	}
	edges, err := pruferDecode(n, seq)
	if err != nil {
		panic(err)
	}
	if weightFn != nil {
		for i := range edges {
			edges[i].W = weightFn()
		}
	}
	return graph.MustFromEdges(n, edges)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
