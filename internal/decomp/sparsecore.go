package decomp

import (
	"context"
	"fmt"

	"hcd/internal/graph"
)

// SparseStats reports the intermediate structure of the CoreCutCtx pipeline.
type SparseStats struct {
	CoreSize int // |W|: vertices kept after degree-1/2 reduction
	CutEdges int // |C|: one lightest edge cut per core path
}

// CoreCutCtx performs steps 1–2 of the decomposition engine of Theorem 2.2
// on a connected graph b that is a spanning tree plus a (small) set of extra
// edges:
//
//  1. Greedily strip degree-1 vertices; on the remainder, the core W is the
//     set of vertices of degree ≥ 3 (every other remaining vertex lies on a
//     path between core vertices, or on a cycle — cycles with no degree-3
//     vertex contribute one representative to W).
//  2. For every path between core vertices (including direct core-core
//     edges and core-to-itself loops through degree-2 chains), cut an edge
//     of minimum weight. This disconnects B into trees, each containing
//     exactly one core vertex.
//
// It returns the resulting forest (over b's vertex set) and the core
// statistics; step 3, the Theorem 2.1 tree clustering of the forest, is
// TreeCtx. A forest input short-circuits: b itself is returned with zero
// stats.
func CoreCutCtx(ctx context.Context, b *graph.Graph) (*graph.Graph, SparseStats, error) {
	if !b.Connected() {
		return nil, SparseStats{}, fmt.Errorf("decomp: CoreCutCtx requires a connected graph")
	}
	if b.IsForest() {
		return b, SparseStats{}, nil
	}
	n := b.N()
	// Step 1: strip degree-1 vertices.
	alive := make([]bool, n)
	deg := make([]int, n)
	var queue []int
	for v := 0; v < n; v++ {
		alive[v] = true
		deg[v] = b.Degree(v)
		if deg[v] == 1 {
			queue = append(queue, v)
		}
	}
	for pops := 0; len(queue) > 0; pops++ {
		if err := poll(ctx, pops); err != nil {
			return nil, SparseStats{}, err
		}
		v := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if !alive[v] || deg[v] > 1 {
			continue
		}
		alive[v] = false
		nbr, _ := b.Neighbors(v)
		for _, u := range nbr {
			if alive[u] {
				deg[u]--
				if deg[u] == 1 {
					queue = append(queue, int(u))
				}
			}
		}
	}
	// Core W: alive vertices of degree ≥ 3; cycle components with no such
	// vertex get their lowest-id vertex as representative.
	isW := make([]bool, n)
	wCount := 0
	for v := 0; v < n; v++ {
		if alive[v] && deg[v] >= 3 {
			isW[v] = true
			wCount++
		}
	}
	wCount += markCycleRepresentatives(b, alive, isW)
	// Step 2: walk every core path and cut its lightest edge.
	cut := make(map[[2]int]bool)
	visited := make(map[[2]int]bool)
	edgeKey := func(u, v int) [2]int {
		if u > v {
			u, v = v, u
		}
		return [2]int{u, v}
	}
	steps := 0
	for w := 0; w < n; w++ {
		if !isW[w] {
			continue
		}
		nbr, wts := b.Neighbors(w)
		for i, x := range nbr {
			x := int(x)
			if !alive[x] || visited[[2]int{w, x}] {
				continue
			}
			visited[[2]int{w, x}] = true
			minU, minV, minW := w, x, wts[i]
			prev, cur := w, x
			for !isW[cur] {
				steps++
				if err := poll(ctx, steps); err != nil {
					return nil, SparseStats{}, err
				}
				next, nw := otherAliveNeighbor(b, alive, cur, prev)
				visited[[2]int{cur, next}] = true
				if nw < minW {
					minU, minV, minW = cur, next, nw
				}
				prev, cur = cur, next
			}
			visited[[2]int{cur, prev}] = true
			cut[edgeKey(minU, minV)] = true
		}
	}
	// Remove the cut edges; Theorem 2.1 handles the resulting forest.
	var forestEdges []graph.Edge
	for _, e := range b.Edges() {
		if !cut[edgeKey(e.U, e.V)] {
			forestEdges = append(forestEdges, e)
		}
	}
	forest := graph.MustFromEdges(n, forestEdges)
	if !forest.IsForest() {
		return nil, SparseStats{}, fmt.Errorf("decomp: internal error: cut set did not break all cycles")
	}
	return forest, SparseStats{CoreSize: wCount, CutEdges: len(cut)}, nil
}

// otherAliveNeighbor returns the unique alive neighbor of the degree-2 chain
// vertex cur other than prev, with the connecting edge weight.
func otherAliveNeighbor(b *graph.Graph, alive []bool, cur, prev int) (int, float64) {
	nbr, w := b.Neighbors(cur)
	for i, u := range nbr {
		if u := int(u); u != prev && alive[u] {
			return u, w[i]
		}
	}
	// A degree-2 cycle vertex can have prev as its only continuation when
	// the cycle closes immediately (2-cycles are impossible in a simple
	// graph; this is unreachable but keeps the walker total).
	return prev, 0
}

// markCycleRepresentatives finds alive components with no degree-≥3 vertex
// (pure cycles after stripping) and marks their lowest-id vertex as a core
// representative, returning how many were added.
func markCycleRepresentatives(b *graph.Graph, alive []bool, isW []bool) int {
	n := b.N()
	seen := make([]bool, n)
	added := 0
	for s := 0; s < n; s++ {
		if !alive[s] || seen[s] {
			continue
		}
		// BFS over the alive component rooted at s.
		comp := []int{s}
		seen[s] = true
		hasW := false
		for i := 0; i < len(comp); i++ {
			v := comp[i]
			if isW[v] {
				hasW = true
			}
			nbr, _ := b.Neighbors(v)
			for _, u := range nbr {
				if alive[u] && !seen[u] {
					seen[u] = true
					comp = append(comp, int(u))
				}
			}
		}
		if !hasW {
			isW[comp[0]] = true
			added++
		}
	}
	return added
}
