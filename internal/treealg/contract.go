package treealg

import (
	"fmt"

	"hcd/internal/graph"
)

// Contraction is the result of rake-and-compress parallel tree contraction
// (Reid-Miller, Miller & Modugno) — the machinery Theorem 2.1 cites for its
// O(log n) parallel time bound. Each round simultaneously rakes all leaves
// into their parents and compresses an independent set of degree-2 chain
// vertices chosen by deterministic coin mating, so a tree contracts to its
// root in O(log n) rounds with high probability.
//
// The contraction evaluates a tree expression along the way: Acc[v]
// accumulates the total original edge weight of the part of the tree
// contracted into v, demonstrating the bottom-up information flow that
// descendant counts (and hence 3-critical vertices) need. At the end the
// root has accumulated the whole tree: Acc[root] = Σ w(e).
type Contraction struct {
	Rounds     int
	RoundSizes []int     // alive vertex count after each round
	Acc        []float64 // accumulated original edge weight per alive ancestor
}

// ContractTree contracts the tree g rooted at root.
func ContractTree(g *graph.Graph, root int) (*Contraction, error) {
	r, err := RootAt(g, root)
	if err != nil {
		return nil, err
	}
	n := g.N()
	c := &Contraction{Acc: make([]float64, n)}
	if n <= 1 {
		return c, nil
	}
	parent := append([]int(nil), r.Parent...)
	pweight := append([]float64(nil), r.PWeight...)
	// origWeight[v]: total ORIGINAL weight carried by the contracted edge
	// (v, parent); starts as the edge's own weight and grows as chains
	// compress through it. This lets Acc account exact original totals even
	// though compressed edges carry series weights.
	origWeight := append([]float64(nil), r.PWeight...)
	// Child lists are kept exact as vertices leave: v's alive children are
	// list[off[v]:off[v]+childCount[v]] and slot[u] is u's index in its
	// parent's list, so a rake is a swap-remove and a compress hands the
	// compressed vertex's slot to its child.
	off, list := r.ChildLists()
	childCount := make([]int, n)
	slot := make([]int, n)
	for v := 0; v < n; v++ {
		childCount[v] = off[v+1] - off[v]
		for i := off[v]; i < off[v+1]; i++ {
			slot[list[i]] = i
		}
	}
	alive := make([]bool, n)
	for i := range alive {
		alive[i] = true
	}
	aliveCount := n
	for round := 1; aliveCount > 1; round++ {
		c.Rounds = round
		if round > 8*bitLen(n)+32 {
			return nil, fmt.Errorf("treealg: contraction failed to converge (round %d, %d alive)", round, aliveCount)
		}
		// Rake all leaves.
		var raked []int
		for v := 0; v < n; v++ {
			if alive[v] && v != root && childCount[v] == 0 {
				raked = append(raked, v)
			}
		}
		for _, v := range raked {
			p := parent[v]
			c.Acc[p] += c.Acc[v] + origWeight[v]
			alive[v] = false
			childCount[p]--
			last := list[off[p]+childCount[p]]
			list[slot[v]], slot[last] = last, slot[v]
			aliveCount--
		}
		if aliveCount <= 1 {
			c.RoundSizes = append(c.RoundSizes, aliveCount)
			break
		}
		// Compress an independent set of chain vertices: v compresses iff
		// it is a chain vertex with coin H whose parent is either not a
		// chain vertex or has coin T (randomized mating, derandomized by a
		// per-round hash).
		isChain := make([]bool, n)
		for v := 0; v < n; v++ {
			if alive[v] && v != root && childCount[v] == 1 {
				isChain[v] = true
			}
		}
		for v := 0; v < n; v++ {
			if !isChain[v] || !coin(v, round) {
				continue
			}
			p := parent[v]
			if isChain[p] && coin(p, round) {
				continue
			}
			u := list[off[v]]
			w1, w2 := pweight[v], pweight[u]
			parent[u] = p
			pweight[u] = w1 * w2 / (w1 + w2)
			origWeight[u] += origWeight[v]
			c.Acc[p] += c.Acc[v]
			list[slot[v]], slot[u] = u, slot[v]
			alive[v] = false
			aliveCount--
			// p's child count is unchanged: v left, u arrived.
		}
		c.RoundSizes = append(c.RoundSizes, aliveCount)
	}
	return c, nil
}

// coin is a deterministic pseudo-random bit per (vertex, round).
func coin(v, round int) bool {
	x := uint64(v)*0x9e3779b97f4a7c15 + uint64(round)*0xbf58476d1ce4e5b9
	x ^= x >> 31
	x *= 0x94d049bb133111eb
	x ^= x >> 29
	return x&1 == 1
}

func bitLen(n int) int {
	b := 0
	for n > 0 {
		n >>= 1
		b++
	}
	return b
}
