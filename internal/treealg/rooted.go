// Package treealg provides the tree machinery behind Theorem 2.1: rooted
// trees and forests, subtree sizes (with both a sequential pass and a
// pointer-jumping parallel path in the spirit of parallel tree contraction),
// 3-critical vertices, an exact linear-time tree Laplacian solver, and
// Prüfer-sequence random trees for the test workloads.
package treealg

import (
	"fmt"

	"hcd/internal/graph"
	"hcd/internal/par"
)

// Rooted is a rooted forest view of an acyclic graph. Parents appear before
// children in Order, so a forward scan of Order is a topological pass from
// the roots and a backward scan visits leaves first.
type Rooted struct {
	G       *graph.Graph
	Roots   []int     // one root per component
	Parent  []int     // parent vertex id, −1 for roots
	PWeight []float64 // weight of the edge to the parent, 0 for roots
	Order   []int     // preorder over all components
	Desc    []int     // number of vertices in the subtree of v, including v
}

// RootAt roots the tree g at root. It returns an error if g is not a tree.
func RootAt(g *graph.Graph, root int) (*Rooted, error) {
	if !g.IsTree() {
		return nil, fmt.Errorf("treealg: graph is not a tree (n=%d, m=%d)", g.N(), g.M())
	}
	if root < 0 || root >= g.N() {
		return nil, fmt.Errorf("treealg: root %d out of range", root)
	}
	r := newRooted(g, 1)
	r.rootComponent(root, nil)
	r.computeDesc()
	return r, nil
}

// RootForest roots every component of the acyclic graph g at its
// lowest-numbered vertex. It returns an error if g has a cycle.
func RootForest(g *graph.Graph) (*Rooted, error) {
	// A forest has exactly n − m components; the traversal below spans any
	// graph, so a different root count is the cycle check.
	r := newRooted(g, max(g.N()-g.M(), 0))
	var stack []int
	for v := 0; v < g.N(); v++ {
		if r.Parent[v] == unvisited {
			stack = r.rootComponent(v, stack)
		}
	}
	if len(r.Roots) != g.N()-g.M() {
		return nil, fmt.Errorf("treealg: graph has a cycle")
	}
	r.computeDesc()
	return r, nil
}

// unvisited is the Parent value of a vertex no traversal has reached yet.
const unvisited = -2

func newRooted(g *graph.Graph, roots int) *Rooted {
	n := g.N()
	r := &Rooted{
		G:       g,
		Roots:   make([]int, 0, roots),
		Parent:  make([]int, n),
		PWeight: make([]float64, n),
		Order:   make([]int, 0, n),
		Desc:    make([]int, n),
	}
	for i := range r.Parent {
		r.Parent[i] = unvisited
	}
	return r
}

// rootComponent runs an iterative DFS preorder from root. It works in the
// caller's stack buffer and returns it for the next component.
func (r *Rooted) rootComponent(root int, stack []int) []int {
	r.Roots = append(r.Roots, root)
	r.Parent[root] = -1
	stack = append(stack[:0], root)
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		r.Order = append(r.Order, v)
		nbr, w := r.G.Neighbors(v)
		for i, u := range nbr {
			if r.Parent[u] == unvisited {
				r.Parent[u] = v
				r.PWeight[u] = w[i]
				stack = append(stack, int(u))
			}
		}
	}
	return stack
}

// computeDesc fills Desc with subtree sizes by a reverse pass over Order.
func (r *Rooted) computeDesc() {
	for i := range r.Desc {
		r.Desc[i] = 1
	}
	for i := len(r.Order) - 1; i >= 0; i-- {
		v := r.Order[i]
		if p := r.Parent[v]; p >= 0 {
			r.Desc[p] += r.Desc[v]
		}
	}
}

// ChildLists returns every vertex's children as two flat arrays: the
// children of v are list[off[v]:off[v+1]], in preorder.
func (r *Rooted) ChildLists() (off, list []int) {
	n := r.G.N()
	off = make([]int, n+1)
	for _, p := range r.Parent {
		if p >= 0 {
			off[p+1]++
		}
	}
	for v := 0; v < n; v++ {
		off[v+1] += off[v]
	}
	// The fill advances off[p] to the end of p's children; Order visits a
	// parent's children in preorder, which is the order the lists keep.
	list = make([]int, off[n])
	for _, v := range r.Order {
		if p := r.Parent[v]; p >= 0 {
			list[off[p]] = v
			off[p]++
		}
	}
	copy(off[1:], off[:n])
	off[0] = 0
	return off, list
}

// isLeaf reports whether v has no children (degree-1 non-root, or an
// isolated root).
func (r *Rooted) isLeaf(v int) bool {
	d := r.G.Degree(v)
	if r.Parent[v] >= 0 {
		return d == 1
	}
	return d == 0
}

// Critical3 returns the set of 3-critical vertices of the rooted forest: v is
// 3-critical iff it is not a leaf and ⌈desc(v)/3⌉ > ⌈desc(w)/3⌉ for every
// child w (Reid-Miller, Miller & Modugno; paper Section 2).
func (r *Rooted) Critical3() []bool {
	n := r.G.N()
	crit := make([]bool, n)
	maxChild := make([]int, n) // max ⌈desc(child)/3⌉ per vertex
	for _, v := range r.Order {
		if p := r.Parent[v]; p >= 0 {
			if c := ceilDiv3(r.Desc[v]); c > maxChild[p] {
				maxChild[p] = c
			}
		}
	}
	par.For(n, 4096, par.Func(func(lo, hi int) {
		for v := lo; v < hi; v++ {
			if !r.isLeaf(v) && ceilDiv3(r.Desc[v]) > maxChild[v] {
				crit[v] = true
			}
		}
	}))
	return crit
}

func ceilDiv3(x int) int { return (x + 2) / 3 }
