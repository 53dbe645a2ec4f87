package treealg

import (
	"hcd/internal/graph"
	"hcd/internal/par"
)

// EulerTour is an Euler tour of a tree: the circuit that traverses every
// edge once in each direction, broken into a linked list starting at the
// root's first arc. Arcs are numbered by (vertex, adjacency-slot): arc
// off[v]+i is the i-th arc out of v.
type EulerTour struct {
	Tail, Head []int // per-arc endpoints: arc a goes Tail[a] → Head[a]
	Twin       []int // reverse arc id
	Next       []int // successor arc in the tour; −1 terminates
	Start      int   // first arc of the tour
	off        []int // per-vertex first arc id
}

// NewEulerTour builds the Euler tour of the tree g rooted at root. g must
// have at least one edge.
func NewEulerTour(g *graph.Graph, root int) *EulerTour {
	n := g.N()
	arcs := 0
	off := make([]int, n+1)
	for v := 0; v < n; v++ {
		off[v] = arcs
		arcs += g.Degree(v)
	}
	off[n] = arcs
	t := &EulerTour{
		Tail: make([]int, arcs),
		Head: make([]int, arcs),
		Twin: make([]int, arcs),
		Next: make([]int, arcs),
		off:  off,
	}
	// Record endpoints and match twins through a per-edge map keyed on the
	// ordered pair packed into an int64.
	slotOf := make(map[int64]int, arcs)
	pack := func(u, v int) int64 { return int64(u)*int64(n) + int64(v) }
	for v := 0; v < n; v++ {
		nbr, _ := g.Neighbors(v)
		for i, u := range nbr {
			a := off[v] + i
			t.Tail[a], t.Head[a] = v, int(u)
			slotOf[pack(v, int(u))] = a
		}
	}
	par.For(arcs, 8192, func(lo, hi int) {
		for a := lo; a < hi; a++ {
			t.Twin[a] = slotOf[pack(t.Head[a], t.Tail[a])]
		}
	})
	// next(u→v) = the arc out of v following the twin in v's rotation.
	par.For(arcs, 8192, func(lo, hi int) {
		for a := lo; a < hi; a++ {
			v := t.Head[a]
			tw := t.Twin[a]
			deg := off[v+1] - off[v]
			t.Next[a] = off[v] + (tw-off[v]+1)%deg
		}
	})
	// Break the circuit into a list starting at the root's first arc: the
	// predecessor of Start is the twin of the root's last slot.
	t.Start = off[root]
	last := t.Twin[off[root+1]-1]
	t.Next[last] = -1
	return t
}

// ArcCount returns the number of arcs (2·edges).
func (t *EulerTour) ArcCount() int { return len(t.Next) }

// FirstArc returns the id of the first arc out of v, and the number of arcs
// out of v.
func (t *EulerTour) FirstArc(v int) (int, int) { return t.off[v], t.off[v+1] - t.off[v] }

// ListRank returns the position of each list node from the start of the
// list described by next (−1 terminates). It uses pointer jumping: O(log n)
// parallel rounds over the whole arc set, the classical PRAM list-ranking
// step of parallel tree contraction.
func ListRank(next []int) []int {
	n := len(next)
	suffix := make([]int, n) // nodes strictly after i
	nxt := append([]int(nil), next...)
	for i, x := range nxt {
		if x >= 0 {
			suffix[i] = 1
		}
	}
	newSuffix := make([]int, n)
	newNxt := make([]int, n)
	for {
		done := true
		par.For(n, 8192, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				if j := nxt[i]; j >= 0 {
					newSuffix[i] = suffix[i] + suffix[j]
					newNxt[i] = nxt[j]
				} else {
					newSuffix[i] = suffix[i]
					newNxt[i] = -1
				}
			}
		})
		suffix, newSuffix = newSuffix, suffix
		nxt, newNxt = newNxt, nxt
		for _, j := range nxt {
			if j >= 0 {
				done = false
				break
			}
		}
		if done {
			break
		}
	}
	total := n
	pos := make([]int, n)
	par.For(n, 8192, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			pos[i] = total - 1 - suffix[i]
		}
	})
	return pos
}
