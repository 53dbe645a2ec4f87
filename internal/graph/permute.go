package graph

import "fmt"

// RenumberInPlace renumbers g's vertices in its own arrays: afterwards vertex
// i is what vertex order[i] was. order must map every window [lo, lo+window)
// of ids onto itself, so each window's rows fill the same entry span before
// and after; each span is rewritten through a buffer one window's entries
// long, and nothing the size of g is allocated but the id map. Every row
// keeps its entries in order — only the neighbor ids are renamed — so each
// row sum (LapMul, Vol) adds the same numbers in the same sequence as the
// row it was; rows are in general no longer neighbor-sorted. The row-group
// table is rebuilt.
//
// A Graph is otherwise immutable and every holder of g sees the new
// numbering: call this only on a graph the caller owns outright (a Clone, a
// Contract result nobody else has seen). The whole permutation is checked
// before anything is written: a window below 1, or an order that is not a
// permutation of [0, N()) or moves an id into another window, returns an
// error wrapping ErrInvalidInput and leaves g as it was.
func (g *Graph) RenumberInPlace(order []int, window int) error {
	n := g.N()
	if window < 1 {
		return fmt.Errorf("graph: renumbering window %d, want at least 1: %w", window, ErrInvalidInput)
	}
	if len(order) != n {
		return fmt.Errorf("graph: permutation has %d entries, graph has %d vertices: %w", len(order), n, ErrInvalidInput)
	}
	// inv[old] = new + 1 while validating, so the zero value marks "unseen".
	inv := make([]int32, n)
	for i, v := range order {
		if v < 0 || v >= n {
			return fmt.Errorf("graph: permutation entry %d = %d out of range [0,%d): %w", i, v, n, ErrInvalidInput)
		}
		if v/window != i/window {
			return fmt.Errorf("graph: permutation moves vertex %d to %d, outside its window of %d: %w", v, i, window, ErrInvalidInput)
		}
		if inv[v] != 0 {
			return fmt.Errorf("graph: permutation lists vertex %d twice: %w", v, ErrInvalidInput)
		}
		inv[v] = int32(i) + 1
	}
	span := 0
	for lo := 0; lo < n; lo += window {
		span = max(span, g.off[min(lo+window, n)]-g.off[lo])
	}
	rows := min(window, n)
	off, vol := make([]int, rows+1), make([]float64, rows)
	adj, w := make([]int32, span), make([]float64, span)
	for lo := 0; lo < n; lo += window {
		hi := min(lo+window, n)
		base, end := g.off[lo], g.off[hi]
		copy(off, g.off[lo:hi+1])
		copy(vol, g.vol[lo:hi])
		copy(adj, g.adj[base:end])
		copy(w, g.w[base:end])
		at := base
		for i := lo; i < hi; i++ {
			v := order[i] - lo
			for j := off[v] - base; j < off[v+1]-base; j++ {
				g.adj[at], g.w[at] = inv[adj[j]]-1, w[j]
				at++
			}
			g.off[i+1] = at
			g.vol[i] = vol[v]
		}
	}
	g.groups = rowGroups(g.off)
	return nil
}
