package hierarchy

// Apply layout. The V-cycle's time on a quotient level goes to the row loop
// of its Laplacian, and rows of a quotient are irregular: a loop that runs 3
// entries, then 17, then 5 ends on a mispredicted branch nearly every row.
// So once a level has been contracted and clustered in its natural numbering
// — the clustering's hashes and tie-breaks see vertex ids, and DumpLevels
// must export what was clustered — the level is stored renumbered: inside
// fixed windows of the natural order (which keep the numbering's locality),
// vertices are stably sorted by row length, then by the size of the cluster
// they were contracted from (the trip count of the restriction loop one
// level up). Rows keep their entry order and clusters keep their member
// order, so every sum the cycle takes adds the same numbers in the same
// sequence as it would in natural numbering: the layout changes where values
// live, never what they are. Level 0 stays in the caller's numbering and the
// factored coarsest graph in its natural one.

import (
	"context"
	"fmt"

	"hcd/internal/graph"
	"hcd/internal/obs"
	"hcd/internal/sparse"
)

// layoutWindow is the span of natural vertex ids sorted together. Sorting a
// whole level would gather each row length into one run but scatter
// neighbors across the level; windows keep a row's neighbors near it.
const layoutWindow = 4096

// assembler stacks levels into a Hierarchy. A level's restriction arrays
// name vertices of the next level in that level's layout, which is only
// known once the next level is pushed (or turns out to be the coarsest), so
// the last pushed level stays open until then.
type assembler struct {
	ctx    context.Context
	h      *Hierarchy
	smooth int
	// The open level: its natural→layout map (nil: identity) and the member
	// count of each of its clusters, by natural cluster id.
	inv     []int32
	members []int32
}

// newAssembler needs no size check of its own: a graph.Graph cannot hold more
// than math.MaxInt32 vertices, which is what the int32 arrays here can name.
func newAssembler(ctx context.Context, smooth int) *assembler {
	return &assembler{ctx: ctx, h: &Hierarchy{}, smooth: smooth}
}

// push adds cur — natural numbering — with its clustering as the next level,
// closes the level above it and returns cur's quotient, natural numbering
// again. assign is kept, not copied. The level's cycle scale comes from the
// two natural-numbered graphs, so every way of arriving at the same
// assignments — single-pass or sharded build, Rebuild, a snapshot restore —
// sums the same volumes in the same order.
func (a *assembler) push(cur *graph.Graph, assign []int, count int) *graph.Graph {
	g := cur
	var inv []int32
	if len(a.h.levels) > 0 {
		_, sp := obs.StartSpan(a.ctx, "hierarchy/layout")
		order := layoutOrder(cur, a.members)
		var err error
		if g, err = cur.Permuted(order); err != nil {
			panic(err) // layoutOrder returns a permutation by construction
		}
		inv = make([]int32, len(order))
		for i, v := range order {
			inv[v] = int32(i)
		}
		a.close(inv)
		if sp != nil {
			sp.Arg("level", len(a.h.levels))
			sp.Arg("vertices", g.N())
			sp.Arg("max_degree", g.MaxDegree())
			sp.Arg("degree_runs", degreeRuns(g))
		}
		sp.End()
	}
	l := &Level{g: g, smooth: a.smooth, dInv: make([]float64, g.N()), natAssign: assign, count: count}
	for v := range l.dInv {
		if vol := g.Vol(v); vol > 0 {
			l.dInv[v] = 1 / vol
		}
	}
	a.h.levels = append(a.h.levels, l)
	a.inv = inv
	a.members = make([]int32, count)
	for _, c := range assign {
		a.members[c]++
	}
	_, sp := obs.StartSpan(a.ctx, "hierarchy/contract")
	quotient := cur.Contract(assign, count)
	if sp != nil {
		sp.Arg("level", len(a.h.levels)-1)
		sp.Arg("vertices", cur.N())
		sp.Arg("clusters", count)
		sp.Arg("quotient_edges", quotient.M())
	}
	sp.End()
	l.gamma, l.alpha = cycleScale(coarseBeta, cur.TotalVol(), quotient.TotalVol())
	return quotient
}

// close builds the open level's restriction arrays against the layout of
// the level below it (next: natural→layout, nil for identity).
func (a *assembler) close(next []int32) {
	l := a.h.levels[len(a.h.levels)-1]
	at := func(inv []int32, v int) int32 {
		if inv == nil {
			return int32(v)
		}
		return inv[v]
	}
	l.start = make([]int32, l.count+1)
	for c, m := range a.members {
		l.start[at(next, c)+1] = m
	}
	for c := 0; c < l.count; c++ {
		l.start[c+1] += l.start[c]
	}
	fill := a.members // dead after this level; reused as the fill cursor
	copy(fill, l.start[:l.count])
	l.assign = make([]int32, len(l.natAssign))
	l.order = make([]int32, len(l.natAssign))
	for v, nc := range l.natAssign {
		c, i := at(next, nc), at(a.inv, v)
		l.assign[i] = c
		l.order[fill[c]] = i
		fill[c]++
	}
}

// finish closes the last level against cur, the coarsest graph in natural
// numbering, installs cur's sparse pinned factorization (ordering, structure
// and numeric phase under one span) and, every cost now known, fixes the
// cycle's visit counts.
func (a *assembler) finish(cur *graph.Graph) (*Hierarchy, error) {
	if len(a.h.levels) > 0 {
		a.close(nil)
	}
	_, sp := obs.StartSpan(a.ctx, "hierarchy/coarse-factor")
	defer sp.End()
	fac, err := sparse.NewLapFactor(cur)
	if err != nil {
		return nil, fmt.Errorf("hierarchy: coarse factorization failed: %w", err)
	}
	a.h.coarseG, a.h.coarse = cur, fac
	a.h.planCycle(cycleShare)
	return a.h, nil
}

// layoutOrder returns the apply layout of g as the list of natural vertex
// ids in stored order: within each window of layoutWindow consecutive ids, a
// stable sort by (degree, members[v]). Two counting-sort passes per window,
// least significant key first; a window's bucket arrays are bounded by its
// own degree sum, so the whole pass is O(n + m).
func layoutOrder(g *graph.Graph, members []int32) []int {
	n := g.N()
	order := make([]int, n)
	byMembers := make([]int, min(n, layoutWindow))
	var buckets []int
	for lo := 0; lo < n; lo += layoutWindow {
		hi := min(lo+layoutWindow, n)
		win := byMembers[:hi-lo]
		for i := range win {
			win[i] = lo + i
		}
		buckets = countingSort(order[lo:hi], win, func(v int) int { return int(members[v]) }, buckets)
		copy(win, order[lo:hi])
		buckets = countingSort(order[lo:hi], win, g.Degree, buckets)
	}
	return order
}

// countingSort stably sorts src into dst by key (≥ 0) and returns the bucket
// array, grown as needed, for reuse.
func countingSort(dst, src []int, key func(int) int, buckets []int) []int {
	top := 0
	for _, v := range src {
		top = max(top, key(v))
	}
	if cap(buckets) < top+2 {
		buckets = make([]int, top+2)
	}
	buckets = buckets[:top+2]
	clear(buckets)
	for _, v := range src {
		buckets[key(v)+1]++
	}
	for k := 0; k <= top; k++ {
		buckets[k+1] += buckets[k]
	}
	for _, v := range src {
		k := key(v)
		dst[buckets[k]] = v
		buckets[k]++
	}
	return buckets
}

// degreeRuns counts the maximal runs of equal row length in g's stored
// order: each run boundary is a row whose loop exit the branch predictor has
// no history for. Reported on the layout span.
func degreeRuns(g *graph.Graph) int {
	runs := 0
	for v := 0; v < g.N(); v++ {
		if v == 0 || g.Degree(v) != g.Degree(v-1) {
			runs++
		}
	}
	return runs
}
