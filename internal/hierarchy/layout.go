package hierarchy

// Apply layout. The V-cycle's time on a quotient level goes to the row loop
// of its Laplacian, and rows of a quotient are irregular: a loop that runs 3
// entries, then 17, then 5 ends on a mispredicted branch nearly every row.
// So once a level has been clustered and contracted in its natural numbering
// — the clustering's hashes and tie-breaks see vertex ids, and DumpLevels
// must export what was clustered — the level is renumbered in its own arrays
// (graph.RenumberInPlace): inside fixed windows of the natural order (which
// keep the numbering's locality), vertices are stably sorted by row length,
// then by the size of the cluster they were contracted from (the trip count
// of the restriction loop one level up). Rows keep their entry order and
// clusters keep their member order, so every sum the cycle takes adds the
// same numbers in the same sequence as it would in natural numbering: the
// layout changes where values live, never what they are. The stored level 0 stays in the caller's
// numbering — clustering, snapshots and DumpLevels see it — and the factored
// coarsest graph in its natural one.
//
// Level-0 layout view. A solve streams level 0 three times per PCG iteration
// (the operator, the cycle's residual and its post-smoothing), and on road
// networks, FE meshes and small grids natural order puts almost none of level
// 0 in row groups, and a row's loop exit in a different place nearly every
// row. For those graphs the hierarchy keeps a second level 0, built on first
// use: a clone of the caller's graph renumbered by layoutOrder (by degree
// alone — nothing is contracted into it), with its diagonal and restriction
// arrays remapped, sharing every level below, the coarse graph and the
// factor. The solver runs a whole solve in that numbering (SolveSpace) — one
// column, whose rows the row groups take four at a time, or a block, whose
// column tiles walk rows of one length in long runs — so the view's apply is
// the same V-cycle on the same values in the same sequence, only stored
// elsewhere.

import (
	"context"
	"fmt"
	"sync"

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
	ctx      context.Context
	h        *Hierarchy
	smoothed bool
	// The open level: its natural→layout map (nil: identity) and the member
	// count of each of its clusters, by natural cluster id.
	inv     []int32
	members []int32
}

// newAssembler needs no size check of its own: a graph.Graph cannot hold more
// than math.MaxInt32 vertices, which is what the int32 arrays here can name.
func newAssembler(ctx context.Context, smoothed bool) *assembler {
	return &assembler{ctx: ctx, h: &Hierarchy{workPool: new(sync.Pool)}, smoothed: smoothed}
}

// push adds cur — natural numbering — with its clustering as the next level,
// closes the level above it and returns cur's quotient, natural numbering
// again. assign is kept, not copied. The level's cycle scale comes from the
// two natural-numbered graphs, so every way of arriving at the same
// assignments — single-pass or sharded build, Rebuild, a snapshot restore —
// sums the same volumes in the same order. Below level 0, cur is a quotient
// an earlier push returned and nothing else holds: once it is contracted, it
// is laid out in its own arrays, so no level is ever stored twice.
func (a *assembler) push(cur *graph.Graph, assign []int, count int) *graph.Graph {
	level := len(a.h.levels)
	_, sp := obs.StartSpan(a.ctx, "hierarchy/contract")
	quotient := cur.Contract(assign, count)
	if sp != nil {
		sp.Arg("level", level)
		sp.Arg("vertices", cur.N())
		sp.Arg("clusters", count)
		sp.Arg("quotient_edges", quotient.M())
	}
	sp.End()
	gamma, alpha := cycleScale(coarseBeta, cur.TotalVol(), quotient.TotalVol())
	var inv []int32
	if level > 0 {
		_, sp := obs.StartSpan(a.ctx, "hierarchy/layout")
		order := layoutOrder(cur, a.members)
		if err := cur.RenumberInPlace(order, layoutWindow); err != nil {
			panic(err) // layoutOrder returns a windowed permutation by construction
		}
		inv = make([]int32, len(order))
		for i, v := range order {
			inv[v] = int32(i)
		}
		a.close(inv)
		if sp != nil {
			sp.Arg("level", level)
			sp.Arg("vertices", cur.N())
			sp.Arg("max_degree", cur.MaxDegree())
			sp.Arg("degree_runs", degreeRuns(cur))
		}
		sp.End()
	}
	l := &Level{g: cur, smoothed: a.smoothed, dInv: make([]float64, cur.N()), natAssign: assign, count: count, gamma: gamma, alpha: alpha}
	for v := range l.dInv {
		if vol := cur.Vol(v); vol > 0 {
			l.dInv[v] = 1 / vol
		}
	}
	a.h.levels = append(a.h.levels, l)
	a.inv = inv
	a.members = make([]int32, count)
	for _, c := range assign {
		a.members[c]++
	}
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
// stable sort by (degree, members[v]), or by degree alone when members is nil.
// Two counting-sort passes per window, least significant key first; a
// window's bucket arrays are bounded by its own degree sum, so the whole pass
// is O(n + m).
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
		if members != nil {
			buckets = countingSort(order[lo:hi], win, func(v int) int { return int(members[v]) }, buckets)
			copy(win, order[lo:hi])
		}
		buckets = countingSort(order[lo:hi], win, g.Degree, buckets)
	}
	return order
}

// viewMaxGrouped is the share of level 0's stored entries in row groups, in
// natural order, from which on the hierarchy keeps no layout view: OCT and
// large grids are above 90 % already, road networks and FE meshes near 0.
const viewMaxGrouped = 0.5

// layoutView is the level-0 layout view: perm[i] is the level-0 vertex that
// is vertex i of the view, and h is the hierarchy whose level 0 is renumbered
// by perm and whose levels below, coarse graph and factor are the natural
// hierarchy's own.
type layoutView struct {
	perm []int32
	h    *Hierarchy
}

// layoutView returns h's level-0 layout view, building it on the first call;
// nil when h has no level 0 or level 0 is grouped enough in natural order.
// Safe for concurrent use.
func (h *Hierarchy) layoutView() *layoutView {
	h.viewOnce.Do(func() {
		if len(h.levels) > 0 && h.levels[0].g.GroupedShare() < viewMaxGrouped {
			h.view.Store(newLayoutView(h))
		}
	})
	return h.view.Load()
}

// newLayoutView renumbers h's level 0 by layoutOrder. The restriction keeps
// its summation order: order lists each cluster's members in the same
// sequence, now by their view ids.
func newLayoutView(h *Hierarchy) *layoutView {
	nat := h.levels[0]
	order := layoutOrder(nat.g, nil)
	g := nat.g.Clone()
	if err := g.RenumberInPlace(order, layoutWindow); err != nil {
		panic(err) // layoutOrder returns a windowed permutation by construction
	}
	perm := make([]int32, len(order))
	inv := make([]int32, len(order))
	for i, v := range order {
		perm[i], inv[v] = int32(v), int32(i)
	}
	l := *nat
	l.g = g
	l.dInv = make([]float64, len(perm))
	l.assign = make([]int32, len(perm))
	for i, v := range perm {
		l.dInv[i], l.assign[i] = nat.dInv[v], nat.assign[v]
	}
	l.order = make([]int32, len(nat.order))
	for i, v := range nat.order {
		l.order[i] = inv[v]
	}
	levels := append([]*Level{&l}, h.levels[1:]...)
	return &layoutView{perm: perm, h: &Hierarchy{levels: levels, coarseG: h.coarseG, coarse: h.coarse, cycleEntries: h.cycleEntries, workPool: h.workPool}}
}

// SolveSpace is the numbering a PCG solve of g's Laplacian, of any width, runs
// fastest in: when g is h's level 0 and h keeps a layout view, it returns the
// view's permutation (vertex i of the space is vertex perm[i] of g), g
// renumbered by it and the view's preconditioner; otherwise a nil perm, and
// the solve stays in g's numbering. The view is built on the first call. Every
// row sum, cycle step and restriction of the space adds the same numbers in
// the same sequence as in g's numbering; only the solver's dot products and
// mean projection sum in another order.
func (h *Hierarchy) SolveSpace(g *graph.Graph) (perm []int32, gs *graph.Graph, ms interface {
	Dim() int
	Apply(dst, r []float64)
}) {
	if len(h.levels) == 0 || h.levels[0].g != g {
		return nil, nil, nil
	}
	v := h.layoutView()
	if v == nil {
		return nil, nil, nil
	}
	return v.perm, v.h.levels[0].g, v.h
}

// GroupedShares returns the share of level 0's stored entries in row groups
// in natural order and in the numbering solves run in. Both are 0 without a
// level 0.
func (h *Hierarchy) GroupedShares() (natural, solve float64) {
	nat, sol := h.level0s()
	if nat == nil {
		return 0, 0
	}
	return nat.GroupedShare(), sol.GroupedShare()
}

// DegreeRuns returns level 0's degreeRuns — how many row loops per matvec end
// where the branch predictor has no history — in natural order and in the
// numbering solves run in. Both are 0 without a level 0.
func (h *Hierarchy) DegreeRuns() (natural, solve int) {
	nat, sol := h.level0s()
	if nat == nil {
		return 0, 0
	}
	return degreeRuns(nat), degreeRuns(sol)
}

// level0s returns level 0's graph in natural order and in the numbering
// solves run in — the layout view's, built here if it is due, or natural
// again; nil without a level 0.
func (h *Hierarchy) level0s() (natural, solve *graph.Graph) {
	if len(h.levels) == 0 {
		return nil, nil
	}
	natural = h.levels[0].g
	if v := h.layoutView(); v != nil {
		return natural, v.h.levels[0].g
	}
	return natural, natural
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
