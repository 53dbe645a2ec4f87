package decomp

import (
	"context"
	"errors"
	"fmt"
	"math"

	"hcd/internal/faultinject"
	"hcd/internal/graph"
	"hcd/internal/par"
)

// FixedDegreeCtx implements the Section 3.1 clustering:
//
//	[1] perturb each edge weight by an independent random factor in (1, 2);
//	[2] every vertex keeps its heaviest perturbed incident edge — the union
//	    is a forest by the unimodality argument;
//	[3] split each forest tree into clusters of at most sizeCap vertices.
//
// Every vertex lands in a cluster of size ≥ 2, so the reduction factor is at
// least 2 (the paper's ρ). The perturbation is a deterministic hash of the
// edge and seed, so step [2] is one independent pass per vertex — the
// "embarrassingly parallel" construction of Remark 1 — and runs across
// cores. For a degree-d graph the paper certifies conductance Ω(1/(d²k));
// Evaluate measures the actual value.
//
// sizeCap must be at least 2. Clusters may exceed sizeCap by a small factor
// at branchy vertices (at most 1 + d·(sizeCap−1) vertices); the cap controls
// the expected size, which is what the reduction/condition trade-off needs.
//
// The sequential passes poll ctx at bounded intervals and the parallel scan
// is bracketed by checks, so a cancelled build returns an error wrapping
// ErrBuildCancelled promptly.
func FixedDegreeCtx(ctx context.Context, g *graph.Graph, sizeCap int, seed int64) (*Decomposition, error) {
	if sizeCap < 2 {
		return nil, fmt.Errorf("decomp: sizeCap must be ≥ 2, got %d: %w", sizeCap, graph.ErrInvalidInput)
	}
	n := g.N()
	d := &Decomposition{G: g, Assign: make([]int, n)}
	if n == 0 {
		return d, nil
	}
	// [2] Per-vertex heaviest perturbed edge, in parallel. A vertex with no
	// edge keeps −1: it cannot be clustered with anyone and becomes a
	// singleton (no edges, hence no conductance constraint).
	bestTo := make([]int32, n)
	par.For(n, 2048, par.Func(func(lo, hi int) {
		for v := lo; v < hi; v++ {
			bestTo[v] = heaviestEdge(g, v, 0, n, seed)
		}
	}))
	if err := pollNow(ctx); err != nil {
		return nil, err
	}
	if faultinject.Enabled() && faultinject.Fire(faultinject.PerturbCorrupt) {
		// Chaos: wipe the heaviest-edge selection, as if the parallel scan
		// produced garbage. Every vertex becomes an isolated singleton, so
		// the build "succeeds" with no reduction — the degenerate shape the
		// hierarchy's no-reduction guard must catch.
		for i := range bestTo {
			bestTo[i] = -1
		}
	}
	// [3] Split each tree into clusters of about sizeCap vertices.
	var err error
	if d.Count, err = splitPointers(ctx, bestTo, sizeCap, d.Assign); err != nil {
		return nil, err
	}
	return d, nil
}

// heaviestEdge returns the neighbour of v in [lo, hi) reached by v's heaviest
// perturbed edge, −1 when v has no neighbour there. The tie-break on the
// neighbour id keeps the perturbed order total even under float ties.
//
// It is perturbFactor's formula with the row's constant terms hoisted: the
// hash key of {u, v} is u·n + v + s below v and v·n + u + s above it, so a
// lower neighbour costs one multiply and an upper one none. The running best
// is kept without a branch on the data: perturbed weights are positive, so
// they order like their bit patterns, and a mask picks the new pair.
func heaviestEdge(g *graph.Graph, v, lo, hi int, seed int64) int32 {
	nbr, w := g.Neighbors(v)
	n, s := uint64(g.N()), uint64(seed)*0x9e3779b97f4a7c15
	below, above := uint64(v)+s, uint64(v)*n+s
	best, bestBits := int32(-1), uint64(0)
	for i, u := range nbr {
		if int(u) < lo || int(u) >= hi {
			continue
		}
		key := above + uint64(u)
		if int(u) < v {
			key = uint64(u)*n + below
		}
		bits := math.Float64bits(w[i] * perturbKey(key))
		take := -(b2u(bits > bestBits) | b2u(bits == bestBits)&b2u(u < best))
		bestBits ^= (bestBits ^ bits) & take
		best ^= (best ^ u) & int32(take)
	}
	return best
}

// b2u is 1 for true and 0 for false; the compiler emits it as a flag set.
func b2u(b bool) uint64 {
	var x uint64
	if b {
		x = 1
	}
	return x
}

// errPointerCycle reports heaviest-edge pointers that close a cycle, which
// only a tie-breaking failure in step [2] can leave.
var errPointerCycle = errors.New("decomp: heaviest-edge graph: graph has a cycle")

// splitPointers performs step [3] of the Section 3.1 clustering on the
// heaviest-edge pointers themselves: bestTo[v] is the vertex v keeps its
// heaviest edge to, −1 for none. Their union, a forest, is held as an
// unweighted int32 adjacency, rooted, and walked bottom-up, closing a cluster
// whenever the pending subtree reaches sizeCap vertices. Cluster ids from 0
// go into assign (same length as bestTo) and their count is returned; on an
// error no id has been written. Both FixedDegreeCtx and clusterShard (on
// shard-local pointers) end in it.
//
// Cluster ids follow the traversal order, so the adjacency has one fixed
// order: v emits the edge {v, bestTo[v]} unless the choice is mutual and v
// is the upper endpoint, and a row lists its edges by ascending emitter.
func splitPointers(ctx context.Context, bestTo []int32, sizeCap int, assign []int) (int, error) {
	n := len(bestTo)
	for i := range assign {
		assign[i] = -1
	}
	emits := func(v int) bool {
		u := bestTo[v]
		return u >= 0 && (v < int(u) || int(bestTo[u]) != v)
	}
	// Row sizes, then row starts: off[v+1] is where row v begins until the
	// fill below has advanced it to where row v ends, which is where row v+1
	// begins — so afterwards row v is adj[off[v]:off[v+1]]. A forest on at
	// most MaxInt32 vertices has fewer than 2³² row slots, hence uint32.
	off := make([]uint32, n+2)
	for v := 0; v < n; v++ {
		if err := poll(ctx, v); err != nil {
			return 0, err
		}
		if emits(v) {
			off[v+2]++
			off[int(bestTo[v])+2]++
		}
	}
	for v := 0; v < n; v++ {
		off[v+2] += off[v+1]
	}
	adj := make([]int32, off[n+1]) // two slots per edge
	for v := 0; v < n; v++ {
		if err := poll(ctx, v); err != nil {
			return 0, err
		}
		if emits(v) {
			u := int(bestTo[v])
			adj[off[v+1]], adj[off[u+1]] = int32(u), int32(v)
			off[v+1]++
			off[u+1]++
		}
	}
	// Root every component at its lowest vertex by an explicit-stack
	// preorder. parent is −1 at a root and unvisited until the traversal
	// arrives. A forest has exactly n − edges components and the traversal
	// spans any graph, so any other root count is the cycle check.
	const unvisited = -2
	parent := make([]int32, n)
	for i := range parent {
		parent[i] = unvisited
	}
	order := make([]int32, 0, n)
	var stack []int32
	roots := 0
	for r := 0; r < n; r++ {
		if err := poll(ctx, r); err != nil {
			return 0, err
		}
		if parent[r] != unvisited {
			continue
		}
		roots++
		parent[r] = -1
		stack = append(stack[:0], int32(r))
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			order = append(order, v)
			for _, u := range adj[off[v]:off[v+1]] {
				if parent[u] == unvisited {
					parent[u] = v
					stack = append(stack, u)
				}
			}
		}
	}
	if roots != n-len(adj)/2 {
		return 0, errPointerCycle
	}
	// Close the clusters bottom-up, numbering them in the order they close.
	// pend[v] counts the vertices of v's subtree no cluster has closed over
	// yet: children come before parents in reverse preorder and hand their
	// count up, and a vertex that collects sizeCap of them heads a cluster.
	count := 0
	pend := make([]int32, n)
	for i := n - 1; i >= 0; i-- {
		if err := poll(ctx, i); err != nil {
			return 0, err
		}
		v := order[i]
		pend[v]++
		if int(pend[v]) >= sizeCap {
			assign[v] = count
			count++
		} else if p := parent[v]; p >= 0 {
			pend[p] += pend[v]
		}
	}
	// Forward in preorder, parents first, every vertex that heads no cluster
	// takes the cluster of the nearest head above it. A leftover root has
	// none: with company, or with no edge at all, it heads a cluster itself;
	// alone it joins the first vertex of its row (every child of such a root
	// is a head). Roots come up in ascending order.
	for i, v := range order {
		if err := poll(ctx, i); err != nil {
			return 0, err
		}
		switch p := parent[v]; {
		case assign[v] >= 0: // v heads a cluster
		case p >= 0:
			assign[v] = assign[p]
		case pend[v] >= 2 || off[v] == off[v+1]:
			assign[v] = count
			count++
		default:
			assign[v] = assign[adj[off[v]]]
		}
	}
	return count, nil
}

// perturbFactor returns a deterministic pseudo-random factor in (1, 2) for
// the unordered edge (u, v) under the given seed, via a splitmix64 hash. It
// is symmetric in u and v, so both endpoints see the same perturbed weight
// without any shared state — the property that makes the scan of Remark 1
// one independent pass per matrix column.
func perturbFactor(u, v, n int, seed int64) float64 {
	if u > v {
		u, v = v, u
	}
	return perturbKey(uint64(u)*uint64(n) + uint64(v) + uint64(seed)*0x9e3779b97f4a7c15)
}

// perturbKey is perturbFactor of the edge whose key min·n + max + seed·φ is x.
func perturbKey(x uint64) float64 {
	// splitmix64 finalizer.
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	return 1 + float64(x>>11)/float64(1<<53)
}
