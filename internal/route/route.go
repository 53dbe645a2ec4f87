// Package route demonstrates the application that motivated (φ, γ)
// decompositions in the literature the paper builds on (Räcke;
// Bienkowski–Korzeniowski–Räcke; Harrelson–Hildrum–Rao): oblivious routing
// through a laminar decomposition. Every demand (s, t) follows a canonical
// path determined only by the hierarchy — up through cluster
// representatives to the first common cluster and back down — so routing
// decisions need no global coordination, and high-conductance clusters keep
// the congestion overhead low.
package route

import (
	"fmt"
	"math"

	"hcd/internal/graph"
	"hcd/internal/laminar"
)

// Router precomputes, for every level, a BFS tree of each composed cluster
// rooted at its representative (the maximum-volume vertex), giving O(1)
// next-hop lookups for canonical paths.
type Router struct {
	g   *graph.Graph
	lam *laminar.Laminar
	// assign[ℓ][v]: composed cluster of v at level ℓ.
	assign [][]int
	// rep[ℓ][c]: representative vertex of cluster c at level ℓ.
	rep [][]int
	// up[ℓ][v]: parent of v in the BFS tree of its level-ℓ cluster.
	up [][]int
}

// New builds a router over the hierarchy lam of graph g. The hierarchy must
// have at least one level.
func New(g *graph.Graph, lam *laminar.Laminar) (*Router, error) {
	if lam.Depth() == 0 {
		return nil, fmt.Errorf("route: empty hierarchy")
	}
	r := &Router{g: g, lam: lam}
	for level := 0; level < lam.Depth(); level++ {
		assign, err := lam.AssignAt(level)
		if err != nil {
			return nil, err
		}
		count := lam.Levels[level].Count
		rep := make([]int, count)
		bestVol := make([]float64, count)
		for i := range rep {
			rep[i] = -1
		}
		for v, c := range assign {
			if rep[c] < 0 || g.Vol(v) > bestVol[c] {
				rep[c] = v
				bestVol[c] = g.Vol(v)
			}
		}
		up, err := clusterBFSTrees(g, assign, rep)
		if err != nil {
			return nil, fmt.Errorf("route: level %d: %w", level, err)
		}
		r.assign = append(r.assign, assign)
		r.rep = append(r.rep, rep)
		r.up = append(r.up, up)
	}
	return r, nil
}

// clusterBFSTrees runs one BFS per cluster, restricted to the cluster,
// rooted at its representative. Composed clusters are connected (laminar
// invariant), so every vertex gets a parent.
func clusterBFSTrees(g *graph.Graph, assign []int, rep []int) ([]int, error) {
	n := g.N()
	up := make([]int, n)
	for i := range up {
		up[i] = -2
	}
	queue := make([]int, 0, n)
	for _, root := range rep {
		if root < 0 {
			continue
		}
		up[root] = -1
		queue = append(queue[:0], root)
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			nbr, _ := g.Neighbors(v)
			for _, u := range nbr {
				if up[u] == -2 && assign[u] == assign[v] {
					up[u] = v
					queue = append(queue, int(u))
				}
			}
		}
	}
	for v := 0; v < n; v++ {
		if up[v] == -2 {
			return nil, fmt.Errorf("cluster of vertex %d is not connected", v)
		}
	}
	return up, nil
}

// Route returns the canonical oblivious path from s to t as a vertex
// sequence. It climbs representatives until the two endpoints share a
// cluster; if they never do (different top-level clusters), it returns an
// error — callers should ensure the hierarchy's top level is coarse enough,
// or the endpoints lie in different components.
func (r *Router) Route(s, t int) ([]int, error) {
	n := r.g.N()
	if s < 0 || s >= n || t < 0 || t >= n {
		return nil, fmt.Errorf("route: endpoint out of range")
	}
	if s == t {
		return []int{s}, nil
	}
	common := -1
	for level := 0; level < len(r.assign); level++ {
		if r.assign[level][s] == r.assign[level][t] {
			common = level
			break
		}
	}
	if common < 0 {
		return nil, fmt.Errorf("route: %d and %d share no cluster at any level", s, t)
	}
	// Ascend: s → rep₀(s) → rep₁(s) → … → rep_common; each segment walks
	// the BFS tree of the corresponding level.
	path := []int{s}
	cur := s
	for level := 0; level <= common; level++ {
		target := r.rep[level][r.assign[level][cur]]
		path = appendTreeWalk(path, r.up[level], cur, target)
		cur = target
	}
	// Descend on the t side: build its ascent, then splice reversed.
	tPath := []int{t}
	cur = t
	for level := 0; level < common; level++ {
		target := r.rep[level][r.assign[level][cur]]
		tPath = appendTreeWalk(tPath, r.up[level], cur, target)
		cur = target
	}
	// Connect rep_common-side: cur (= t's rep at level common−1, or t) up
	// to the common representative through the common level's tree.
	tPath = appendTreeWalk(tPath, r.up[common], cur, path[len(path)-1])
	for i := len(tPath) - 2; i >= 0; i-- {
		path = append(path, tPath[i])
	}
	return simplify(path), nil
}

// appendTreeWalk extends path from cur up the tree (parent pointers) to
// target, assuming target is an ancestor of cur in that tree.
func appendTreeWalk(path []int, up []int, cur, target int) []int {
	for cur != target {
		cur = up[cur]
		if cur < 0 {
			// target is the root; if we ran past, the walk is already there.
			break
		}
		path = append(path, cur)
	}
	return path
}

// simplify removes immediate backtracks (v, u, v) and consecutive
// duplicates from a vertex path.
func simplify(path []int) []int {
	out := path[:0:0]
	for _, v := range path {
		for {
			if len(out) >= 1 && out[len(out)-1] == v {
				break // duplicate: skip append below via flag
			}
			if len(out) >= 2 && out[len(out)-2] == v {
				out = out[:len(out)-1] // backtrack: drop the middle vertex
				continue
			}
			out = append(out, v)
			break
		}
	}
	return out
}

// Congestion accumulates per-edge load from a set of vertex paths: each
// traversal adds 1/w(e) to its edge (heavier edges absorb more traffic).
// It returns the maximum and mean load over edges actually used.
func Congestion(g *graph.Graph, paths [][]int) (maxLoad, meanLoad float64, err error) {
	load := make(map[[2]int]float64)
	for _, p := range paths {
		for i := 0; i+1 < len(p); i++ {
			u, v := p[i], p[i+1]
			w, ok := g.Weight(u, v)
			if !ok {
				return 0, 0, fmt.Errorf("route: path uses non-edge (%d,%d)", u, v)
			}
			if u > v {
				u, v = v, u
			}
			load[[2]int{u, v}] += 1 / w
		}
	}
	if len(load) == 0 {
		return 0, 0, nil
	}
	total := 0.0
	for _, l := range load {
		total += l
		if l > maxLoad {
			maxLoad = l
		}
	}
	return maxLoad, total / float64(len(load)), nil
}

// ShortestPath returns a min-hop path between s and t (BFS), the baseline
// "selfish" routing the oblivious scheme is compared against.
func ShortestPath(g *graph.Graph, s, t int) ([]int, error) {
	_, parent := g.BFS(s)
	if s != t && parent[t] == -1 {
		return nil, fmt.Errorf("route: %d unreachable from %d", t, s)
	}
	var rev []int
	for v := t; v != -1; v = parent[v] {
		rev = append(rev, v)
		if v == s {
			break
		}
	}
	if rev[len(rev)-1] != s {
		return nil, fmt.Errorf("route: path reconstruction failed")
	}
	out := make([]int, len(rev))
	for i, v := range rev {
		out[len(rev)-1-i] = v
	}
	return out, nil
}

// Validate checks a path connects s to t through existing edges.
func Validate(g *graph.Graph, path []int, s, t int) error {
	if len(path) == 0 || path[0] != s || path[len(path)-1] != t {
		return fmt.Errorf("route: endpoints wrong")
	}
	for i := 0; i+1 < len(path); i++ {
		if _, ok := g.Weight(path[i], path[i+1]); !ok {
			return fmt.Errorf("route: (%d,%d) is not an edge", path[i], path[i+1])
		}
	}
	return nil
}

// Stretch returns the hop-count ratio of a path against the BFS distance.
func Stretch(g *graph.Graph, path []int) (float64, error) {
	if len(path) < 2 {
		return 1, nil
	}
	sp, err := ShortestPath(g, path[0], path[len(path)-1])
	if err != nil {
		return 0, err
	}
	if len(sp) <= 1 {
		return math.Inf(1), nil
	}
	return float64(len(path)-1) / float64(len(sp)-1), nil
}
