package graph

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
)

// MaxExactConductance is the largest *core* size for which ExactConductance
// (and Certifier.ClusterPhi) certifies conductance exactly. The core of a
// graph is its vertex set minus pendant stubs (degree-1 vertices hanging off
// the rest); stubs are placed in closed form, so a closure with a 4-vertex
// cluster and dozens of boundary stubs costs 2^3 side-assignments, not 2^n.
// 2^(MaxExactConductance−1) core assignments are visited with O(1)
// incremental updates via a Gray code (prefix-partitioned across cores for
// large enumerations), so a 24-vertex core costs about 8M flips.
const MaxExactConductance = 24

// ExactConductance computes the conductance of g exactly. Pendant (degree-1)
// vertices are treated as stubs and never enumerated: the enumeration runs
// over the 2^(k−1) side-assignments of the k core vertices with each stub's
// weight folded into its anchor's effective volume, which is exact by the
// stub-placement lemma (see certify.go and DESIGN.md §"Exact certification
// on closures"). It returns +Inf for graphs with fewer than 2 vertices, and
// an error wrapping ErrInvalidInput if the core exceeds MaxExactConductance
// vertices (use SweepCut / spectral bounds instead — the enumeration would
// be astronomically large).
func (g *Graph) ExactConductance() (float64, error) {
	n := g.N()
	if n < 2 {
		return math.Inf(1), nil
	}
	stub := g.markStubs(make([]bool, n))
	k := 0
	for _, s := range stub {
		if !s {
			k++
		}
	}
	if k > MaxExactConductance {
		return 0, fmt.Errorf("graph: ExactConductance on a %d-vertex core (%d vertices) exceeds the %d-core enumeration limit: %w",
			k, n, MaxExactConductance, ErrInvalidInput)
	}
	// Build the core-local CSR and effective volumes eff(i) = vol(v) + total
	// weight of v's pendant stubs (the stub vertex's own volume joins its
	// anchor's side).
	pos := make([]int32, n)
	core := coreCSR{off: make([]int, k+1), eff: make([]float64, k)}
	i := 0
	for v := 0; v < n; v++ {
		if stub[v] {
			continue
		}
		pos[v] = int32(i)
		i++
	}
	entries := 0
	i = 0
	for v := 0; v < n; v++ {
		if stub[v] {
			continue
		}
		nbr, w := g.Neighbors(v)
		anchored := 0.0
		deg := 0
		for e, u := range nbr {
			if stub[u] {
				anchored += w[e]
			} else {
				deg++
			}
		}
		core.off[i+1] = deg
		core.eff[i] = g.vol[v] + anchored
		entries += deg
		i++
	}
	for i := 0; i < k; i++ {
		core.off[i+1] += core.off[i]
	}
	core.nbr = make([]int32, entries)
	core.w = make([]float64, entries)
	fill := 0
	for v := 0; v < n; v++ {
		if stub[v] {
			continue
		}
		nbr, w := g.Neighbors(v)
		for e, u := range nbr {
			if !stub[u] {
				core.nbr[fill] = pos[u]
				core.w[fill] = w[e]
				fill++
			}
		}
	}
	total := 0.0
	for _, e := range core.eff {
		total += e
	}
	return enumerateCoreCuts(&core, total, k < n), nil
}

// markStubs flags the pendant stub vertices of g in the caller-provided
// slice (length n) and returns it. A vertex is a stub when it has exactly
// one neighbor and that neighbor is not itself classified as a stub: for an
// isolated edge (both endpoints degree 1) the higher-numbered endpoint is
// the stub, so every stub's anchor is a core vertex.
func (g *Graph) markStubs(stub []bool) []bool {
	for v := range stub {
		if g.Degree(v) != 1 {
			stub[v] = false
			continue
		}
		u := int(g.adj[g.off[v]])
		stub[v] = g.Degree(u) > 1 || u < v
	}
	return stub
}

// CoreSize returns the number of non-stub vertices of g — the size that
// decides ExactConductance eligibility against MaxExactConductance.
func (g *Graph) CoreSize() int {
	n := g.N()
	if n == 0 {
		return 0
	}
	stub := g.markStubs(make([]bool, n))
	k := 0
	for _, s := range stub {
		if !s {
			k++
		}
	}
	return k
}

// ExactConductanceBruteForce computes the conductance of g by enumerating
// every cut of every vertex — including the stub placements that
// ExactConductance resolves in closed form. It is kept as the differential
// oracle for the stub-aware certifier (the two agree bit-for-bit whenever
// all edge weights, and hence all cut and volume sums, are exactly
// representable, e.g. integer weights) and for tests. It returns +Inf for
// graphs with fewer than 2 vertices, and an error wrapping ErrInvalidInput
// beyond MaxExactConductance total vertices.
//
// Enumeration fixes vertex 0 on the "outside" (cuts are symmetric) and walks
// the remaining 2^(n−1) subsets in Gray-code order, maintaining the cut
// weight and the set volume incrementally.
func (g *Graph) ExactConductanceBruteForce() (float64, error) {
	n := g.N()
	if n < 2 {
		return math.Inf(1), nil
	}
	if n > MaxExactConductance {
		return 0, fmt.Errorf("graph: ExactConductanceBruteForce on %d vertices exceeds the %d-vertex enumeration limit: %w",
			n, MaxExactConductance, ErrInvalidInput)
	}
	totalVol := g.TotalVol()
	in := make([]bool, n)
	cut, volS := 0.0, 0.0
	best := math.Inf(1)
	// Gray code over vertices 1..n−1: subset(i) and subset(i+1) differ in
	// exactly bit tz(i+1).
	steps := uint64(1) << uint(n-1)
	for i := uint64(1); i < steps; i++ {
		v := bits.TrailingZeros64(i) + 1 // vertex to flip (1-based over vertices 1..n−1)
		nbr, w := g.Neighbors(v)
		if !in[v] {
			for k, u := range nbr {
				if in[u] {
					cut -= w[k]
				} else {
					cut += w[k]
				}
			}
			in[v] = true
			volS += g.vol[v]
		} else {
			in[v] = false
			volS -= g.vol[v]
			for k, u := range nbr {
				if in[u] {
					cut += w[k]
				} else {
					cut -= w[k]
				}
			}
		}
		den := math.Min(volS, totalVol-volS)
		if den > 0 {
			if s := cut / den; s < best {
				best = s
			}
		}
	}
	return best, nil
}

// ConductanceUpperBound returns an upper bound on the conductance of g
// obtained from sweep cuts over several deterministic vertex orders (BFS
// orders from a few roots and a volume order). It is exact for many small
// graphs and always ≥ the true conductance.
func (g *Graph) ConductanceUpperBound() float64 {
	n := g.N()
	if n < 2 {
		return math.Inf(1)
	}
	best := math.Inf(1)
	try := func(perm []int) {
		if s, _ := g.SweepCut(perm); s < best {
			best = s
		}
	}
	roots := []int{0, n / 2, n - 1}
	for _, r := range roots {
		order, _ := g.BFS(r)
		if len(order) == n {
			try(order)
		}
	}
	// Order by increasing volume: light vertices peel off first.
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	sort.Slice(perm, func(i, j int) bool { return g.vol[perm[i]] < g.vol[perm[j]] })
	try(perm)
	return best
}
