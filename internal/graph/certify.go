package graph

import (
	"fmt"
	"math"
	"math/bits"

	"hcd/internal/par"
)

// This file holds the stub-aware exact conductance certifier. The closure of
// a cluster C (Section 2) is the induced subgraph on C plus one degree-1
// "stub" vertex per boundary edge. A naive exact certification Gray-codes
// 2^(n−1) cuts of the whole closure, paying exponential cost in the boundary
// size even when the cluster itself is tiny. The certifier below enumerates
// only the 2^(k−1) side-assignments of the k core (cluster) vertices and
// places the stubs in closed form, which is exact by the following argument
// (proved in DESIGN.md §"Exact certification on closures"):
//
// Fix a side-assignment (P, Q) of the core with both sides non-empty, and
// write D_P, D_Q for the side volumes when every stub sits with its anchor
// (D_P = Σ_{v∈P} eff(v) with eff(v) = vol°(v) + stubweight(v)). Moving stubs
// of total weight x from P's anchors and y from Q's anchors to the opposite
// side yields a cut of value c0 + x + y over min(D_P + y − x, D_Q + x − y).
// Since min(D_P + s, D_Q − s) ≤ min(D_P, D_Q) + |s| and |y − x| ≤ x + y, the
// mediant inequality (a+t)/(b+t) ≥ min(a/b, 1) gives
//
//	sparsity ≥ min(c0/min(D_P, D_Q), 1).
//
// Cuts whose core part is trivial consist of stubs only and have sparsity
// ≥ 1, with 1 attained exactly by isolating any single stub (a stub of
// weight w always satisfies 2w ≤ vol(G°)). Hence
//
//	φ(G°) = min( min over core assignments of c0/min(D_P, D_Q),  1 if a stub exists ),
//
// and no stub subset ever needs to be enumerated: stubs on the same anchor
// collapse into the anchor's effective volume (a second multiplicity
// collapse — anchored stubs are interchangeable).

// CertStats counts the work performed by exact closure-conductance
// certification. The counters are deterministic functions of the certified
// clusters, so parallel and serial evaluations report identical values.
type CertStats struct {
	Cores   int64 // clusters certified by core side-assignment enumeration
	Stubs   int64 // boundary stubs collapsed into anchor volumes (never enumerated)
	Subsets int64 // core side-assignments visited across all certifications
	Bounds  int64 // clusters that exceeded the core limit and fell back to a sweep bound
}

// serialEnumBits is the largest core enumeration (in bits, i.e. k−1) run as
// a single sequential Gray-code walk. Larger cores are split into
// prefix-partitioned chunks enumerated via internal/par. The threshold is a
// constant — never a function of the worker count — so the certified value
// is identical on every machine and at every GOMAXPROCS.
const serialEnumBits = 16

// maxChunkBits bounds the number of prefix-partitioned chunks at 2^maxChunkBits.
const maxChunkBits = 8

// coreCSR is the scratch representation of a closure's core: core-local CSR
// adjacency of the induced (core–core) edges plus per-vertex effective
// volumes eff(i) = vol°(core i) + total anchored stub weight.
type coreCSR struct {
	off []int
	nbr []int32
	w   []float64
	eff []float64
	in  []bool // serial-walk scratch, reused across certifications
}

// enumerateCoreCuts returns the minimum, over the 2^(k−1) non-trivial core
// side-assignments with stubs glued to their anchors, of cut/min(vol, T−vol),
// folding in the constant-1 candidate realized by single-stub cuts when
// hasStub is set. total is the closure's total volume Σ eff. It returns +Inf
// when no cut with a positive smaller side exists (k < 2 and no stub).
func enumerateCoreCuts(c *coreCSR, total float64, hasStub bool) float64 {
	k := len(c.eff)
	best := math.Inf(1)
	if hasStub {
		best = 1
	}
	if k < 2 {
		return best
	}
	nbits := k - 1
	if nbits <= serialEnumBits {
		c.in = grow(c.in, k)
		if v := enumCoreRange(c, total, c.in, 0, uint64(1)<<uint(nbits)); v < best {
			best = v
		}
		return best
	}
	// Prefix-partitioned parallel enumeration: fix the top p Gray-index bits
	// per chunk, rebuild the incremental state at each chunk boundary in
	// O(k + m°) and walk 2^(nbits−p) flips inside. Chunk boundaries depend
	// only on k, so the result is bit-identical at any worker count.
	p := nbits - serialEnumBits
	if p > maxChunkBits {
		p = maxChunkBits
	}
	chunks := 1 << uint(p)
	size := uint64(1) << uint(nbits-p)
	partial := make([]float64, chunks)
	par.For(chunks, 1, par.Func(func(lo, hi int) {
		in := make([]bool, k)
		for i := lo; i < hi; i++ {
			partial[i] = enumCoreRange(c, total, in, uint64(i)*size, uint64(i+1)*size)
		}
	}))
	for _, v := range partial {
		if v < best {
			best = v
		}
	}
	return best
}

// enumCoreRange walks Gray-code subset indices [start, end) over core
// vertices 1..k−1 (vertex 0 is fixed outside; bit j ↔ vertex j+1),
// maintaining the core cut weight and the in-side effective volume
// incrementally, and returns the minimum sparsity seen. in is caller scratch
// of length k; its contents are overwritten.
func enumCoreRange(c *coreCSR, total float64, in []bool, start, end uint64) float64 {
	// Rebuild the state of subset(start) = start ^ (start>>1) from scratch.
	code := start ^ (start >> 1)
	for j := range in {
		in[j] = false
	}
	for j := 0; j < len(in)-1; j++ {
		if code&(uint64(1)<<uint(j)) != 0 {
			in[j+1] = true
		}
	}
	cut, volS := 0.0, 0.0
	for v := 1; v < len(in); v++ {
		if !in[v] {
			continue
		}
		volS += c.eff[v]
		for e := c.off[v]; e < c.off[v+1]; e++ {
			if !in[c.nbr[e]] {
				cut += c.w[e]
			}
		}
	}
	best := math.Inf(1)
	consider := func() {
		den := math.Min(volS, total-volS)
		if den > 0 {
			if s := cut / den; s < best {
				best = s
			}
		}
	}
	if start > 0 {
		consider()
	}
	for i := start + 1; i < end; i++ {
		v := bits.TrailingZeros64(i) + 1
		nb, w := c.nbr[c.off[v]:c.off[v+1]], c.w[c.off[v]:c.off[v+1]]
		if !in[v] {
			for e, u := range nb {
				if in[u] {
					cut -= w[e]
				} else {
					cut += w[e]
				}
			}
			in[v] = true
			volS += c.eff[v]
		} else {
			in[v] = false
			volS -= c.eff[v]
			for e, u := range nb {
				if in[u] {
					cut += w[e]
				} else {
					cut -= w[e]
				}
			}
		}
		consider()
	}
	return best
}

// Certifier certifies the exact closure conductance of clusters of one host
// graph without materializing the closures: the core–core edges are gathered
// into reusable scratch, boundary edges collapse into per-anchor effective
// volumes, and the 2^(k−1) core side-assignments are enumerated by
// enumerateCoreCuts. A Certifier is not safe for concurrent use; create one
// per goroutine (they are cheap: two O(n) arrays plus core-sized scratch).
type Certifier struct {
	g     *Graph
	stamp []uint64 // per host vertex: epoch when last made a member
	pos   []int32  // host vertex -> core-local index, valid when stamp matches
	epoch uint64
	core  coreCSR

	// Stats accumulates certification counters across calls.
	Stats CertStats
}

// NewCertifier returns a Certifier for clusters of g.
func NewCertifier(g *Graph) *Certifier {
	return &Certifier{
		g:     g,
		stamp: make([]uint64, g.N()),
		pos:   make([]int32, g.N()),
	}
}

// ClusterPhi returns the exact conductance of the closure G° of cluster s —
// bit-identical to materializing the closure with Graph.Closure and running
// the brute-force enumeration, at 2^(k−1) cost in the core size k = len(s)
// instead of 2^(n°−1) in the closure size. Clusters larger than
// MaxExactConductance, duplicate members, and out-of-range members return an
// error wrapping ErrInvalidInput.
func (c *Certifier) ClusterPhi(s []int) (float64, error) {
	g := c.g
	k := len(s)
	if k == 0 {
		return math.Inf(1), nil
	}
	if k > MaxExactConductance {
		return 0, fmt.Errorf("graph: ClusterPhi on a %d-vertex core exceeds the %d-core enumeration limit: %w",
			k, MaxExactConductance, ErrInvalidInput)
	}
	c.epoch++
	for i, v := range s {
		if v < 0 || v >= g.N() {
			return 0, fmt.Errorf("graph: ClusterPhi vertex %d out of range [0,%d): %w", v, g.N(), ErrInvalidInput)
		}
		if c.stamp[v] == c.epoch {
			return 0, fmt.Errorf("graph: duplicate vertex %d in ClusterPhi: %w", v, ErrInvalidInput)
		}
		c.stamp[v] = c.epoch
		c.pos[v] = int32(i)
	}
	c.core.off = grow(c.core.off, k+1)
	c.core.eff = grow(c.core.eff, k)
	off, eff := c.core.off, c.core.eff
	// Pass 1: core degrees and effective volumes. eff(i) = vol°(v) +
	// anchored stub weight = vol_G(v) + boundary(v), since the closure keeps
	// every edge of v (in-cluster edges as core edges, boundary edges as
	// stub edges).
	for i := range off {
		off[i] = 0
	}
	stubs := int64(0)
	for i, v := range s {
		nbr, w := g.Neighbors(v)
		boundary := 0.0
		deg := 0
		for e, u := range nbr {
			if c.stamp[u] == c.epoch {
				deg++
			} else {
				boundary += w[e]
				stubs++
			}
		}
		off[i+1] = deg
		eff[i] = g.vol[v] + boundary
	}
	for i := 0; i < k; i++ {
		off[i+1] += off[i]
	}
	entries := off[k]
	c.core.nbr = grow(c.core.nbr, entries)
	c.core.w = grow(c.core.w, entries)
	// Pass 2: fill the core-local CSR in host adjacency order.
	fill := 0
	for _, v := range s {
		nbr, w := g.Neighbors(v)
		for e, u := range nbr {
			if c.stamp[u] == c.epoch {
				c.core.nbr[fill] = c.pos[u]
				c.core.w[fill] = w[e]
				fill++
			}
		}
	}
	total := 0.0
	for i := 0; i < k; i++ {
		total += eff[i]
	}
	c.Stats.Cores++
	c.Stats.Stubs += stubs
	c.Stats.Subsets += int64(uint64(1)<<uint(k-1)) - 1
	return enumerateCoreCuts(&c.core, total, stubs > 0), nil
}

// grow returns s resized to n, reusing capacity.
func grow[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}
