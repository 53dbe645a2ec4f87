package decomp

// Shard-parallel fixed-degree decomposition. The Section 3.1 clustering is
// one independent pass per vertex (Remark 1), so it shards cleanly: partition
// the vertex range into contiguous shards of balanced adjacency mass, run
// the perturb/heaviest-edge/split construction per shard over *intra-shard*
// edges only, then stitch along the shard boundary.
//
// Sharding can only lose edges that cross a shard boundary, and losing an
// edge only matters to a vertex whose every forest candidate crossed: after
// shard-local clustering, any vertex with at least one intra-shard neighbor
// has selected a heaviest intra-shard edge and sits in a cluster of size
// ≥ 2 (or a leftover-root merge). Hence every cluster damaged by sharding
// is a *singleton whose vertex has cross-shard neighbors* — the stitch pass
// only needs to consider those.
//
// The stitch is deterministic and GOMAXPROCS-invariant: it runs serially
// over boundary singletons in ascending vertex id, merging each into the
// cluster of its heaviest-perturbed cross-shard neighbor if and only if the
// merged cluster stays small enough for exact certification and its
// certified closure conductance keeps at least half of the target cluster's
// pre-stitch value. Rejected candidates stay singletons — exactly what the
// unsharded construction produces for isolated vertices — so Validate and
// the γ-violation bound of Section 2 hold unconditionally.

import (
	"context"
	"fmt"
	"math"

	"hcd/internal/graph"
	"hcd/internal/par"
)

// ShardStats summarizes the sharded build: how much boundary the partition
// created and what the stitch did about it.
type ShardStats struct {
	Shards             int // shards actually used
	BoundaryEdges      int // edges crossing a shard boundary
	BoundarySingletons int // stitch candidates: singleton clusters with cross-shard neighbors
	Merged             int // candidates absorbed into a neighboring shard's cluster
	Rejected           int // candidates kept as singletons (size cap or conductance)
}

// stitchSizeFactor bounds a stitched cluster at stitchSizeFactor·sizeCap
// vertices (and never above graph.MaxExactConductance, so the certifier
// stays exact).
const stitchSizeFactor = 4

// stitchPhiKeep is the fraction of the target cluster's pre-stitch certified
// conductance a merge must preserve to be accepted.
const stitchPhiKeep = 0.5

// FixedDegreeShardedCtx builds a Section 3.1 fixed-degree decomposition in
// shards: partition, cluster every shard concurrently, stitch the boundary.
// With shards ≤ 1 (or a graph too small to split) it is exactly
// FixedDegreeCtx — same bits, same clusters. The result is a deterministic
// function of (g, sizeCap, seed, shards) regardless of GOMAXPROCS.
func FixedDegreeShardedCtx(ctx context.Context, g *graph.Graph, sizeCap int, seed int64, shards int) (*Decomposition, ShardStats, error) {
	if shards <= 1 || g.N() < 2*shards {
		d, err := FixedDegreeCtx(ctx, g, sizeCap, seed)
		return d, ShardStats{Shards: 1}, err
	}
	sh := graph.PartitionShards(g, shards)
	d, stats, err := clusterShards(ctx, g, sh, sizeCap, seed)
	if err != nil {
		return nil, stats, err
	}
	if err := stitchShards(ctx, d, sh, sizeCap, seed, &stats); err != nil {
		return nil, stats, err
	}
	return d, stats, nil
}

// clusterShards runs the fixed-degree clustering of every shard concurrently
// on internal/par workers. Each shard clusters over its intra-shard edges
// only, using the host-global edge perturbation, and writes shard-local
// cluster ids into its own disjoint slice of d.Assign; a serial pass then
// offsets the ids in shard order. Boundary singletons are left for
// stitchShards. The shards must tile [0, g.N()) — PartitionShards output.
func clusterShards(ctx context.Context, g *graph.Graph, shards []graph.Shard, sizeCap int, seed int64) (*Decomposition, ShardStats, error) {
	if sizeCap < 2 {
		return nil, ShardStats{}, fmt.Errorf("decomp: sizeCap must be ≥ 2, got %d: %w", sizeCap, graph.ErrInvalidInput)
	}
	stats := ShardStats{Shards: len(shards)}
	n := g.N()
	d := &Decomposition{G: g, Assign: make([]int, n)}
	if n == 0 {
		return d, stats, nil
	}
	covered := 0
	for _, s := range shards {
		if s.Lo() != covered {
			return nil, stats, fmt.Errorf("decomp: shards do not tile the vertex range (gap at %d)", covered)
		}
		covered = s.Hi()
	}
	if covered != n {
		return nil, stats, fmt.Errorf("decomp: shards cover [0,%d), graph has %d vertices", covered, n)
	}
	counts := make([]int, len(shards))
	errs := make([]error, len(shards))
	par.For(len(shards), 1, par.Func(func(lo, hi int) {
		for si := lo; si < hi; si++ {
			counts[si], errs[si] = clusterShard(ctx, shards[si], sizeCap, seed, d.Assign)
		}
	}))
	for _, err := range errs {
		if err != nil {
			return nil, stats, err
		}
	}
	// Shard-local ids become global by adding the shard's offset — a
	// deterministic function of the shard order, independent of which worker
	// finished first.
	offset := 0
	for si, s := range shards {
		if offset != 0 {
			a := d.Assign[s.Lo():s.Hi()]
			for i := range a {
				a[i] += offset
			}
		}
		offset += counts[si]
	}
	d.Count = offset
	return d, stats, nil
}

// clusterShard is FixedDegreeCtx restricted to one shard: heaviest
// intra-shard perturbed edge per vertex as a shard-local pointer, then the
// same splitPointers. Cluster ids are shard-local starting at 0, written into
// hostAssign[s.Lo():s.Hi()].
func clusterShard(ctx context.Context, s graph.Shard, sizeCap int, seed int64, hostAssign []int) (int, error) {
	// [2] Heaviest perturbed intra-shard edge per vertex, as a shard-local
	// pointer. The perturbation hashes host-global ids, so shard boundaries
	// do not change which of the surviving edges wins.
	bestTo := make([]int32, s.Len())
	for li := range bestTo {
		if err := poll(ctx, li); err != nil {
			return 0, err
		}
		bestTo[li] = -1
		if u := heaviestEdge(s.Host(), s.Global(li), s.Lo(), s.Hi(), seed); u >= 0 {
			bestTo[li] = int32(s.Local(int(u)))
		}
	}
	return splitPointers(ctx, bestTo, sizeCap, hostAssign[s.Lo():s.Hi()])
}

// stitchShards repairs the boundary damage of a per-shard clustering, in
// place. It visits every boundary singleton in ascending vertex id and
// merges it into the cluster of its heaviest-perturbed cross-shard neighbor
// when (a) the merged cluster stays within
// min(stitchSizeFactor·sizeCap, graph.MaxExactConductance) vertices and
// (b) the exact certifier confirms the merged closure keeps at least
// stitchPhiKeep of the target cluster's pre-stitch conductance. The pass is
// serial, so the result is independent of GOMAXPROCS; cluster ids are
// compacted afterwards.
func stitchShards(ctx context.Context, d *Decomposition, shards []graph.Shard, sizeCap int, seed int64, stats *ShardStats) error {
	g := d.G
	n := g.N()
	if n == 0 {
		return nil
	}
	hostN := n
	size := make([]int, d.Count)
	for _, c := range d.Assign {
		size[c]++
	}
	order, start := d.clusterSpans()
	// Members of cluster c after merges: the original span plus extra[c].
	extra := make(map[int][]int)
	// phi0 caches each target cluster's certified conductance before any
	// stitch merge touched it.
	phi0 := make(map[int]float64)
	cert := graph.NewCertifier(g)
	mergeCap := stitchSizeFactor * sizeCap
	if mergeCap > graph.MaxExactConductance {
		mergeCap = graph.MaxExactConductance
	}
	scratch := make([]int, 0, mergeCap+1)
	for _, s := range shards {
		for v := s.Lo(); v < s.Hi(); v++ {
			if err := poll(ctx, v); err != nil {
				return err
			}
			nbr, w := s.Neighbors(v)
			boundary := false
			best, bestW := -1, 0.0
			for i, u := range nbr {
				u := int(u)
				if s.Contains(u) {
					continue
				}
				if u > v {
					stats.BoundaryEdges++
				}
				boundary = true
				pw := w[i] * perturbFactor(v, u, hostN, seed)
				if best < 0 || pw > bestW || (pw == bestW && u < best) {
					best, bestW = u, pw
				}
			}
			if !boundary || size[d.Assign[v]] != 1 {
				continue
			}
			stats.BoundarySingletons++
			c := d.Assign[best]
			if size[c]+1 > mergeCap {
				stats.Rejected++
				continue
			}
			if size[c] > 1 {
				// A real target cluster: the merge must not destroy its
				// certified closure conductance.
				members := scratch[:0]
				members = append(members, order[start[c]:start[c]+size[c]-len(extra[c])]...)
				members = append(members, extra[c]...)
				target, ok := phi0[c]
				if !ok {
					target = mustClusterPhi(cert, members)
					phi0[c] = target
				}
				merged := mustClusterPhi(cert, append(members, v))
				if merged < stitchPhiKeep*target && !math.IsInf(target, 1) {
					stats.Rejected++
					continue
				}
			}
			// A singleton target has nothing to degrade (its certified φ is
			// the degenerate single-stub cut): pairing two boundary
			// singletons is exactly what the unsharded construction does, so
			// only the size cap applies.
			size[d.Assign[v]]--
			d.Assign[v] = c
			size[c]++
			extra[c] = append(extra[c], v)
			stats.Merged++
		}
	}
	if stats.Merged == 0 {
		return nil
	}
	// Compact away the emptied singleton clusters, preserving relative id
	// order.
	remap := make([]int, d.Count)
	next := 0
	for c := 0; c < d.Count; c++ {
		if size[c] == 0 {
			remap[c] = -1
			continue
		}
		remap[c] = next
		next++
	}
	for v, c := range d.Assign {
		d.Assign[v] = remap[c]
	}
	d.Count = next
	return nil
}
