// Package localcluster implements truncated-random-walk local clustering in
// the style of Spielman–Teng's Nibble — the "local" approach the paper's
// introduction and Section 4 contrast with its global constructions: a
// particle started inside a high-conductance, weakly-attached cluster stays
// there, so a few steps of a pruned lazy walk followed by a sweep cut
// recover the cluster around a seed without touching the rest of the graph.
package localcluster

import (
	"fmt"
	"math"
	"sort"

	"hcd/internal/graph"
)

// Options controls the truncated walk.
type Options struct {
	// Steps of the lazy walk (t in the paper's Pᵗ·e_v discussion).
	Steps int
	// Epsilon prunes entries with p(v) < Epsilon·vol(v), keeping the walk's
	// support — and the work — local.
	Epsilon float64
	// MaxVolFraction caps the returned cluster's volume at this fraction of
	// the total (sweep cuts ignore larger prefixes).
	MaxVolFraction float64
}

// DefaultOptions: 30 lazy steps, pruning at 1e-7, clusters up to half the
// volume.
func DefaultOptions() Options {
	return Options{Steps: 30, Epsilon: 1e-7, MaxVolFraction: 0.5}
}

// Result is a locally-grown cluster.
type Result struct {
	Cluster     []int
	Conductance float64 // sparsity of the sweep cut that produced it
	Support     int     // vertices ever touched by the truncated walk
}

// Nibble grows a cluster around seed. It runs the ε-truncated lazy walk for
// the configured number of steps, then takes the best sweep cut of the
// volume-normalized distribution p(v)/vol(v).
func Nibble(g *graph.Graph, seed int, opt Options) (*Result, error) {
	n := g.N()
	if seed < 0 || seed >= n {
		return nil, fmt.Errorf("localcluster: seed %d out of range", seed)
	}
	if g.Vol(seed) == 0 {
		return nil, fmt.Errorf("localcluster: seed %d is isolated", seed)
	}
	if opt.Steps <= 0 {
		opt.Steps = DefaultOptions().Steps
	}
	if opt.Epsilon <= 0 {
		opt.Epsilon = DefaultOptions().Epsilon
	}
	if opt.MaxVolFraction <= 0 || opt.MaxVolFraction > 1 {
		opt.MaxVolFraction = DefaultOptions().MaxVolFraction
	}
	// Sparse distribution over touched vertices.
	p := map[int]float64{seed: 1}
	touched := map[int]bool{seed: true}
	next := make(map[int]float64, 16)
	for step := 0; step < opt.Steps; step++ {
		for k := range next {
			delete(next, k)
		}
		for v, pv := range p {
			// Lazy walk: hold half, spread half along edges ∝ weight.
			next[v] += pv / 2
			nbr, w := g.Neighbors(v)
			vol := g.Vol(v)
			for i, u := range nbr {
				next[int(u)] += pv / 2 * w[i] / vol
			}
		}
		// Prune below ε·vol to keep support local (mass is discarded, as in
		// Nibble; the distribution becomes sub-stochastic).
		for k := range p {
			delete(p, k)
		}
		for v, pv := range next {
			if pv >= opt.Epsilon*g.Vol(v) {
				p[v] = pv
				touched[v] = true
			}
		}
		if len(p) == 0 {
			return nil, fmt.Errorf("localcluster: walk pruned to nothing (ε too large)")
		}
	}
	// Sweep over p(v)/vol(v).
	type scored struct {
		v     int
		score float64
	}
	order := make([]scored, 0, len(p))
	for v, pv := range p {
		order = append(order, scored{v: v, score: pv / g.Vol(v)})
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].score != order[j].score {
			return order[i].score > order[j].score
		}
		return order[i].v < order[j].v
	})
	totalVol := g.TotalVol()
	in := make(map[int]bool, len(order))
	cut, volS := 0.0, 0.0
	best, bestK := math.Inf(1), -1
	for k, s := range order {
		v := s.v
		nbr, w := g.Neighbors(v)
		for i, u := range nbr {
			if in[int(u)] {
				cut -= w[i]
			} else {
				cut += w[i]
			}
		}
		in[v] = true
		volS += g.Vol(v)
		if volS > opt.MaxVolFraction*totalVol {
			break
		}
		den := math.Min(volS, totalVol-volS)
		if den > 0 {
			if sp := cut / den; sp < best {
				best, bestK = sp, k
			}
		}
	}
	if bestK < 0 {
		return nil, fmt.Errorf("localcluster: no non-trivial sweep cut found")
	}
	cluster := make([]int, 0, bestK+1)
	for k := 0; k <= bestK; k++ {
		cluster = append(cluster, order[k].v)
	}
	sort.Ints(cluster)
	return &Result{Cluster: cluster, Conductance: best, Support: len(touched)}, nil
}
