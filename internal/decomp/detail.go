package decomp

import (
	"fmt"
	"math"
	"sort"

	"hcd/internal/graph"
)

// ClusterStats describes one cluster of a decomposition in the terms the
// paper uses.
type ClusterStats struct {
	ID            int
	Size          int
	Vol           float64 // total volume of the cluster's vertices in G
	Out           float64 // total boundary weight out(C)
	BoundaryRatio float64 // ψ(C) = out/vol (the random-walk escape rate)
	Phi           float64 // closure conductance
	PhiExact      bool
	GammaMin      float64 // min over v of cap(v, C−v)/vol(v); 0 for singletons
}

// Details computes per-cluster statistics, sorted by ascending closure
// conductance (the problematic clusters first). Clusters of at most
// exactLimit core vertices are measured exactly by the stub-aware certifier.
func Details(d *Decomposition, exactLimit int) []ClusterStats {
	clusters := d.Clusters()
	out := make([]ClusterStats, len(clusters))
	cert := graph.NewCertifier(d.G)
	var cb *graph.ClosureBuilder
	for c, vs := range clusters {
		st := ClusterStats{ID: c, Size: len(vs), GammaMin: math.Inf(1)}
		st.Vol = d.G.VolSet(vs)
		st.Out = d.G.Out(vs)
		if st.Vol > 0 {
			st.BoundaryRatio = st.Out / st.Vol
		}
		if len(vs) <= exactLimit && len(vs) <= graph.MaxExactConductance {
			st.Phi = mustClusterPhi(cert, vs)
			st.PhiExact = true
		} else {
			if cb == nil {
				cb = graph.NewClosureBuilder(d.G)
			}
			st.Phi = mustBuilderClosure(cb, vs).ConductanceUpperBound()
		}
		in := make(map[int]bool, len(vs))
		for _, v := range vs {
			in[v] = true
		}
		if len(vs) == 1 {
			st.GammaMin = 0
		} else {
			for _, v := range vs {
				nbr, w := d.G.Neighbors(v)
				inside := 0.0
				for i, u := range nbr {
					if in[int(u)] {
						inside += w[i]
					}
				}
				if g := inside / d.G.Vol(v); g < st.GammaMin {
					st.GammaMin = g
				}
			}
		}
		out[c] = st
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Phi < out[j].Phi })
	return out
}

// String renders one cluster's statistics.
func (s ClusterStats) String() string {
	exact := "~"
	if s.PhiExact {
		exact = "="
	}
	return fmt.Sprintf("cluster %d: size=%d vol=%.4g out=%.4g ψ=%.4f φ%s%.4f γ=%.4f",
		s.ID, s.Size, s.Vol, s.Out, s.BoundaryRatio, exact, s.Phi, s.GammaMin)
}
