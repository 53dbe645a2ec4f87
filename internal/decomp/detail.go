package decomp

import (
	"context"
	"fmt"
	"sort"
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

// Details lists every cluster's statistics, sorted by ascending closure
// conductance (the problematic clusters first): φ, PhiExact and γ from the
// same per-cluster measurement Evaluate reduces, plus the cluster's volume
// and boundary. Clusters of at most exactLimit core vertices are measured
// exactly by the stub-aware certifier.
func Details(d *Decomposition, exactLimit int) []ClusterStats {
	t, _ := measureClusters(context.Background(), d, exactLimit, true) // fails only on cancellation
	out := make([]ClusterStats, d.Count)
	for c := range out {
		vs := t.order[t.start[c]:t.start[c+1]]
		st := ClusterStats{
			ID: c, Size: len(vs), Vol: d.G.VolSet(vs), Out: d.G.Out(vs),
			Phi: t.phi[c], PhiExact: t.exact[c], GammaMin: t.gamma[c],
		}
		if st.Vol > 0 {
			st.BoundaryRatio = st.Out / st.Vol
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
