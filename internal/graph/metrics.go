package graph

import "math"

// VolSet returns the total volume of the vertex set S (given as vertex ids).
func (g *Graph) VolSet(s []int) float64 {
	t := 0.0
	for _, v := range s {
		t += g.vol[v]
	}
	return t
}

// Out returns out(S) = cap(S, V−S): the total weight of edges with exactly
// one endpoint in S.
func (g *Graph) Out(s []int) float64 {
	in := make([]bool, g.N())
	for _, v := range s {
		in[v] = true
	}
	t := 0.0
	for _, v := range s {
		nbr, w := g.Neighbors(v)
		for i, u := range nbr {
			if !in[u] {
				t += w[i]
			}
		}
	}
	return t
}

// SweepCut orders vertices by score and returns the best prefix cut: the
// minimum sparsity over cuts {π(0..k)} for k = 0..n−2, together with the
// achieving prefix. It is an upper bound on the conductance and the standard
// rounding step for spectral partitioning. perm must be a permutation of the
// vertex ids (typically vertices sorted by a Fiedler-style score).
func (g *Graph) SweepCut(perm []int) (float64, []int) {
	n := g.N()
	if len(perm) != n || n < 2 {
		return math.Inf(1), nil
	}
	in := make([]bool, n)
	totalVol := g.TotalVol()
	cut, volS := 0.0, 0.0
	best, bestK := math.Inf(1), -1
	for k := 0; k < n-1; k++ {
		v := perm[k]
		nbr, w := g.Neighbors(v)
		for i, u := range nbr {
			if in[u] {
				cut -= w[i]
			} else {
				cut += w[i]
			}
		}
		in[v] = true
		volS += g.vol[v]
		den := math.Min(volS, totalVol-volS)
		if den > 0 {
			if s := cut / den; s < best {
				best, bestK = s, k
			}
		}
	}
	if bestK < 0 {
		return math.Inf(1), nil
	}
	return best, append([]int(nil), perm[:bestK+1]...)
}
