package graph_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"hcd/internal/decomp"
	"hcd/internal/graph"
	"hcd/internal/workload"
)

// TestContractAcrossFamilies holds the contraction kernel against the
// reference oracle on every workload family the repository generates, under
// the assignments a build produces and the degenerate ones around them.
func TestContractAcrossFamilies(t *testing.T) {
	must := func(g *graph.Graph, err error) *graph.Graph {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	wf := workload.Lognormal(1)
	families := map[string]*graph.Graph{
		"grid2d":   workload.Grid2D(40, 37, wf, 1),
		"grid3d":   workload.Grid3D(13, 12, 11, wf, 2),
		"road":     must(workload.RoadNetwork(36, 36, 6, wf, 3)),
		"femesh":   must(workload.FEMesh(32, 30, 0.3, wf, 4)),
		"powerlaw": must(workload.PowerLaw(1500, 3, wf, 5)),
		"tree":     workload.BinaryTree(10, wf, 6),
	}
	for name, g := range families {
		n := g.N()
		assignments := map[string]func() ([]int, int){
			"fixed-degree": func() ([]int, int) {
				d, err := decomp.FixedDegreeCtx(context.Background(), g, 4, 1)
				if err != nil {
					t.Fatal(err)
				}
				return d.Assign, d.Count
			},
			// About n/3 clusters, every tenth vertex a singleton cluster of
			// its own, ids shuffled so neighbours in id are not neighbours in
			// the graph.
			"random with singletons": func() ([]int, int) {
				rng := rand.New(rand.NewSource(int64(n)))
				shared := n/3 + 1
				assign := make([]int, n)
				m := shared
				for v := range assign {
					if v%10 == 0 {
						assign[v] = m
						m++
					} else {
						assign[v] = rng.Intn(shared)
					}
				}
				relabel := rng.Perm(m)
				for v, c := range assign {
					assign[v] = relabel[c]
				}
				return assign, m
			},
			"one cluster": func() ([]int, int) { return make([]int, n), 1 },
			"identity": func() ([]int, int) {
				assign := make([]int, n)
				for v := range assign {
					assign[v] = v
				}
				return assign, n
			},
		}
		for aname, build := range assignments {
			t.Run(fmt.Sprintf("%s/%s", name, aname), func(t *testing.T) {
				assign, m := build()
				graph.CheckContract(t, g, assign, m, 4)
			})
		}
	}
}

// TestContractMatchesMarkedReference holds the two-stream kernel to the
// marker kernel it replaced, bit for bit, where the summation order shows in
// the bits: lognormal weights on random multigraphs under random, one-cluster,
// identity, few-cluster (m(m−1)/2 < M), mostly-empty and build-like
// assignments, then every level of the lognormal 32³ grid's hierarchy.
func TestContractMatchesMarkedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for it := 0; it < 2400; it++ {
		n := 1 + rng.Intn(64)
		var es []graph.Edge
		for k := rng.Intn(4 * n); k > 0; k-- {
			if u, v := rng.Intn(n), rng.Intn(n); u != v {
				es = append(es, graph.Edge{U: u, V: v, W: math.Exp(rng.NormFloat64())})
			}
		}
		g := graph.MustFromEdges(n, es)
		var m int
		assign := make([]int, n)
		switch it % 6 {
		case 0: // up to n clusters, some of them empty
			m = 1 + rng.Intn(n)
			for v := range assign {
				assign[v] = rng.Intn(m)
			}
		case 1:
			m = 1
		case 2:
			m = n
			copy(assign, rng.Perm(n))
		case 3:
			m = 2 + rng.Intn(3)
			for v := range assign {
				assign[v] = rng.Intn(m)
			}
		case 4: // at least as many empty clusters as used ones
			m = 2*n + rng.Intn(n)
			for v := range assign {
				assign[v] = rng.Intn(m)
			}
		case 5: // runs of up to four consecutive vertices, ids shuffled
			for v := 0; v < n; m++ {
				for end := min(n, v+1+rng.Intn(4)); v < end; v++ {
					assign[v] = m
				}
			}
			relabel := rng.Perm(m)
			for v, c := range assign {
				assign[v] = relabel[c]
			}
		}
		graph.CheckContractMarked(t, g, assign, m)
	}
	cur := workload.Grid3D(32, 32, 32, workload.Lognormal(1), 1)
	for level := 0; cur.N() > 600; level++ {
		d, err := decomp.FixedDegreeCtx(context.Background(), cur, 4, int64(1+level))
		if err != nil {
			t.Fatal(err)
		}
		graph.CheckContractMarked(t, cur, d.Assign, d.Count)
		cur = cur.Contract(d.Assign, d.Count)
	}
}
