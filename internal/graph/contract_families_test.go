package graph_test

import (
	"fmt"
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
				d, err := decomp.FixedDegree(g, 4, 1)
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
