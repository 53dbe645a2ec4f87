// spectral_portrait demonstrates Section 4: the low eigenvectors of the
// normalized Laplacian of a well-clustered graph are nearly cluster-wise
// constant (after D^{1/2} scaling). It builds a graph with planted
// communities, computes its smallest eigenpairs, and shows how much of each
// eigenvector lives inside Range(D^{1/2}R) for the computed decomposition —
// the quantity Theorem 4.1 bounds by 3λ(1 + 2/(γφ²)).
package main

import (
	"context"
	"fmt"
	"log"
	"math"

	"hcd"
)

func main() {
	// Planted partition: 8 dense blocks of 24 vertices joined by light
	// edges — the regime where random walks get trapped in clusters.
	g := plantedPartition(8, 24, 4.0, 0.05)
	fmt.Printf("planted-partition graph: n=%d m=%d\n", g.N(), g.M())

	dres, err := hcd.DecomposeCtx(context.Background(), g, hcd.DecomposeOptions{
		Method: hcd.MethodFixedDegree, SizeCap: 24, Seed: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	d, rep := dres.D, dres.Report
	fmt.Printf("clustering: %d clusters, φ=%.3f, γ=%.3f\n", d.Count, rep.Phi, rep.GammaMin)

	vals, vecs, err := hcd.SmallestEigenpairs(g, 10, 150, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("eigenvector alignment with the cluster space Range(D^{1/2}R):")
	fmt.Printf("%-4s %-12s %-14s %-14s\n", "i", "λᵢ", "1−alignment", "bound 3λ(1+2/φ³)")
	for i := range vals {
		mis := 1 - hcd.Alignment(d, vecs[i])
		bound := 3 * vals[i] * (1 + 2/math.Pow(rep.Phi, 3))
		fmt.Printf("%-4d %-12.5f %-14.6f %-14.4f\n", i+2, vals[i], mis, bound)
	}
	fmt.Println("shape: eigenvectors below the spectral gap align almost perfectly;")
	fmt.Println("alignment degrades only past the gap — the paper's spectral portrait.")

	lo, hi, err := hcd.CheegerBounds(g, 2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("whole-graph conductance bracket (Cheeger + sweep): [%.4f, %.4f]\n", lo, hi)

	// Recover the planted blocks by recursing: compose the levels of a
	// hierarchy built down to a block-sized quotient, then check cluster
	// purity.
	hopt := hcd.DefaultHierarchyOptions()
	hopt.SizeCap, hopt.Seed, hopt.DirectLimit = 4, 1, 12
	h, err := hcd.NewHierarchyCtx(context.Background(), g, hopt)
	if err != nil {
		log.Fatal(err)
	}
	levels, _ := h.DumpLevels()
	assign := make([]int, g.N())
	for v := range assign {
		assign[v] = v
	}
	for _, l := range levels {
		for v := range assign {
			assign[v] = l.Assign[assign[v]]
		}
	}
	top := levels[len(levels)-1].Count
	composed := &hcd.Decomposition{G: g, Assign: assign, Count: top}
	if err := hcd.Validate(composed); err != nil {
		log.Fatal(err)
	}
	crep := hcd.Evaluate(composed)
	fmt.Printf("laminar recursion: %d levels down to %d clusters (φ=%.3f)\n",
		len(levels), top, crep.Phi)
	truth := make([]int, g.N())
	for v := range truth {
		truth[v] = v / 24 // planted block of v
	}
	agree, err := hcd.Agreement(assign, truth)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("planted-block recovery: purity %.1f%%, Rand index %.3f\n",
		100*agree.Purity, agree.RandIndex)
}

// plantedPartition builds k blocks of size s: a cycle plus random chords
// inside each block with weight win, and a light ring between blocks.
func plantedPartition(k, s int, win, wout float64) *hcd.Graph {
	var es []hcd.Edge
	id := func(b, i int) int { return b*s + i }
	for b := 0; b < k; b++ {
		for i := 0; i < s; i++ {
			es = append(es, hcd.Edge{U: id(b, i), V: id(b, (i+1)%s), W: win})
			// chords for expansion inside the block
			es = append(es, hcd.Edge{U: id(b, i), V: id(b, (i+s/2)%s), W: win})
		}
		es = append(es, hcd.Edge{U: id(b, 0), V: id((b+1)%k, 0), W: wout})
	}
	g, err := hcd.NewGraph(k*s, es)
	if err != nil {
		log.Fatal(err)
	}
	return g
}
