package graph

import (
	"math"
	"math/rand"
	"testing"
)

func buildAll(t *testing.T, n int, es []Edge, policy MergePolicy) *Graph {
	t.Helper()
	b, err := NewBuilder(n, policy)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range es {
		if err := b.Add(e.U, e.V, e.W); err != nil {
			t.Fatal(err)
		}
	}
	g, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func graphsIdentical(a, b *Graph) bool {
	if a.N() != b.N() || a.M() != b.M() {
		return false
	}
	for v := 0; v < a.N(); v++ {
		an, aw := a.Neighbors(v)
		bn, bw := b.Neighbors(v)
		if len(an) != len(bn) {
			return false
		}
		for i := range an {
			if an[i] != bn[i] || aw[i] != bw[i] {
				return false
			}
		}
		if a.Vol(v) != b.Vol(v) {
			return false
		}
	}
	return true
}

// The builder must be bit-identical to NewFromEdges on duplicate-free input:
// same neighbor order, same weights, same volumes — this is what makes the
// streaming readers a drop-in replacement.
func TestBuilderMatchesNewFromEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(200)
		seen := make(map[[2]int]bool)
		var es []Edge
		m := rng.Intn(3 * n)
		for len(es) < m {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			key := [2]int{u, v}
			if u > v {
				key = [2]int{v, u}
			}
			if seen[key] {
				continue
			}
			seen[key] = true
			es = append(es, Edge{U: u, V: v, W: math.Exp(rng.NormFloat64())})
		}
		want, err := NewFromEdges(n, es)
		if err != nil {
			t.Fatal(err)
		}
		got := buildAll(t, n, es, MergeSum)
		if !graphsIdentical(want, got) {
			t.Fatalf("trial %d: builder output differs from NewFromEdges", trial)
		}
	}
}

// Duplicate edges merge per policy, and both directions see the same weight.
func TestBuilderMergePolicies(t *testing.T) {
	es := []Edge{
		{U: 0, V: 1, W: 2},
		{U: 1, V: 0, W: 3},
		{U: 1, V: 2, W: 1},
	}
	sum := buildAll(t, 3, es, MergeSum)
	if w, _ := sum.Weight(0, 1); w != 5 {
		t.Errorf("MergeSum: w(0,1) = %v, want 5", w)
	}
	if w, _ := sum.Weight(1, 0); w != 5 {
		t.Errorf("MergeSum: w(1,0) = %v, want 5 (asymmetric merge)", w)
	}
	maxg := buildAll(t, 3, es, MergeMax)
	if w, _ := maxg.Weight(0, 1); w != 3 {
		t.Errorf("MergeMax: w(0,1) = %v, want 3", w)
	}
	if sum.M() != 2 || maxg.M() != 2 {
		t.Errorf("edge counts: sum %d, max %d, want 2", sum.M(), maxg.M())
	}
	// MergeSum semantics must match NewFromEdges' duplicate handling.
	want, err := NewFromEdges(3, es)
	if err != nil {
		t.Fatal(err)
	}
	if !graphsIdentical(want, sum) {
		t.Error("MergeSum duplicate merge differs from NewFromEdges")
	}
}

func TestBuilderValidation(t *testing.T) {
	if _, err := NewBuilder(-1, MergeSum); err == nil {
		t.Error("negative n accepted")
	}
	b, err := NewBuilder(4, MergeSum)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Add(0, 4, 1); err == nil {
		t.Error("out-of-range endpoint accepted")
	}
	if err := b.Add(2, 2, 1); err == nil {
		t.Error("self-loop accepted")
	}
	if err := b.Add(0, 1, 0); err == nil {
		t.Error("zero weight accepted")
	}
	if err := b.Add(0, 1, math.Inf(1)); err == nil {
		t.Error("infinite weight accepted")
	}
	if err := b.Add(0, 1, math.NaN()); err == nil {
		t.Error("NaN weight accepted")
	}
}

// The degree array grows with the largest id actually referenced — a builder
// declared for a huge n must cost nothing until edges arrive. This is the
// property the hardened parsers rely on against hostile size declarations.
func TestBuilderLazyAllocation(t *testing.T) {
	b, err := NewBuilder(1<<26, MergeSum)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.BufferedBytes(); got != 0 {
		t.Errorf("fresh builder buffers %d bytes, want 0", got)
	}
	if err := b.Add(3, 7, 1); err != nil {
		t.Fatal(err)
	}
	// One chunk plus eight tracked degrees — nowhere near 8*2^26.
	if got := b.BufferedBytes(); got > 4<<20 {
		t.Errorf("builder buffers %d bytes after one edge", got)
	}
}

// An empty builder finishes into an edgeless graph with every declared
// vertex isolated.
func TestBuilderEmpty(t *testing.T) {
	g := buildAll(t, 5, nil, MergeSum)
	if g.N() != 5 || g.M() != 0 {
		t.Errorf("n=%d m=%d, want 5 and 0", g.N(), g.M())
	}
}

// Enough edges to cross several chunk boundaries.
func TestBuilderManyChunks(t *testing.T) {
	n := 1000
	var es []Edge
	for i := 0; i+1 < n; i++ {
		for r := 0; r < 150; r++ {
			es = append(es, Edge{U: i, V: i + 1, W: 1})
		}
	}
	g := buildAll(t, n, es, MergeSum)
	if g.M() != n-1 {
		t.Fatalf("m = %d, want %d merged edges", g.M(), n-1)
	}
	if w, _ := g.Weight(0, 1); w != 150 {
		t.Errorf("merged weight %v, want 150", w)
	}
}
