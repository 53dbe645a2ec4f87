package graph

import (
	"errors"
	"math/rand"
	"sort"
	"testing"
)

// checkPermuted holds Permuted(order) to its contract: vertex i of the
// result is vertex order[i] of g with its entries in g's order, so Vol and
// LapMul are the permuted originals bit for bit; the degree multiset and
// symmetry survive.
func checkPermuted(t *testing.T, g *Graph, order []int, x []float64) {
	t.Helper()
	p, err := g.Permuted(order)
	if err != nil {
		t.Fatalf("Permuted(%v): %v", order, err)
	}
	n := g.N()
	if p.N() != n || p.M() != g.M() {
		t.Fatalf("size changed: %d vertices %d edges → %d, %d", n, g.M(), p.N(), p.M())
	}
	inv := make([]int, n)
	for i, v := range order {
		inv[v] = i
	}
	for i, v := range order {
		nbr, w := g.Neighbors(v)
		pnbr, pw := p.Neighbors(i)
		if len(pnbr) != len(nbr) {
			t.Fatalf("row %d (was %d): %d entries, had %d", i, v, len(pnbr), len(nbr))
		}
		for j := range nbr {
			if int(pnbr[j]) != inv[nbr[j]] || pw[j] != w[j] {
				t.Fatalf("row %d (was %d) entry %d: (%d, %v), want (%d, %v)", i, v, j, pnbr[j], pw[j], inv[nbr[j]], w[j])
			}
			if back, ok := p.Weight(int(pnbr[j]), i); !ok || back != pw[j] {
				t.Fatalf("edge (%d,%d) weight %v has mirror %v (present %v)", i, pnbr[j], pw[j], back, ok)
			}
		}
		if p.Vol(i) != g.Vol(v) {
			t.Fatalf("Vol(%d) = %v, was %v at %d", i, p.Vol(i), g.Vol(v), v)
		}
	}
	degs := func(h *Graph) []int {
		d := make([]int, h.N())
		for v := range d {
			d[v] = h.Degree(v)
		}
		sort.Ints(d)
		return d
	}
	dg, dp := degs(g), degs(p)
	for i := range dg {
		if dg[i] != dp[i] {
			t.Fatalf("degree multiset changed: %v → %v", dg, dp)
		}
	}
	px := make([]float64, n)
	for i, v := range order {
		px[i] = x[v]
	}
	want, got := make([]float64, n), make([]float64, n)
	g.LapMul(want, x)
	p.LapMul(got, px)
	for i, v := range order {
		if got[i] != want[v] {
			t.Fatalf("LapMul row %d = %v, row %d of the original = %v", i, got[i], v, want[v])
		}
	}
}

func checkBadPermutations(t *testing.T, g *Graph) {
	t.Helper()
	n := g.N()
	ident := make([]int, n)
	for i := range ident {
		ident[i] = i
	}
	bad := [][]int{ident[:n-1], append(append([]int(nil), ident...), 0)}
	if n >= 2 {
		dup := append([]int(nil), ident...)
		dup[1] = dup[0]
		low := append([]int(nil), ident...)
		low[0] = -1
		high := append([]int(nil), ident...)
		high[n-1] = n
		bad = append(bad, dup, low, high)
	}
	for _, order := range bad {
		if p, err := g.Permuted(order); p != nil || !errors.Is(err, ErrInvalidInput) {
			t.Errorf("Permuted(%v) = %v, %v; want an error wrapping ErrInvalidInput", order, p, err)
		}
	}
}

// TestPermutedKeepsRowOrder: a random renumbering of an irregular graph keeps
// every row's entry order, hence every row sum, and rejects non-permutations.
func TestPermutedKeepsRowOrder(t *testing.T) {
	for _, n := range []int{1, 2, 37, 900} {
		g := MustFromEdges(n, nil) // n = 1: the ring below would be a self-loop
		if n > 1 {
			g = blockTestGraph(t, n, int64(n))
		}
		rng := rand.New(rand.NewSource(int64(n) + 1))
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		checkPermuted(t, g, rng.Perm(n), x)
		checkBadPermutations(t, g)
	}
}

// FuzzPermuted fuzzes Permuted over small random graphs and random
// permutations: the input bytes decode into a vertex count, a Fisher–Yates
// shuffle and (u, v, w) triples; damaged copies of the identity (short, long,
// duplicate, out of range) must be rejected.
func FuzzPermuted(f *testing.F) {
	f.Add([]byte{6, 3, 1, 4, 1, 5, 9, 0, 1, 3, 1, 2, 5, 2, 3, 1, 3, 4, 2, 4, 5, 9, 5, 0, 4})
	f.Add([]byte{2, 1, 0, 0, 1, 7})
	f.Add([]byte{9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 0, 1, 15, 0, 2, 15, 0, 3, 1, 3, 4, 1})
	f.Add([]byte{1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		// Byte 0: vertex count in [1, 24]; n shuffle bytes; triples (u, v, w).
		n := 1 + int(data[0])%24
		data = data[1:]
		order := make([]int, n)
		for i := range order {
			order[i] = i
		}
		for i := n - 1; i > 0 && n-1-i < len(data); i-- {
			j := int(data[n-1-i]) % (i + 1)
			order[i], order[j] = order[j], order[i]
		}
		if len(data) > n {
			data = data[n:]
		} else {
			data = nil
		}
		var es []Edge
		x := make([]float64, n)
		for i := 0; i+2 < len(data); i += 3 {
			u, v := int(data[i])%n, int(data[i+1])%n
			x[u] += float64(data[i+2]) / 7
			if u == v {
				continue
			}
			es = append(es, Edge{U: u, V: v, W: float64(1+int(data[i+2])%16) / 3})
		}
		g, err := NewFromEdges(n, es)
		if err != nil {
			t.Fatalf("construction from valid edges failed: %v", err)
		}
		checkPermuted(t, g, order, x)
		checkBadPermutations(t, g)
	})
}
