package graph

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// permutedCopy is RenumberInPlace's bitwise oracle: the plain copying
// renumbering, vertex i of the result being vertex order[i] of g with its
// entries in g's order and its neighbor ids renamed, in fresh arrays.
func permutedCopy(g *Graph, order []int) *Graph {
	n := g.N()
	inv := make([]int32, n)
	for i, v := range order {
		inv[v] = int32(i)
	}
	p := &Graph{off: make([]int, n+1), vol: make([]float64, n)}
	for i, v := range order {
		for j := g.off[v]; j < g.off[v+1]; j++ {
			p.adj, p.w = append(p.adj, inv[g.adj[j]]), append(p.w, g.w[j])
		}
		p.off[i+1] = len(p.adj)
		p.vol[i] = g.vol[v]
	}
	p.groups = rowGroups(p.off)
	return p
}

// graphDiff names the first array in which a and b differ bit for bit —
// off, adj, w, vol or the row-group table — or returns "".
func graphDiff(a, b *Graph) string {
	bits := func(x, y []float64) bool {
		return slices.EqualFunc(x, y, func(p, q float64) bool { return math.Float64bits(p) == math.Float64bits(q) })
	}
	switch {
	case !slices.Equal(a.off, b.off):
		return fmt.Sprintf("off %v, want %v", a.off, b.off)
	case !slices.Equal(a.adj, b.adj):
		return fmt.Sprintf("adj %v, want %v", a.adj, b.adj)
	case !bits(a.w, b.w):
		return fmt.Sprintf("w %v, want %v", a.w, b.w)
	case !bits(a.vol, b.vol):
		return fmt.Sprintf("vol %v, want %v", a.vol, b.vol)
	case !slices.Equal(a.groups, b.groups):
		return fmt.Sprintf("row groups %v, want %v", a.groups, b.groups)
	}
	return ""
}

// windowedPerm shuffles the ids of every window [lo, lo+window) among
// themselves: the shape of permutation RenumberInPlace takes.
func windowedPerm(rng *rand.Rand, n, window int) []int {
	order := make([]int, n)
	for lo := 0; lo < n; lo += window {
		hi := min(lo+window, n)
		for i, j := range rng.Perm(hi - lo) {
			order[lo+i] = lo + j
		}
	}
	return order
}

// checkRenumber holds RenumberInPlace(order, window) on a clone of g to the
// copying oracle bit for bit, and the oracle to the contract: vertex i of
// the result is vertex order[i] of g with its entries in g's order, so Vol
// and LapMul are the permuted originals bit for bit; the degree multiset and
// symmetry survive.
func checkRenumber(t *testing.T, g *Graph, order []int, window int, x []float64) {
	t.Helper()
	p := g.Clone()
	if err := p.RenumberInPlace(order, window); err != nil {
		t.Fatalf("RenumberInPlace(%v, %d): %v", order, window, err)
	}
	if d := graphDiff(p, permutedCopy(g, order)); d != "" {
		t.Fatalf("RenumberInPlace(%v, %d): %s", order, window, d)
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
	if dg, dp := degs(g), degs(p); !slices.Equal(dg, dp) {
		t.Fatalf("degree multiset changed: %v → %v", dg, dp)
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

// checkBadPermutations: every damaged order — short, long, a window below 1,
// an id listed twice, out of range, or moved into another window — returns
// an error wrapping ErrInvalidInput and leaves g bit for bit as it was.
func checkBadPermutations(t *testing.T, g *Graph, window int) {
	t.Helper()
	n := g.N()
	ident := make([]int, n)
	for i := range ident {
		ident[i] = i
	}
	type bad struct {
		order  []int
		window int
	}
	cases := []bad{{ident[:n-1], window}, {append(slices.Clone(ident), 0), window}, {ident, 0}}
	if n >= 2 {
		dup := slices.Clone(ident)
		dup[1] = dup[0]
		low := slices.Clone(ident)
		low[0] = -1
		high := slices.Clone(ident)
		high[n-1] = n
		cases = append(cases, bad{dup, window}, bad{low, window}, bad{high, window})
		// Swap the last id of a window with the first of the next: a
		// permutation, but not of each window onto itself.
		w := min(window, n-1)
		cross := slices.Clone(ident)
		cross[w-1], cross[w] = cross[w], cross[w-1]
		cases = append(cases, bad{cross, w})
	}
	before := g.Clone()
	for _, c := range cases {
		if err := g.RenumberInPlace(c.order, c.window); !errors.Is(err, ErrInvalidInput) {
			t.Errorf("RenumberInPlace(%v, %d) = %v; want an error wrapping ErrInvalidInput", c.order, c.window, err)
		}
		if d := graphDiff(g, before); d != "" {
			t.Fatalf("rejected RenumberInPlace(%v, %d) wrote the graph: %s", c.order, c.window, d)
		}
	}
}

// TestPermutedKeepsRowOrder: a random in-place renumbering of an irregular
// graph, within windows of every size, keeps every row's entry order, hence
// every row sum, and rejects what is not a windowed permutation untouched.
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
		for _, window := range []int{1, 3, 64, n, 2 * n} {
			checkRenumber(t, g, windowedPerm(rng, n, window), window, x)
			checkBadPermutations(t, g, window)
		}
	}
}

// FuzzRenumberInPlace fuzzes RenumberInPlace over small random graphs and
// random windowed permutations against the copying oracle: the input bytes
// decode into a vertex count, a window, a Fisher–Yates shuffle inside each
// window and (u, v, w) triples; damaged copies of the identity (short, long,
// duplicate, out of range, across a window) must be rejected and leave the
// graph untouched.
func FuzzRenumberInPlace(f *testing.F) {
	f.Add([]byte{6, 3, 3, 1, 4, 1, 5, 9, 0, 1, 3, 1, 2, 5, 2, 3, 1, 3, 4, 2, 4, 5, 9, 5, 0, 4})
	f.Add([]byte{2, 1, 1, 0, 0, 1, 7})
	f.Add([]byte{9, 4, 8, 7, 6, 5, 4, 3, 2, 1, 0, 0, 1, 15, 0, 2, 15, 0, 3, 1, 3, 4, 1})
	f.Add([]byte{1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		// Byte 0: vertex count in [1, 24]; byte 1: window in [1, n]; n
		// shuffle bytes; triples (u, v, w).
		n := 1 + int(data[0])%24
		data = data[1:]
		window := n
		if len(data) > 0 {
			window = 1 + int(data[0])%n
			data = data[1:]
		}
		order := make([]int, n)
		for i := range order {
			order[i] = i
		}
		for i := n - 1; i > 0 && n-1-i < len(data); i-- {
			lo := i / window * window
			j := lo + int(data[n-1-i])%(i-lo+1)
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
		checkRenumber(t, g, order, window, x)
		checkBadPermutations(t, g, window)
	})
}
