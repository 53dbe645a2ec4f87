package graph

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// referenceFromEdges is the edge-list constructor this package shipped before
// the bucket-by-vertex fill, kept as an oracle: orient every edge low to
// high, sort the whole list by endpoint pair, sum the duplicates in sorted
// order and fill the CSR arrays from the merged list.
func referenceFromEdges(n int, edges []Edge) *Graph {
	es := make([]Edge, len(edges))
	for i, e := range edges {
		if e.U > e.V {
			e.U, e.V = e.V, e.U
		}
		es[i] = e
	}
	sort.Slice(es, func(i, j int) bool {
		if es[i].U != es[j].U {
			return es[i].U < es[j].U
		}
		return es[i].V < es[j].V
	})
	merged := es[:0]
	for _, e := range es {
		if k := len(merged) - 1; k >= 0 && merged[k].U == e.U && merged[k].V == e.V {
			merged[k].W += e.W
		} else {
			merged = append(merged, e)
		}
	}
	// Sorted by (U, V) with U < V, the list fills every row in ascending
	// neighbor order: the smaller neighbors of x arrive as (U, x) in U order,
	// then the larger ones as (x, V).
	g, err := NewFromUniqueEdges(n, merged)
	if err != nil {
		panic(err)
	}
	return g
}

// contractReference is the contraction this package shipped before the
// CSR→CSR kernel, kept as the oracle the kernel is tested against: collect
// every cross-cluster edge and build the quotient from that edge list.
func contractReference(g *Graph, assign []int, m int) *Graph {
	var es []Edge
	for u := 0; u < g.N(); u++ {
		nbr, w := g.Neighbors(u)
		cu := assign[u]
		for k, v := range nbr {
			if u < int(v) && assign[v] != cu {
				es = append(es, Edge{U: cu, V: assign[v], W: w[k]})
			}
		}
	}
	return referenceFromEdges(m, es)
}

// contractMarked is the contraction kernel this package shipped before the
// two-stream fine pass, kept as its exact oracle: for each cluster a in turn,
// walk its members' rows, skip every neighbour in a cluster b ≤ a, sum the
// rest through a marker array straight into the packed upper runs, sort each
// run, and assemble the rows in one scatter. It adds the same weights in the
// same order as Contract, so the two agree bit for bit on any weights.
func contractMarked(g *Graph, assign []int, m int) *Graph {
	n := g.N()
	end := make([]int, m+1)
	for _, c := range assign {
		end[c+1]++
	}
	for c := 0; c < m; c++ {
		end[c+1] += end[c]
	}
	members := make([]int, n)
	for v, c := range assign {
		members[end[c]] = v
		end[c]++
	}
	var uadj []int32
	var uw []float64
	off := make([]int, m+1)
	mark := make([]int, m)
	for i := range mark {
		mark[i] = -1
	}
	lo := 0
	for a := 0; a < m; a++ {
		rowLo := len(uadj)
		for _, u := range members[lo:end[a]] {
			for i := g.off[u]; i < g.off[u+1]; i++ {
				b := assign[g.adj[i]]
				if b <= a {
					continue
				}
				if p := mark[b]; p >= rowLo {
					uw[p] += g.w[i]
				} else {
					mark[b] = len(uadj)
					uadj = append(uadj, int32(b))
					uw = append(uw, g.w[i])
					off[b+1]++
				}
			}
		}
		lo = end[a]
		sortRun(uadj[rowLo:], uw[rowLo:])
		off[a+1] += len(uadj) - rowLo
	}
	for a := 0; a < m; a++ {
		off[a+1] += off[a]
	}
	adj := make([]int32, off[m])
	w := make([]float64, off[m])
	cur := mark
	copy(cur, off[:m])
	lo = 0
	for a := 0; a < m; a++ {
		hi := lo + off[a+1] - cur[a]
		copy(adj[cur[a]:], uadj[lo:hi])
		copy(w[cur[a]:], uw[lo:hi])
		for p := lo; p < hi; p++ {
			b := uadj[p]
			adj[cur[b]], w[cur[b]] = int32(a), uw[p]
			cur[b]++
		}
		lo = hi
	}
	q, err := NewFromCSR(off, adj, w)
	if err != nil {
		panic(err)
	}
	return q
}

// checkContractMarked holds one contraction against contractMarked bit for
// bit: offsets, neighbour ids, weights and volumes.
func checkContractMarked(t testing.TB, g *Graph, assign []int, m int) {
	t.Helper()
	got, want := g.Contract(assign, m), contractMarked(g, assign, m)
	if len(got.off) != len(want.off) || len(got.adj) != len(want.adj) {
		t.Fatalf("quotient shape: got n=%d entries=%d, oracle n=%d entries=%d", got.N(), len(got.adj), want.N(), len(want.adj))
	}
	for i := range got.off {
		if got.off[i] != want.off[i] {
			t.Fatalf("off[%d] = %d, oracle %d", i, got.off[i], want.off[i])
		}
	}
	for i := range got.adj {
		if got.adj[i] != want.adj[i] || math.Float64bits(got.w[i]) != math.Float64bits(want.w[i]) {
			t.Fatalf("entry %d = (%d, %v), oracle (%d, %v)", i, got.adj[i], got.w[i], want.adj[i], want.w[i])
		}
	}
	for v := range got.vol {
		if math.Float64bits(got.vol[v]) != math.Float64bits(want.vol[v]) {
			t.Fatalf("vol[%d] = %v, oracle %v", v, got.vol[v], want.vol[v])
		}
	}
}

// TestContractGrowsOnAsymmetricCSR: NewFromCSR does not check symmetry, so a
// CSR whose every row lists only higher-numbered neighbours has twice as many
// upward half-edges as M; the staging buffer must grow, not overflow.
func TestContractGrowsOnAsymmetricCSR(t *testing.T) {
	const n = 9
	off := []int{0}
	var adj []int32
	var w []float64
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			adj = append(adj, int32(v))
			w = append(w, math.Exp(float64(u-v)/3))
		}
		off = append(off, len(adj))
	}
	g, err := NewFromCSR(off, adj, w)
	if err != nil {
		t.Fatal(err)
	}
	identity := make([]int, n)
	for v := range identity {
		identity[v] = v
	}
	checkContractMarked(t, g, identity, n)
	checkContractMarked(t, g, []int{0, 1, 0, 2, 1, 3, 3, 2, 4}, 5)
}

// ulpsApart is the number of representable float64 values between two
// positive weights.
func ulpsApart(a, b float64) uint64 {
	x, y := math.Float64bits(a), math.Float64bits(b)
	if x < y {
		x, y = y, x
	}
	return x - y
}

// checkContract holds one contraction against the oracle and against the
// structural contract of a quotient: identical pattern, weights within
// maxUlps of the oracle's, bitwise symmetry, strictly increasing rows and
// volumes equal to the row sums in row order.
func checkContract(t testing.TB, g *Graph, assign []int, m int, maxUlps uint64) {
	t.Helper()
	got := g.Contract(assign, m)
	want := contractReference(g, assign, m)
	goff, gadj, gw := got.CSR()
	woff, wadj, ww := want.CSR()
	if len(goff) != len(woff) || len(gadj) != len(wadj) {
		t.Fatalf("quotient shape: got n=%d entries=%d, oracle n=%d entries=%d", len(goff)-1, len(gadj), len(woff)-1, len(wadj))
	}
	for i := range goff {
		if goff[i] != woff[i] {
			t.Fatalf("off[%d] = %d, oracle %d", i, goff[i], woff[i])
		}
	}
	for i := range gadj {
		if gadj[i] != wadj[i] {
			t.Fatalf("adj[%d] = %d, oracle %d", i, gadj[i], wadj[i])
		}
		if d := ulpsApart(gw[i], ww[i]); d > maxUlps {
			t.Fatalf("w[%d] = %v, oracle %v: %d ulps apart, limit %d", i, gw[i], ww[i], d, maxUlps)
		}
	}
	for a := 0; a < got.N(); a++ {
		nbr, w := got.Neighbors(a)
		vol := 0.0
		for i, b := range nbr {
			if i > 0 && nbr[i-1] >= b {
				t.Fatalf("row %d not strictly increasing: %v", a, nbr)
			}
			b := int(b)
			if b == a {
				t.Fatalf("row %d holds a self-loop", a)
			}
			back, ok := got.Weight(b, a)
			if !ok || math.Float64bits(back) != math.Float64bits(w[i]) {
				t.Fatalf("w(%d,%d) = %v but w(%d,%d) = %v (present: %v)", a, b, w[i], b, a, back, ok)
			}
			vol += w[i]
		}
		if math.Float64bits(vol) != math.Float64bits(got.Vol(a)) {
			t.Fatalf("Vol(%d) = %v, row sum %v", a, got.Vol(a), vol)
		}
	}
}

func TestContractMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for it := 0; it < 200; it++ {
		n := 2 + rng.Intn(40)
		g := randomConnected(rng, n, rng.Intn(3*n))
		m := 1 + rng.Intn(n)
		assign := make([]int, n)
		for v := range assign {
			assign[v] = rng.Intn(m)
		}
		checkContract(t, g, assign, m, 4)
	}
}

// TestQuotientLaplacianEqualsContraction is the algebraic identity of
// Definition 3.1 / Remark 1: with R the 0/1 cluster membership matrix, RᵀAR
// is the Laplacian of the contracted graph.
func TestQuotientLaplacianEqualsContraction(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for it := 0; it < 10; it++ {
		g := randomConnected(rng, 25, 30)
		n, m := g.N(), 5
		assign := make([]int, n)
		for v := range assign {
			assign[v] = rng.Intn(m)
		}
		a := g.LapDense()
		rtar := make([]float64, m*m)
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				rtar[assign[u]*m+assign[v]] += a[u*n+v]
			}
		}
		want := g.Contract(assign, m).LapDense()
		for i, w := range want {
			if math.Abs(rtar[i]-w) > 1e-9*math.Max(1, math.Abs(w)) {
				t.Fatalf("it=%d: quotient (%d,%d): RᵀAR=%v, contraction %v", it, i/m, i%m, rtar[i], w)
			}
		}
	}
}

// TestNewFromEdgesMatchesSortMerge holds the bucket-fill constructor against
// the sort-and-merge one it replaced. A pair listed at most twice sums to
// the same bits in any order; longer runs of duplicates may differ in the
// last places because the old global sort was not stable.
func TestNewFromEdgesMatchesSortMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for it := 0; it < 200; it++ {
		n := 2 + rng.Intn(30)
		count := map[[2]int]int{}
		var es []Edge
		for k := rng.Intn(6 * n); k > 0; k-- {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			es = append(es, Edge{U: u, V: v, W: math.Exp(rng.NormFloat64())})
			count[[2]int{min(u, v), max(u, v)}]++
		}
		got := MustFromEdges(n, es)
		want := referenceFromEdges(n, es)
		goff, gadj, gw := got.CSR()
		woff, wadj, ww := want.CSR()
		if len(gadj) != len(wadj) {
			t.Fatalf("entries: got %d, oracle %d", len(gadj), len(wadj))
		}
		for v := 0; v <= n; v++ {
			if goff[v] != woff[v] {
				t.Fatalf("off[%d] = %d, oracle %d", v, goff[v], woff[v])
			}
		}
		for v := 0; v < n; v++ {
			for i := goff[v]; i < goff[v+1]; i++ {
				if gadj[i] != wadj[i] {
					t.Fatalf("adj[%d] = %d, oracle %d", i, gadj[i], wadj[i])
				}
				u := gadj[i]
				limit := uint64(0)
				if k := count[[2]int{min(u, v), max(u, v)}]; k > 2 {
					limit = uint64(k)
				}
				if d := ulpsApart(gw[i], ww[i]); d > limit {
					t.Fatalf("w(%d,%d) = %v, oracle %v: %d ulps apart, limit %d", v, u, gw[i], ww[i], d, limit)
				}
				if back, _ := got.Weight(u, v); math.Float64bits(back) != math.Float64bits(gw[i]) {
					t.Fatalf("w(%d,%d) = %v but w(%d,%d) = %v", v, u, gw[i], u, v, back)
				}
			}
		}
	}
}

func TestContractEmptyAndEdgeless(t *testing.T) {
	empty := MustFromEdges(0, nil)
	if q := empty.Contract(nil, 0); q.N() != 0 || q.M() != 0 {
		t.Errorf("empty graph contracts to N=%d M=%d", q.N(), q.M())
	}
	// Clusters nothing is assigned to become isolated quotient vertices.
	g := pathGraph(4)
	q := g.Contract([]int{0, 0, 3, 3}, 5)
	if q.N() != 5 || q.M() != 1 || q.Degree(1) != 0 || q.Degree(2) != 0 || q.Degree(4) != 0 {
		t.Errorf("quotient with empty clusters: N=%d M=%d edges=%v", q.N(), q.M(), q.Edges())
	}
}

func TestContractPanicsOnBadAssignment(t *testing.T) {
	g := cycleGraph(6)
	for name, tc := range map[string]struct {
		assign []int
		m      int
	}{
		"short":          {[]int{0, 0, 1, 1, 2}, 3},
		"long":           {[]int{0, 0, 1, 1, 2, 2, 0}, 3},
		"id too large":   {[]int{0, 0, 1, 1, 2, 3}, 3},
		"negative id":    {[]int{0, 0, -1, 1, 2, 2}, 3},
		"negative count": {[]int{0, 0, 0, 0, 0, 0}, -1},
		// The bad id sits on an intra-cluster-looking edge: the check is on
		// the assignment, not on the edges that happen to cross.
		"isolated bad id": {[]int{7, 7, 7, 7, 7, 7}, 3},
	} {
		func() {
			defer func() {
				err, _ := recover().(error)
				if err == nil || !errors.Is(err, ErrInvalidInput) {
					t.Errorf("%s: recovered %v, want an error wrapping ErrInvalidInput", name, err)
				}
			}()
			g.Contract(tc.assign, tc.m)
		}()
	}
}

// FuzzContract differentially fuzzes the contraction kernel against the
// sort-and-merge oracle and against contractMarked. The input bytes decode
// into a small graph with small-integer weights and an assignment over up to
// n clusters, so every quotient weight is an exactly representable sum and
// any summation order gives the same bits: the oracle comparison is exact,
// not within a tolerance. The same edges with the weight byte decoded to
// e^((w−128)/20) make the summation order show in the bits, and against
// contractMarked, which sums in Contract's order, that comparison is exact
// too.
func FuzzContract(f *testing.F) {
	f.Add([]byte{6, 3, 0, 0, 1, 1, 2, 2, 0, 1, 3, 1, 2, 5, 2, 3, 1, 3, 4, 2, 4, 5, 9, 5, 0, 4})
	f.Add([]byte{2, 1, 0, 0, 0, 1, 7})
	f.Add([]byte{4, 4, 0, 1, 2, 3, 0, 1, 1, 1, 2, 1, 2, 3, 1, 0, 2, 8, 0, 2, 8})
	f.Add([]byte{9, 2, 0, 1, 0, 1, 0, 1, 0, 1, 0, 0, 1, 15, 0, 2, 15, 0, 3, 1, 3, 4, 1, 4, 5, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		// Byte 0: vertex count in [1, 24]; byte 1: cluster count in [1, n];
		// n assignment bytes; then triples (u, v, w).
		n := 1 + int(data[0])%24
		m := 1 + int(data[1])%n
		data = data[2:]
		assign := make([]int, n)
		for v := range assign {
			if v < len(data) {
				assign[v] = int(data[v]) % m
			}
		}
		if len(data) > n {
			data = data[n:]
		} else {
			data = nil
		}
		var es, wide []Edge
		for i := 0; i+2 < len(data); i += 3 {
			u, v := int(data[i])%n, int(data[i+1])%n
			if u == v {
				continue
			}
			es = append(es, Edge{U: u, V: v, W: float64(1 + int(data[i+2])%16)})
			wide = append(wide, Edge{U: u, V: v, W: math.Exp(float64(int(data[i+2])-128) / 20)})
		}
		g, err := NewFromEdges(n, es)
		if err != nil {
			t.Fatalf("construction from valid edges failed: %v", err)
		}
		checkContract(t, g, assign, m, 0)
		checkContractMarked(t, MustFromEdges(n, wide), assign, m)
	})
}
