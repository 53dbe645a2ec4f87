package graph

import (
	"math"
	"testing"

	"hcd/internal/kernel"
)

// FuzzExactConductance differentially fuzzes the three conductance
// computations: the stub-aware certifier (ExactConductance and
// Certifier.ClusterPhi) must agree bit-for-bit with the brute-force cut
// enumeration, and ConductanceUpperBound must dominate the exact value. The
// fuzzer decodes the input bytes into a small graph with small-integer edge
// weights, so every cut weight and volume is exactly representable and both
// enumerations evaluate identical candidate values — exact float64 equality
// is the correct oracle, not a tolerance.
func FuzzExactConductance(f *testing.F) {
	f.Add([]byte{6, 0, 1, 3, 1, 2, 5, 2, 3, 1, 3, 4, 2, 4, 5, 9})
	f.Add([]byte{3, 0, 1, 1, 1, 2, 1})
	f.Add([]byte{9, 0, 1, 15, 0, 2, 15, 0, 3, 1, 3, 4, 1, 4, 5, 2, 2, 6, 3, 6, 7, 3, 7, 8, 4})
	f.Add([]byte{2, 0, 1, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		// Byte 0: vertex count in [2, 12]; triples (u, v, w) follow.
		n := 2 + int(data[0])%11
		var es []Edge
		for i := 1; i+2 < len(data); i += 3 {
			u, v := int(data[i])%n, int(data[i+1])%n
			if u == v {
				continue
			}
			es = append(es, Edge{U: u, V: v, W: float64(1 + int(data[i+2])%16)})
		}
		g, err := NewFromEdges(n, es)
		if err != nil {
			t.Fatalf("construction from valid edges failed: %v", err)
		}
		brute, err := g.ExactConductanceBruteForce()
		if err != nil {
			t.Fatal(err)
		}
		fast, err := g.ExactConductance()
		if err != nil {
			t.Fatal(err)
		}
		if fast != brute {
			t.Fatalf("stub-aware %v != brute force %v (n=%d core=%d edges=%v)",
				fast, brute, n, g.CoreSize(), g.Edges())
		}
		if bound := g.ConductanceUpperBound(); !math.IsInf(brute, 1) && bound < brute {
			t.Fatalf("upper bound %v < exact %v", bound, brute)
		}
		// Cluster-direct certification: certify the cluster made of the
		// first half of the vertices against the materialized closure.
		s := make([]int, 0, n/2)
		for v := 0; v < (n+1)/2; v++ {
			s = append(s, v)
		}
		clo, _, err := g.Closure(s)
		if err != nil {
			t.Fatal(err)
		}
		if clo.N() <= MaxExactConductance {
			want, err := clo.ExactConductanceBruteForce()
			if err != nil {
				t.Fatal(err)
			}
			got, err := NewCertifier(g).ClusterPhi(s)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("ClusterPhi %v != closure brute force %v (cluster %v of %v)",
					got, want, s, g.Edges())
			}
		}
	})
}

// FuzzLapBlockTile differentially fuzzes the AVX2 column tiles against the Go
// tiles (where this build runs them), and both against the width-1 row loop:
// the input bytes decode into a small graph, a block width, a mode, a row
// range and the operands, and both bodies must write the same words — the
// same bits, or NaN on both sides — to every entry of dst, in the range and
// outside it, and in the range column j must hold what the Go row loop writes
// for column j alone.
func FuzzLapBlockTile(f *testing.F) {
	f.Add([]byte{6, 8, 0, 0, 6, 0, 1, 3, 1, 2, 5, 2, 3, 1, 3, 4, 2, 4, 5, 9})
	f.Add([]byte{40, 13, 2, 3, 30, 0, 1, 200, 1, 2, 100, 7, 9, 50, 9, 30, 255, 30, 31, 0})
	f.Add([]byte{2, 4, 1, 0, 2, 0, 1, 7})
	f.Add([]byte{17, 20, 2, 16, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 5 {
			return
		}
		// Bytes 0–4: vertex count in [1, 64], width in [4, 24], mode, row
		// range; triples (u, v, w) follow and also seed the operands.
		n := 1 + int(data[0])%64
		k := 4 + int(data[1])%21
		mode := int(data[2]) % 3
		lo := int(data[3]) % (n + 1)
		hi := lo + int(data[4])%(n+1-lo)
		data = data[5:]
		var es []Edge
		for i := 0; i+2 < len(data); i += 3 {
			if u, v := int(data[i])%n, int(data[i+1])%n; u != v {
				es = append(es, Edge{U: u, V: v, W: math.Ldexp(1+float64(data[i+2]%16), int(data[i+2]>>4)-8)})
			}
		}
		g, err := NewFromEdges(n, es)
		if err != nil {
			t.Fatalf("construction from valid edges failed: %v", err)
		}
		special := []float64{0, math.Copysign(0, -1), 5e-324, math.Inf(1), math.Inf(-1), math.NaN(), math.MaxFloat64}
		value := func(i int) float64 {
			if len(data) == 0 {
				return float64(i%7) - 3
			}
			b := data[i%len(data)]
			if b >= 240 {
				return special[int(b)%len(special)]
			}
			return (float64(b) - 120) * float64(1+i%5) / 16
		}
		x, r, dInv := make([]float64, n*k), make([]float64, n*k), make([]float64, n)
		for i := range x {
			x[i], r[i] = value(i), value(i+n*k)
		}
		for v := range dInv {
			dInv[v] = 1 / g.Vol(v)
		}
		if mode < 2 {
			dInv = nil
		}
		if mode < 1 {
			r = nil
		}
		const sentinel = 9.75
		want, got := make([]float64, n*k), make([]float64, n*k)
		for i := range want {
			want[i], got[i] = sentinel, sentinel
		}
		const omega = 0.8
		kernel.WithGo(func() { g.BlockRange(want, r, x, dInv, omega, k, lo, hi) })
		g.BlockRange(got, r, x, dInv, omega, k, lo, hi)
		for i := range want {
			if !kernel.SameWord(got[i], want[i]) {
				t.Fatalf("n=%d k=%d mode %d rows [%d,%d): row %d column %d: AVX2 tile %v (%#x), Go tile %v (%#x)",
					n, k, mode, lo, hi, i/k, i%k, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
			}
		}
		col := func(b []float64, j int) []float64 {
			if b == nil {
				return nil
			}
			c := make([]float64, n)
			for v := range c {
				c[v] = b[v*k+j]
			}
			return c
		}
		solo := make([]float64, n)
		for j := 0; j < k; j++ {
			kernel.WithGo(func() { g.RowRange(solo, col(r, j), col(x, j), dInv, omega, lo, hi) })
			for v := lo; v < hi; v++ {
				if !kernel.SameWord(want[v*k+j], solo[v]) {
					t.Fatalf("n=%d k=%d mode %d rows [%d,%d): row %d column %d: Go tile %v (%#x), row loop on the column alone %v (%#x)",
						n, k, mode, lo, hi, v, j, want[v*k+j], math.Float64bits(want[v*k+j]), solo[v], math.Float64bits(solo[v]))
				}
			}
		}
	})
}

// FuzzLapRowGroups differentially fuzzes the AVX2 row-group kernel against
// the Go loops: the input bytes decode into a mode, a row range and runs of
// rows of one length each, and go on to supply the neighbor ids, the weights
// and the operands — as raw float64 bits every other word, so every class of
// value turns up. Both bodies must write the same words — the same bits, or
// NaN on both sides — to every entry of dst, in the range and outside it.
func FuzzLapRowGroups(f *testing.F) {
	f.Add([]byte{0, 0, 255, 20, 3, 4, 2, 17, 1, 1, 0, 33, 5})
	f.Add([]byte{1, 3, 40, 16, 1, 16, 2, 16, 3, 250, 251, 252, 253, 254, 255, 0, 1})
	f.Add([]byte{2, 7, 9, 40, 6, 1, 7, 39, 6, 0xf0, 0x7f, 0, 0, 0, 0, 0xf8, 0xff})
	f.Add([]byte{2, 0, 0, 19, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if kernel.Name() != "avx2" {
			t.Skip("the AVX2 row-group kernel is not in use in this build on this host")
		}
		if len(data) < 5 {
			return
		}
		// Bytes 0–2: mode and row range; pairs (rows in [1, 40], entries per
		// row in [0, 7]) follow, up to 400 rows.
		mode := int(data[0]) % 3
		loByte, hiByte := int(data[1]), int(data[2])
		data = data[3:]
		off := []int{0}
		for i := 0; i+1 < len(data) && len(off) <= 400; i += 2 {
			for row, d := 0, int(data[i+1])%8; row < 1+int(data[i])%40; row++ {
				off = append(off, off[len(off)-1]+d)
			}
		}
		n := len(off) - 1
		lo := loByte % (n + 1)
		hi := lo + hiByte%(n+1-lo)
		// word is the i-th value the bytes supply: a small number, or eight
		// of them as a float64's bits.
		word := func(i int) float64 {
			b := func(j int) uint64 { return uint64(data[(3*i+j)%len(data)]) }
			if i%2 == 0 {
				return (float64(b(0)) - 120) * float64(1+i%5) / 16
			}
			return math.Float64frombits(b(0)<<56 | b(1)<<48 | b(2)<<40 | b(3)<<32 | b(4)<<24 | b(5)<<16 | b(6)<<8 | b(7))
		}
		g := &Graph{off: off, adj: make([]int32, off[n]), w: make([]float64, off[n]), vol: make([]float64, n), groups: rowGroups(off)}
		for i := range g.adj {
			g.adj[i], g.w[i] = int32((int(data[i%len(data)])+7*i)%n), word(i)
		}
		x, r, dInv := make([]float64, n), make([]float64, n), make([]float64, n)
		for v := range x {
			x[v], r[v], dInv[v] = word(v+off[n]), word(v+off[n]+n), word(v+off[n]+2*n)
		}
		omega := word(off[n] + 3*n + 1)
		if mode < 2 {
			dInv = nil
		}
		if mode < 1 {
			r = nil
		}
		const sentinel = 9.75
		want, got := make([]float64, n), make([]float64, n)
		for v := range want {
			want[v], got[v] = sentinel, sentinel
		}
		kernel.WithGo(func() { g.RowRange(want, r, x, dInv, omega, lo, hi) })
		g.RowRange(got, r, x, dInv, omega, lo, hi)
		for v := range want {
			if !kernel.SameWord(got[v], want[v]) {
				t.Fatalf("mode %d ω=%v rows [%d,%d) of %d: row %d (%d entries): AVX2 kernel %v (%#x), Go loop %v (%#x); table %v",
					mode, omega, lo, hi, n, v, off[v+1]-off[v], got[v], math.Float64bits(got[v]), want[v], math.Float64bits(want[v]), g.groups)
			}
		}
	})
}
