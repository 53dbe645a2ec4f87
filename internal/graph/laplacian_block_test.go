package graph

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"hcd/internal/kernel"
)

func blockTestGraph(t *testing.T, n int, seed int64) *Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var edges []Edge
	// A ring for connectivity plus random chords: irregular degrees exercise
	// the per-row neighbor loop more honestly than a grid.
	for v := 0; v < n; v++ {
		edges = append(edges, Edge{U: v, V: (v + 1) % n, W: 0.5 + rng.Float64()})
	}
	for i := 0; i < 3*n; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			edges = append(edges, Edge{U: u, V: v, W: 0.1 + 2*rng.Float64()})
		}
	}
	g, err := NewFromEdges(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestLapMulBlockMatchesColumns: every column of the block matvec, of the
// fused residual and of the fused Jacobi step is, bit for bit, the width-1
// kernel run on that column alone — at widths that combine the 8- and 4-wide
// tiles and the tail every way.
func TestLapMulBlockMatchesColumns(t *testing.T) { checkLapMulBlockMatchesColumns(t) }

func checkLapMulBlockMatchesColumns(t *testing.T) {
	g := blockTestGraph(t, 300, 1)
	n := g.N()
	rng := rand.New(rand.NewSource(2))
	dInv := make([]float64, n)
	for v := range dInv {
		dInv[v] = 1 / g.Vol(v)
	}
	const omega = 0.8
	for _, k := range []int{1, 2, 3, 4, 5, 7, 8, 9, 12, 16} {
		x, r := make([]float64, n*k), make([]float64, n*k)
		for i := range x {
			x[i], r[i] = rng.NormFloat64(), rng.NormFloat64()
		}
		mul, res, jac := make([]float64, n*k), make([]float64, n*k), make([]float64, n*k)
		g.LapMulBlock(mul, x, k)
		g.LapMulBlockResidual(res, r, x, k)
		g.LapJacobiStepBlock(jac, r, x, dInv, omega, k)
		xc, rc, ref := make([]float64, n), make([]float64, n), make([]float64, n)
		for j := 0; j < k; j++ {
			for v := 0; v < n; v++ {
				xc[v], rc[v] = x[v*k+j], r[v*k+j]
			}
			for _, c := range []struct {
				name  string
				block []float64
				solo  func()
			}{
				{"LapMulBlock", mul, func() { g.LapMulSerial(ref, xc) }},
				{"LapMulBlockResidual", res, func() { g.LapMulBlockResidual(ref, rc, xc, 1) }},
				{"LapJacobiStepBlock", jac, func() { g.LapJacobiStepBlock(ref, rc, xc, dInv, omega, 1) }},
			} {
				c.solo()
				for v := 0; v < n; v++ {
					if c.block[v*k+j] != ref[v] {
						t.Fatalf("%s k=%d col %d row %d: block %v, its column alone %v", c.name, k, j, v, c.block[v*k+j], ref[v])
					}
				}
			}
		}
	}
}

// TestLapMulBlockK1BitIdentical: width-1 blocks take the scalar path exactly
// — LapMulBlock is LapMul, LapMulBlockResidual is r minus it in one
// traversal, and LapJacobiStepBlock is the damped-Jacobi update of it.
func TestLapMulBlockK1BitIdentical(t *testing.T) {
	g := blockTestGraph(t, 500, 3)
	n := g.N()
	rng := rand.New(rand.NewSource(4))
	x, r := make([]float64, n), make([]float64, n)
	for i := range x {
		x[i], r[i] = rng.NormFloat64(), rng.NormFloat64()
	}
	got := make([]float64, n)
	want := make([]float64, n)
	g.LapMulBlock(got, x, 1)
	g.LapMul(want, x)
	for v := range got {
		if got[v] != want[v] {
			t.Fatalf("row %d: %v != %v", v, got[v], want[v])
		}
	}
	g.LapMulBlockResidual(got, r, x, 1)
	for v := range got {
		if got[v] != r[v]-want[v] {
			t.Fatalf("residual row %d: %v != %v", v, got[v], r[v]-want[v])
		}
	}
	dInv := make([]float64, n)
	for v := range dInv {
		dInv[v] = 1 / g.Vol(v)
	}
	g.LapJacobiStepBlock(got, r, x, dInv, 0.8, 1)
	for v := range got {
		if jac := x[v] + 0.8*(r[v]-want[v])*dInv[v]; got[v] != jac {
			t.Fatalf("jacobi row %d: %v != %v", v, got[v], jac)
		}
	}
}

// TestFusedRowKernelsMatchUnfused: the k = 1 residual and Jacobi step and
// the block Jacobi step (8-wide tile, 4-wide tile and tail) equal the
// matvec-then-sweep sequences they fuse, bit for bit, at any worker count —
// on a graph large enough to cross the row grain.
func TestFusedRowKernelsMatchUnfused(t *testing.T) { checkFusedRowKernelsMatchUnfused(t) }

func checkFusedRowKernelsMatchUnfused(t *testing.T) {
	g := blockTestGraph(t, 3*kernel.ChunkRows(1), 7)
	n := g.N()
	rng := rand.New(rand.NewSource(8))
	x, r, dInv := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range x {
		x[i], r[i], dInv[i] = rng.NormFloat64(), rng.NormFloat64(), 1/g.Vol(i)
	}
	const omega = 0.8
	ax := make([]float64, n)
	g.LapMulSerial(ax, x)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		res, jac := make([]float64, n), make([]float64, n)
		g.LapMulBlockResidual(res, r, x, 1)
		g.LapJacobiStepBlock(jac, r, x, dInv, omega, 1)
		for v := 0; v < n; v++ {
			if want := r[v] - ax[v]; res[v] != want {
				t.Fatalf("procs=%d LapMulBlockResidual row %d: %v != %v", procs, v, res[v], want)
			}
			want := x[v]
			want += omega * (r[v] - ax[v]) * dInv[v]
			if jac[v] != want {
				t.Fatalf("procs=%d LapJacobiStepBlock row %d: %v != %v", procs, v, jac[v], want)
			}
		}
		for _, k := range []int{3, 8, 13} {
			xb, rb := make([]float64, n*k), make([]float64, n*k)
			for i := range xb {
				xb[i], rb[i] = rng.NormFloat64(), rng.NormFloat64()
			}
			axb, jacb := make([]float64, n*k), make([]float64, n*k)
			g.LapMulBlock(axb, xb, k)
			g.LapJacobiStepBlock(jacb, rb, xb, dInv, omega, k)
			for i := range jacb {
				if want := xb[i] + omega*(rb[i]-axb[i])*dInv[i/k]; jacb[i] != want {
					t.Fatalf("procs=%d k=%d LapJacobiStepBlock entry %d: %v != %v", procs, k, i, jacb[i], want)
				}
			}
		}
	}
}

// TestLapMulBlockGOMAXPROCSInvariant: rows are independent, so the block
// matvec must be bit-identical at any worker count — including on graphs
// large enough to cross the parallel grain.
func TestLapMulBlockGOMAXPROCSInvariant(t *testing.T) { checkLapMulBlockGOMAXPROCSInvariant(t) }

func checkLapMulBlockGOMAXPROCSInvariant(t *testing.T) {
	const k = 4
	g := blockTestGraph(t, 4096, 5)
	n := g.N()
	rng := rand.New(rand.NewSource(6))
	x := make([]float64, n*k)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	ref := make([]float64, n*k)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	g.LapMulBlock(ref, x, k)
	for _, procs := range []int{2, 4, 8} {
		runtime.GOMAXPROCS(procs)
		dst := make([]float64, n*k)
		g.LapMulBlock(dst, x, k)
		for i := range dst {
			if dst[i] != ref[i] {
				t.Fatalf("procs=%d entry %d: %v != %v", procs, i, dst[i], ref[i])
			}
		}
	}
}

// TestBlockKernelsWithoutAVX2 re-runs the block table with the AVX2 bodies
// switched off, so the Go tiles — the fallback of other architectures and of
// -race builds, and the oracle of TestBlockTilesMatchGoReference — keep their
// coverage on hosts where the default run never reaches them.
func TestBlockKernelsWithoutAVX2(t *testing.T) {
	kernel.WithGo(func() {
		t.Run("MatchesColumns", checkLapMulBlockMatchesColumns)
		t.Run("FusedMatchUnfused", checkFusedRowKernelsMatchUnfused)
		t.Run("GOMAXPROCSInvariant", checkLapMulBlockGOMAXPROCSInvariant)
	})
}

// withBodies runs f once with the bodies this process runs and once with the
// Go ones.
func withBodies(f func()) {
	f()
	kernel.WithGo(f)
}

// mustPanic runs f and returns what it panicked with; f returning is a test
// failure.
func mustPanic(t *testing.T, what string, f func()) (v interface{}) {
	t.Helper()
	defer func() {
		if v = recover(); v == nil {
			t.Fatalf("%s: no panic", what)
		}
	}()
	f()
	return nil
}

// TestBlockOperandLengths: an operand of the wrong length — short or long by
// one — is refused before anything is written, by a panic whose error wraps
// ErrInvalidInput and names the operand, at every width and with either body
// of the tiles.
func TestBlockOperandLengths(t *testing.T) {
	g := blockTestGraph(t, 200, 9)
	n := g.N()
	const sentinel = -7.25
	withBodies(func() {
		for _, k := range []int{1, 3, 8, 13} {
			for _, delta := range []int{-1, 1} {
				for _, operand := range []string{"dst", "x", "r", "dInv"} {
					size := func(name string, want int) int {
						if name == operand {
							return want + delta
						}
						return want
					}
					dst, x, r, dInv := make([]float64, size("dst", n*k)), make([]float64, size("x", n*k)), make([]float64, size("r", n*k)), make([]float64, size("dInv", n))
					for i := range dst {
						dst[i] = sentinel
					}
					what := fmt.Sprintf("%s kernel, k=%d, len(%s)%+d", kernel.Name(), k, operand, delta)
					v := mustPanic(t, what, func() {
						switch operand {
						case "dst", "x":
							g.LapMulBlock(dst, x, k)
						case "r":
							g.LapMulBlockResidual(dst, r, x, k)
						default:
							g.LapJacobiStepBlock(dst, r, x, dInv, 0.5, k)
						}
					})
					err, ok := v.(error)
					if !ok || !errors.Is(err, ErrInvalidInput) || !strings.Contains(err.Error(), "len("+operand+")") {
						t.Fatalf("%s: panic %v, want an error wrapping ErrInvalidInput that names the operand", what, v)
					}
					for i := range dst {
						if dst[i] != sentinel {
							t.Fatalf("%s: dst[%d] written before the panic", what, i)
						}
					}
				}
			}
		}
	})
	if v := mustPanic(t, "k=0", func() { g.LapMulBlock(nil, nil, 0) }); !errors.Is(v.(error), ErrInvalidInput) {
		t.Fatalf("k=0: panic %v", v)
	}
}

// TestBlockTileCorruptAdjacency: a Graph whose adjacency holds the id n — one
// past the last vertex, which validation at construction rules out — panics
// in the block kernels as an out-of-range index does, under either body of
// the tiles; the AVX2 tile's id check panics with an error wrapping
// ErrInvalidInput that names the row, where a bare string used to be, and
// stores nothing at or after the row and nothing behind dst.
func TestBlockTileCorruptAdjacency(t *testing.T) {
	const k, canary = 12, 424242.5
	g := blockTestGraph(t, 600, 10)
	n := g.N()
	bad := *g
	bad.adj = append([]int32(nil), g.adj...)
	const row = 411
	bad.adj[bad.off[row]+1] = int32(n)
	x := make([]float64, n*k)
	for i := range x {
		x[i] = float64(i%13) - 6
	}
	withBodies(func() {
		// dst ends flush against the canary: a store past it shows.
		backing := make([]float64, n*k+64)
		for i := range backing {
			backing[i] = canary
		}
		dst := backing[: n*k : n*k]
		v := mustPanic(t, kernel.Name()+" kernel", func() { bad.LapMulBlock(dst, x, k) })
		for i, b := range backing[n*k:] {
			if b != canary {
				t.Fatalf("%s kernel: %d words behind dst overwritten", kernel.Name(), i+1)
			}
		}
		if kernel.Name() != "avx2" {
			return
		}
		if err, ok := v.(error); !ok || !errors.Is(err, ErrInvalidInput) || !strings.Contains(err.Error(), fmt.Sprintf("row %d ", row)) {
			t.Fatalf("avx2 kernel: panic %v, want the id check's error wrapping ErrInvalidInput, naming row %d", v, row)
		}
		for i := row * k; i < n*k; i++ {
			if dst[i] != canary {
				t.Fatalf("avx2 kernel: dst row %d column %d written at or after the corrupt row %d", i/k, i%k, row)
			}
		}
		if dst[(row-1)*k] == canary {
			t.Fatalf("avx2 kernel: row %d, before the corrupt one, was not computed", row-1)
		}
	})
}

// TestRowEndBeyondAdjacency: a Graph whose last row ends beyond the adjacency
// array — which validation at construction rules out — panics in the Go row
// loops and the Go tiles with an error wrapping ErrInvalidInput, where a bare
// string used to be.
func TestRowEndBeyondAdjacency(t *testing.T) {
	g := blockTestGraph(t, 50, 26)
	n := g.N()
	bad := *g
	bad.off = append([]int(nil), g.off...)
	bad.off[n]++
	for _, k := range []int{1, 3, 8} {
		x, dst := make([]float64, n*k), make([]float64, n*k)
		v := mustPanic(t, fmt.Sprintf("k=%d", k), func() {
			kernel.WithGo(func() {
				if k == 1 {
					bad.RowRange(dst, nil, x, nil, 0, 0, n)
				} else {
					bad.BlockRange(dst, nil, x, nil, 0, k, 0, n)
				}
			})
		})
		if err, ok := v.(error); !ok || !errors.Is(err, ErrInvalidInput) {
			t.Errorf("k=%d: panic %v, want an error wrapping ErrInvalidInput", k, v)
		}
	}
}

// TestVolIsRowOrderSum: Vol(v) is the sum of row v's weights in entry order,
// bit for bit, on the graph of every constructor, of Contract and of
// RenumberInPlace, so the inverse diagonal 1/Vol(v) does not depend on how a
// graph was built. The weights span twelve decades, so a sum in another order
// would show.
func TestVolIsRowOrderSum(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	const n = 300
	var edges []Edge
	for i := 0; i < 6*n; i++ {
		if u, v := rng.Intn(n), rng.Intn(n); u != v {
			edges = append(edges, Edge{U: u, V: v, W: math.Pow(10, -6+12*rng.Float64())})
		}
	}
	g, err := NewFromEdges(n, edges) // repeated pairs merged
	if err != nil {
		t.Fatal(err)
	}
	graphs := map[string]*Graph{"NewFromEdges": g, "Clone": g.Clone()}
	for name, policy := range map[string]MergePolicy{"Builder/sum": MergeSum, "Builder/max": MergeMax} {
		b, err := NewBuilder(n, policy)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range edges {
			if err := b.Add(e.U, e.V, e.W); err != nil {
				t.Fatal(err)
			}
		}
		if graphs[name], err = b.Finish(); err != nil {
			t.Fatal(err)
		}
	}
	if graphs["NewFromUniqueEdges"], err = NewFromUniqueEdges(n, g.Edges()); err != nil {
		t.Fatal(err)
	}
	off, adj, w := g.CompactCSR()
	if graphs["NewFromCSR"], err = NewFromCSR(off, adj, w); err != nil {
		t.Fatal(err)
	}
	cluster := rng.Perm(n)[:n/3]
	cb := NewClosureBuilder(g)
	for name, build := range map[string]func([]int) (*Graph, []int, error){
		"Closure": g.Closure, "InducedSubgraph": g.InducedSubgraph,
		"ClosureBuilder.Closure": cb.Closure, "ClosureBuilder.InducedSubgraph": cb.InducedSubgraph,
	} {
		sub, _, err := build(cluster)
		if err != nil {
			t.Fatal(err)
		}
		graphs[name] = sub.Clone() // a builder's graph lives until its next call
	}
	assign := make([]int, n)
	for v := range assign {
		assign[v] = rng.Intn(n / 4)
	}
	graphs["Contract"] = g.Contract(assign, n/4)
	renumbered := g.Clone()
	if err := renumbered.RenumberInPlace(windowedPerm(rng, n, 64), 64); err != nil {
		t.Fatal(err)
	}
	graphs["RenumberInPlace"] = renumbered
	for name, h := range graphs {
		for v := 0; v < h.N(); v++ {
			_, wv := h.Neighbors(v)
			sum := 0.0
			for _, x := range wv {
				sum += x
			}
			if math.Float64bits(h.Vol(v)) != math.Float64bits(sum) {
				t.Fatalf("%s: Vol(%d) = %v, row-order Σw = %v", name, v, h.Vol(v), sum)
			}
		}
	}
}
