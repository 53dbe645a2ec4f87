package graph

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
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

// TestLapMulBlockMatchesColumns: the blocked matvec agrees with k independent
// scalar matvecs column by column (to rounding — the block path accumulates
// the neighbor sum and diagonal term separately).
func TestLapMulBlockMatchesColumns(t *testing.T) {
	g := blockTestGraph(t, 300, 1)
	n := g.N()
	rng := rand.New(rand.NewSource(2))
	for _, k := range []int{1, 2, 3, 7, 16} {
		x := make([]float64, n*k)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		dst := make([]float64, n*k)
		g.LapMulBlock(dst, x, k)
		col := make([]float64, n)
		ref := make([]float64, n)
		for j := 0; j < k; j++ {
			for v := 0; v < n; v++ {
				col[v] = x[v*k+j]
			}
			g.LapMulSerial(ref, col)
			for v := 0; v < n; v++ {
				if d := math.Abs(dst[v*k+j] - ref[v]); d > 1e-10*(1+math.Abs(ref[v])) {
					t.Fatalf("k=%d col %d row %d: block %v vs scalar %v", k, j, v, dst[v*k+j], ref[v])
				}
			}
		}
	}
}

// TestLapMulBlockK1BitIdentical: width-1 blocks take the scalar path exactly
// — LapMulBlock is LapMul, LapMulBlockResidual is r minus it in one
// traversal, and LapJacobiStepBlock is LapJacobiStep.
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
	g.LapJacobiStep(want, r, x, dInv, 0.8)
	for v := range got {
		if got[v] != want[v] {
			t.Fatalf("jacobi row %d: %v != %v", v, got[v], want[v])
		}
	}
}

// TestFusedRowKernelsMatchUnfused: LapMulResidual, LapJacobiStep and the
// block Jacobi step (8-wide tile, 4-wide tile and tail) equal the
// matvec-then-sweep sequences they fuse, bit for bit, at any worker count —
// on a graph large enough to cross the row grain.
func TestFusedRowKernelsMatchUnfused(t *testing.T) {
	g := blockTestGraph(t, 3*rowGrain, 7)
	n := g.N()
	rng := rand.New(rand.NewSource(8))
	x, r, dInv := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range x {
		x[i], r[i], dInv[i] = rng.NormFloat64(), rng.NormFloat64(), 1/g.Vol(i)
	}
	const omega = 0.5
	ax := make([]float64, n)
	g.LapMulSerial(ax, x)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		res, jac := make([]float64, n), make([]float64, n)
		g.LapMulResidual(res, r, x)
		g.LapJacobiStep(jac, r, x, dInv, omega)
		for v := 0; v < n; v++ {
			if want := r[v] - ax[v]; res[v] != want {
				t.Fatalf("procs=%d LapMulResidual row %d: %v != %v", procs, v, res[v], want)
			}
			want := x[v]
			want += omega * (r[v] - ax[v]) * dInv[v]
			if jac[v] != want {
				t.Fatalf("procs=%d LapJacobiStep row %d: %v != %v", procs, v, jac[v], want)
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
				od := omega * dInv[i/k]
				if want := xb[i] + od*(rb[i]-axb[i]); jacb[i] != want {
					t.Fatalf("procs=%d k=%d LapJacobiStepBlock entry %d: %v != %v", procs, k, i, jacb[i], want)
				}
			}
		}
	}
}

// TestLapMulBlockGOMAXPROCSInvariant: rows are independent, so the block
// matvec must be bit-identical at any worker count — including on graphs
// large enough to cross the parallel grain.
func TestLapMulBlockGOMAXPROCSInvariant(t *testing.T) {
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
