package graph_test

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"hcd/internal/graph"
	"hcd/internal/workload"
)

// kernelFamilies are the graphs the row kernels are held on: every family
// large enough (more than 8192 vertices) for the chunked parallel path to run.
func kernelFamilies(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	must := func(g *graph.Graph, err error) *graph.Graph {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	wf := workload.Lognormal(1)
	return map[string]*graph.Graph{
		"grid2d":   workload.Grid2D(101, 97, wf, 1),
		"grid3d":   workload.Grid3D(23, 22, 21, wf, 2),
		"oct3d":    workload.OCT3D(22, 22, 22, workload.DefaultOCTOptions()),
		"road":     must(workload.RoadNetwork(96, 96, 8, wf, 3)),
		"femesh":   must(workload.FEMesh(96, 94, 0.3, wf, 4)),
		"powerlaw": must(workload.PowerLaw(9000, 3, wf, 5)),
		"tree":     workload.BinaryTree(14, wf, 6),
	}
}

// wideRow is the row loop of the scalar kernels written against []int ids,
// as the package stored them before the adjacency went to 32 bits.
func wideRow(adj []int, w, x []float64, xv float64, i, end int) float64 {
	acc := 0.0
	for ; i < end; i++ {
		acc += w[i] * (xv - x[adj[i]])
	}
	return acc
}

// wideBlock is the block matvec (r nil) or fused block residual against
// []int ids, one column at a time in the kernels' documented order: the
// scalar row loop, then the subtraction from r.
func wideBlock(dst, r, x []float64, k int, off, adj []int, w []float64) {
	for v := 0; v+1 < len(off); v++ {
		for j := 0; j < k; j++ {
			acc := 0.0
			for i := off[v]; i < off[v+1]; i++ {
				acc += w[i] * (x[v*k+j] - x[adj[i]*k+j])
			}
			if r != nil {
				acc = r[v*k+j] - acc
			}
			dst[v*k+j] = acc
		}
	}
}

func equalBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: entry %d = %v, wide-index reference %v", what, i, got[i], want[i])
		}
	}
}

// TestRowKernelsMatchWideIndexReference: every scalar and block row kernel
// over the 32-bit adjacency returns, bit for bit, what the same loop returns
// over a widened []int copy of it, on one worker and on four.
func TestRowKernelsMatchWideIndexReference(t *testing.T) {
	for name, g := range kernelFamilies(t) {
		n := g.N()
		off, adj, w := g.CSR()
		rng := rand.New(rand.NewSource(int64(n)))
		vec := func(len int) []float64 {
			v := make([]float64, len)
			for i := range v {
				v[i] = rng.NormFloat64()
			}
			return v
		}
		x, r, dInv := vec(n), vec(n), vec(n)
		const omega = 2.0 / 3
		wantMul, wantRes, wantJac := make([]float64, n), make([]float64, n), make([]float64, n)
		for v := 0; v < n; v++ {
			row := wideRow(adj, w, x, x[v], off[v], off[v+1])
			wantMul[v] = row
			wantRes[v] = r[v] - row
			wantJac[v] = x[v] + omega*(r[v]-row)*dInv[v]
		}
		type block struct{ x, r, mul, res []float64 }
		blocks := map[int]block{}
		for _, k := range []int{1, 3, 8} {
			b := block{x: vec(n * k), r: vec(n * k), mul: make([]float64, n*k), res: make([]float64, n*k)}
			wideBlock(b.mul, nil, b.x, k, off, adj, w)
			wideBlock(b.res, b.r, b.x, k, off, adj, w)
			blocks[k] = b
		}
		for _, procs := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/procs=%d", name, procs), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				dst := make([]float64, n)
				g.LapMul(dst, x)
				equalBits(t, "LapMul", dst, wantMul)
				g.LapMulBlockResidual(dst, r, x, 1)
				equalBits(t, "LapMulBlockResidual", dst, wantRes)
				g.LapJacobiStepBlock(dst, r, x, dInv, omega, 1)
				equalBits(t, "LapJacobiStepBlock", dst, wantJac)
				for k, b := range blocks {
					dst := make([]float64, n*k)
					g.LapMulBlock(dst, b.x, k)
					equalBits(t, fmt.Sprintf("LapMulBlock k=%d", k), dst, b.mul)
					g.LapMulBlockResidual(dst, b.r, b.x, k)
					equalBits(t, fmt.Sprintf("LapMulBlockResidual k=%d", k), dst, b.res)
				}
			})
		}
	}
}

// TestCSRIsWidenedCopy: CSR returns the stored arrays value for value, and
// its adjacency is the caller's own — writing to it leaves the graph alone.
func TestCSRIsWidenedCopy(t *testing.T) {
	g := workload.Grid3D(7, 6, 5, workload.Lognormal(1), 1)
	coff, cadj, cw := g.CompactCSR()
	off, adj, w := g.CSR()
	if len(off) != len(coff) || len(adj) != len(cadj) || len(w) != len(cw) {
		t.Fatalf("CSR lengths (%d,%d,%d), stored (%d,%d,%d)", len(off), len(adj), len(w), len(coff), len(cadj), len(cw))
	}
	for i := range off {
		if off[i] != coff[i] {
			t.Fatalf("off[%d] = %d, stored %d", i, off[i], coff[i])
		}
	}
	for i := range adj {
		if adj[i] != int(cadj[i]) || w[i] != cw[i] {
			t.Fatalf("entry %d = (%d, %v), stored (%d, %v)", i, adj[i], w[i], cadj[i], cw[i])
		}
	}
	before := append([]int32(nil), cadj...)
	for i := range adj {
		adj[i] = -1
	}
	for i, u := range cadj {
		if u != before[i] {
			t.Fatalf("writing to CSR()'s adjacency changed stored entry %d: %d → %d", i, before[i], u)
		}
	}
}

// TestGraphBytes: Bytes is exactly the four arrays at their element sizes —
// 8-byte offsets, weights and volumes, 4-byte neighbor ids — and the row-group
// table at 12 bytes a segment.
func TestGraphBytes(t *testing.T) {
	for name, g := range map[string]*graph.Graph{
		"empty":  graph.MustFromEdges(0, nil),
		"single": graph.MustFromEdges(1, nil),
		"grid3d": workload.Grid3D(9, 8, 7, workload.Lognormal(1), 1),
		"oct3d":  workload.OCT3D(8, 8, 8, workload.DefaultOCTOptions()),
	} {
		off, adj, w := g.CompactCSR()
		want := int64(8*len(off) + 4*len(adj) + 8*len(w) + 8*g.N() + 12*len(g.RowSegs()))
		if len(adj) != 2*g.M() || len(off) != g.N()+1 {
			t.Fatalf("%s: %d offsets, %d entries for n=%d, m=%d", name, len(off), len(adj), g.N(), g.M())
		}
		if got := g.Bytes(); got != want {
			t.Errorf("%s: Bytes() = %d, arrays hold %d", name, got, want)
		}
	}
}

// TestVertexCountBeyondInt32Rejected: a vertex (or cluster) count the 32-bit
// ids cannot name is refused by every constructor that takes one, before
// anything is sized by it.
func TestVertexCountBeyondInt32Rejected(t *testing.T) {
	if math.MaxInt == math.MaxInt32 {
		t.Skip("int is 32 bits: no such count exists")
	}
	tooMany := math.MaxInt32
	tooMany++
	edge := []graph.Edge{{U: 0, V: 1, W: 1}}
	if _, err := graph.NewFromEdges(tooMany, edge); !errors.Is(err, graph.ErrBadDimension) {
		t.Errorf("NewFromEdges(%d): %v, want ErrBadDimension", tooMany, err)
	}
	if _, err := graph.NewFromUniqueEdges(tooMany, edge); !errors.Is(err, graph.ErrBadDimension) {
		t.Errorf("NewFromUniqueEdges(%d): %v, want ErrBadDimension", tooMany, err)
	}
	if _, err := graph.NewBuilder(tooMany, graph.MergeSum); !errors.Is(err, graph.ErrBadDimension) {
		t.Errorf("NewBuilder(%d): %v, want ErrBadDimension", tooMany, err)
	}
	g := graph.MustFromEdges(2, edge)
	func() {
		defer func() {
			err, _ := recover().(error)
			if !errors.Is(err, graph.ErrInvalidInput) {
				t.Errorf("Contract(m=%d) panicked with %v, want ErrInvalidInput", tooMany, err)
			}
		}()
		g.Contract([]int{0, 1}, tooMany)
		t.Errorf("Contract(m=%d) returned", tooMany)
	}()
}
