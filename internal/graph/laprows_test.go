package graph_test

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"hcd/internal/graph"
	"hcd/internal/kernel"
	"hcd/internal/workload"
)

// runGraph returns a graph whose rows come in runs: run i is runs[i][0] rows
// of runs[i][1] entries each, neighbors drawn at random (no symmetry: the row
// kernels read rows, not edges).
func runGraph(t testing.TB, rng *rand.Rand, runs [][2]int) *graph.Graph {
	t.Helper()
	n := 0
	for _, run := range runs {
		n += run[0]
	}
	off := []int{0}
	var adj []int32
	var w []float64
	for _, run := range runs {
		for row := 0; row < run[0]; row++ {
			v := len(off) - 1
			for j := 0; j < run[1]; j++ {
				adj = append(adj, int32((v+1+rng.Intn(n-1))%n))
				w = append(w, math.Pow(10, -3+6*rng.Float64()))
			}
			off = append(off, len(adj))
		}
	}
	if len(adj)%2 == 1 { // NewFromCSR wants every edge twice: one more entry on the last row
		adj, w = append(adj, 0), append(w, 1)
		off[n]++
	}
	g, err := graph.NewFromCSR(off, adj, w)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// byDegree returns g renumbered in order of degree — the shape the apply
// layout gives the quotient levels: long runs of equal row length.
func byDegree(t testing.TB, g *graph.Graph) *graph.Graph {
	t.Helper()
	order := make([]int, g.N())
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return g.Degree(order[a]) < g.Degree(order[b]) })
	p := g.Clone()
	if err := p.RenumberInPlace(order, max(p.N(), 1)); err != nil {
		t.Fatal(err)
	}
	return p
}

// rowCorpus are the graphs the row-group kernel is held on against the Go
// loops: the generators' families, a hierarchy level in degree order, the
// degenerate row shapes, and runs of every short length and every length
// around the table's cut.
func rowCorpus(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	must := func(g *graph.Graph, err error) *graph.Graph {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	fem := must(workload.FEMesh(64, 64, -1, nil, 1))
	corpus := map[string]*graph.Graph{
		"grid2d:40": workload.Grid2D(40, 40, workload.Lognormal(1), 1),
		"grid3d:12": workload.Grid3D(12, 12, 12, workload.Lognormal(1), 1), // lines of 12: no group
		"grid3d:40": workload.Grid3D(8, 8, 40, workload.Lognormal(1), 1),
		"oct:40":    workload.OCT3D(8, 8, 40, workload.DefaultOCTOptions()),
		"femesh:64": fem,
		"road:48":   must(workload.RoadNetwork(48, 48, 12, workload.Lognormal(0.5), 1)),
		"powerlaw":  must(workload.PowerLaw(3000, 3, nil, 1)),
		"regular":   must(workload.RandomRegular(chunkPlus, 5, nil, 1)),
	}
	corpus["femesh:64/level=1 by degree"] = byDegree(t, hierarchyLevels(t, fem)[1])
	var star, path []graph.Edge
	for v := 1; v < 300; v++ {
		star = append(star, graph.Edge{U: 137, V: (v + 137) % 300, W: 1 + float64(v%7)})
		path = append(path, graph.Edge{U: v - 1, V: v, W: 1 + float64(v%3)})
	}
	corpus["star"] = graph.MustFromEdges(300, star)
	corpus["path"] = graph.MustFromEdges(300, path)
	// Vertices 0–2, 10–12 and everything from 20 on are isolated.
	corpus["isolated"] = graph.MustFromEdges(90, []graph.Edge{{U: 3, V: 9, W: 2}, {U: 4, V: 9, W: 0.5}, {U: 13, V: 19, W: 3}, {U: 5, V: 6, W: 1}})
	rng := rand.New(rand.NewSource(21))
	var runs [][2]int
	for _, length := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 28, 29, 30, 31, 32, 33, 34, 35, 36, 37, 38, 39, 40, 41, 47, 64} {
		runs = append(runs, [2]int{length, 1 + length%4}, [2]int{1 + length%3, 5 + length%2})
	}
	runs = append(runs, [2]int{40, 0}, [2]int{64, 7}, [2]int{35, 1})
	corpus["runs"] = runGraph(t, rng, runs)
	return corpus
}

// chunkPlus is a vertex count above the row kernels' 8192-row chunk
// (kernel.ChunkRows(1)), so a regular graph of that size is one group the
// wrapper must hand over in several calls and par.For in several chunks.
const chunkPlus = 8192 + 8192/2 + 6

// TestRowGroupTable: every graph's row-group table partitions [0, n) in
// order; a grouped segment is a multiple of four rows of exactly its degree,
// at least one entry each; two ungrouped segments never touch; and the table
// is as coarse as the rule allows — a run of equal degree is grouped, but for
// a tail of fewer than four rows, exactly when it is long enough.
func TestRowGroupTable(t *testing.T) {
	corpus := rowCorpus(t)
	corpus["empty"] = graph.MustFromEdges(0, nil)
	corpus["single"] = graph.MustFromEdges(1, nil)
	for name, g := range corpus {
		segs := g.RowSegs()
		grouped := make([]bool, g.N())
		next := 0
		for i, s := range segs {
			if s.Lo != next || s.Hi <= s.Lo {
				t.Fatalf("%s: segment %d is [%d, %d), the one before ends at %d", name, i, s.Lo, s.Hi, next)
			}
			next = s.Hi
			if s.Deg == 0 {
				if i > 0 && segs[i-1].Deg == 0 {
					t.Fatalf("%s: segments %d and %d are both ungrouped", name, i-1, i)
				}
				continue
			}
			if s.Deg < 0 || (s.Hi-s.Lo)%4 != 0 {
				t.Fatalf("%s: grouped segment %d is [%d, %d) of degree %d", name, i, s.Lo, s.Hi, s.Deg)
			}
			for v := s.Lo; v < s.Hi; v++ {
				if grouped[v] = true; g.Degree(v) != s.Deg {
					t.Fatalf("%s: row %d has %d entries, its segment says %d", name, v, g.Degree(v), s.Deg)
				}
			}
		}
		if next != g.N() {
			t.Fatalf("%s: the table ends at row %d of %d", name, next, g.N())
		}
		for v := 0; v < g.N(); {
			end := v + 1
			for end < g.N() && g.Degree(end) == g.Degree(v) {
				end++
			}
			want := 0
			if g.Degree(v) > 0 && end-v >= graph.MinGroupRows {
				want = (end - v) &^ 3
			}
			for u := v; u < end; u++ {
				if grouped[u] != (u < v+want) {
					t.Fatalf("%s: row %d of the degree-%d run [%d, %d): grouped = %v", name, u, g.Degree(v), v, end, grouped[u])
				}
			}
			v = end
		}
	}
}

// rowRanges are row ranges of a graph on n rows whose ends fall wherever a
// chunk's could: everything, nothing, one row, and random pairs — inside
// groups more often than not.
func rowRanges(rng *rand.Rand, n, count int) [][2]int {
	ranges := [][2]int{{0, n}, {n / 2, n / 2}, {n / 3, n/3 + 1}}
	for len(ranges) < count {
		lo := rng.Intn(n + 1)
		ranges = append(ranges, [2]int{lo, lo + rng.Intn(n+1-lo)})
	}
	return ranges
}

// TestRowGroupKernelsMatchReference: on the same operands the k = 1 row
// kernels write the same words with grouped rows going through the AVX2
// kernel as with every row going through the Go loops — all three modes,
// ranges that start and end inside groups, ordinary and special values in x,
// r, dInv and ω — and leave every row outside the range alone. The public
// entry points agree with the same reference at the worker count of the run.
func TestRowGroupKernelsMatchReference(t *testing.T) {
	if kernel.Name() != "avx2" {
		t.Skip("the AVX2 row-group kernel is not in use in this build on this host")
	}
	const sentinel = 12345.678
	rng := rand.New(rand.NewSource(22))
	omegas := append([]float64{0.5, 2.0 / 3}, kernel.Specials...)
	for name, g := range rowCorpus(t) {
		n := g.N()
		share := 0
		for _, s := range g.RowSegs() {
			if s.Deg > 0 {
				share += s.Hi - s.Lo
			}
		}
		t.Logf("%-28s %6d rows, %5d segments, %3.0f %% of rows grouped", name, n, len(g.RowSegs()), 100*float64(share)/float64(n))
		ranges := 40
		if n > 5000 {
			ranges = 8
		}
		for _, special := range []bool{false, true} {
			x, r, dInv := tileOperands(rng, g, 1, special)
			for _, mode := range blockModes {
				var mr, md []float64
				if mode.r {
					mr = r
				}
				if mode.dInv {
					md = dInv
				}
				omega := 0.5
				if special {
					omega = omegas[rng.Intn(len(omegas))]
				}
				want, got := make([]float64, n), make([]float64, n)
				for _, rg := range rowRanges(rng, n, ranges) {
					for i := range want {
						want[i], got[i] = sentinel, sentinel
					}
					kernel.WithGo(func() { g.RowRange(want, mr, x, md, omega, rg[0], rg[1]) })
					g.RowRange(got, mr, x, md, omega, rg[0], rg[1])
					for v := range want {
						if !kernel.SameWord(got[v], want[v]) {
							t.Fatalf("%s %s special=%v ω=%v rows [%d,%d): row %d (degree %d): AVX2 kernel %v (%#x), Go loop %v (%#x)",
								name, mode.name, special, omega, rg[0], rg[1], v, g.Degree(v),
								got[v], math.Float64bits(got[v]), want[v], math.Float64bits(want[v]))
						}
					}
				}
				// The entry points, whole graph, at this run's worker count.
				kernel.WithGo(func() { g.RowRange(want, mr, x, md, omega, 0, n) })
				switch {
				case mr == nil:
					g.LapMul(got, x)
				case md == nil:
					g.LapMulBlockResidual(got, mr, x, 1)
				default:
					g.LapJacobiStepBlock(got, mr, x, md, omega, 1)
				}
				for v := range want {
					if !kernel.SameWord(got[v], want[v]) {
						t.Fatalf("%s %s special=%v: row %d: entry point %v, Go loop %v", name, mode.name, special, v, got[v], want[v])
					}
				}
			}
		}
	}
}

// TestRowKernelsWithoutAVX2: with the AVX2 bodies switched off the entry
// points run the Go loops alone — the fallback of other architectures and of
// -race builds — say so, and agree with the row ranges.
func TestRowKernelsWithoutAVX2(t *testing.T) {
	g := workload.Grid2D(40, 40, workload.Lognormal(1), 1)
	n := g.N()
	x, r, dInv := tileOperands(rand.New(rand.NewSource(23)), g, 1, false)
	want, got := make([]float64, n), make([]float64, n)
	kernel.WithGo(func() {
		g.RowRange(want, r, x, dInv, 0.5, 0, n)
		g.LapJacobiStepBlock(got, r, x, dInv, 0.5, 1)
	})
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("row %d: %v, want %v", v, got[v], want[v])
		}
	}
}

// TestRowOperandLengths: the direct k = 1 entry points refuse an operand of
// the wrong length — short or long by one, or long enough only by capacity —
// before anything is written, by a panic whose error wraps ErrInvalidInput
// and names the operand.
func TestRowOperandLengths(t *testing.T) {
	g := workload.Grid2D(24, 24, nil, 1)
	n := g.N()
	const sentinel = -7.25
	for _, delta := range []int{-1, 1} {
		for _, tc := range []struct{ entry, operand string }{
			{"LapMul", "dst"}, {"LapMul", "x"}, {"LapMulSerial", "dst"}, {"LapMulSerial", "x"},
			{"LapMulBlockResidual", "dst"}, {"LapMulBlockResidual", "r"}, {"LapMulBlockResidual", "x"},
			{"LapJacobiStepBlock", "dst"}, {"LapJacobiStepBlock", "r"}, {"LapJacobiStepBlock", "x"}, {"LapJacobiStepBlock", "dInv"},
		} {
			operand := func(name string) []float64 {
				s := make([]float64, n+1)
				for i := range s {
					s[i] = sentinel
				}
				if name == tc.operand {
					return s[:n+delta]
				}
				return s[:n] // one word of capacity to spare: length is what counts
			}
			dst, r, x, dInv := operand("dst"), operand("r"), operand("x"), operand("dInv")
			what := fmt.Sprintf("%s, len(%s)%+d", tc.entry, tc.operand, delta)
			var v interface{}
			func() {
				defer func() { v = recover() }()
				switch tc.entry {
				case "LapMul":
					g.LapMul(dst, x)
				case "LapMulSerial":
					g.LapMulSerial(dst, x)
				case "LapMulBlockResidual":
					g.LapMulBlockResidual(dst, r, x, 1)
				default:
					g.LapJacobiStepBlock(dst, r, x, dInv, 0.5, 1)
				}
			}()
			err, ok := v.(error)
			if !ok || !errors.Is(err, graph.ErrInvalidInput) || !strings.Contains(err.Error(), "len("+tc.operand+")") {
				t.Fatalf("%s: panic %v, want an error wrapping ErrInvalidInput that names the operand", what, v)
			}
			for i, d := range dst[:cap(dst)] {
				if d != sentinel {
					t.Fatalf("%s: dst[%d] written before the panic", what, i)
				}
			}
		}
	}
}

// TestClosureBuilderOutputHasNoRowGroups: the graph a ClosureBuilder hands
// out is rewritten in place by the next call, so it carries no row-group
// table and the row kernels serve it through the Go loops — the same words as
// the host's, for the subgraph induced by every vertex — while its Clone, a
// graph of its own, has the host's table.
func TestClosureBuilderOutputHasNoRowGroups(t *testing.T) {
	g := workload.Grid2D(40, 40, workload.Lognormal(1), 1)
	n := g.N()
	all := make([]int, n)
	for v := range all {
		all[v] = v
	}
	view, _, err := graph.NewClosureBuilder(g).InducedSubgraph(all)
	if err != nil {
		t.Fatal(err)
	}
	if segs := view.RowSegs(); len(segs) != 0 {
		t.Fatalf("a ClosureBuilder's output carries the row-group table %v", segs)
	}
	if got, want := view.Clone().RowSegs(), g.RowSegs(); fmt.Sprint(got) != fmt.Sprint(want) || len(want) < 2 {
		t.Fatalf("the clone's row-group table %v, the host's %v", got, want)
	}
	x, _, _ := tileOperands(rand.New(rand.NewSource(25)), g, 1, false)
	want, got := make([]float64, n), make([]float64, n)
	g.LapMul(want, x)
	view.LapMul(got, x)
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("row %d: %v through the builder's output, %v on the host", v, got[v], want[v])
		}
	}
}
