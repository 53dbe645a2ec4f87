package sparse

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"hcd/internal/decomp"
	"hcd/internal/dense"
	"hcd/internal/graph"
	"hcd/internal/kernel"
	"hcd/internal/workload"
)

func randomConnected(rng *rand.Rand, n, extra int) *graph.Graph {
	var es []graph.Edge
	for v := 1; v < n; v++ {
		es = append(es, graph.Edge{U: rng.Intn(v), V: v, W: 0.5 + rng.Float64()})
	}
	for i := 0; i < extra; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			es = append(es, graph.Edge{U: u, V: v, W: 0.5 + rng.Float64()})
		}
	}
	return graph.MustFromEdges(n, es)
}

// densePinnedSolve is the differential oracle: pin the first vertex of each
// component, factor the remaining principal submatrix with the dense
// Cholesky, solve, and de-mean per component.
func densePinnedSolve(g *graph.Graph, b []float64) ([]float64, error) {
	n := g.N()
	a := g.LapDense()
	comp, ncomp := g.Components()
	seen := make([]bool, ncomp)
	var free []int
	for v, c := range comp {
		if seen[c] {
			free = append(free, v)
		}
		seen[c] = true
	}
	x := make([]float64, n)
	if len(free) > 0 {
		sub := dense.NewMatrix(len(free), len(free))
		rhs := make([]float64, len(free))
		for i, vi := range free {
			rhs[i] = b[vi]
			for j, vj := range free {
				sub.Set(i, j, a[vi*n+vj])
			}
		}
		ch, err := dense.NewCholesky(sub)
		if err != nil {
			return nil, err
		}
		ch.Solve(rhs, rhs)
		for i, v := range free {
			x[v] = rhs[i]
		}
	}
	sum := make([]float64, ncomp)
	size := make([]float64, ncomp)
	for v, c := range comp {
		sum[c] += x[v]
		size[c]++
	}
	for v, c := range comp {
		x[v] -= sum[c] / size[c]
	}
	return x, nil
}

// naiveMinDegree is the ordering oracle: an explicit elimination graph in a
// boolean matrix, minimum degree with ties to the smallest id.
func naiveMinDegree(g *graph.Graph) []int32 {
	n := g.N()
	comp, ncomp := g.Components()
	alive := make([]bool, n)
	seen := make([]bool, ncomp)
	for v, c := range comp {
		alive[v] = seen[c]
		seen[c] = true
	}
	adj := make([][]bool, n)
	for v := range adj {
		adj[v] = make([]bool, n)
		nbr, _ := g.Neighbors(v)
		for _, u := range nbr {
			adj[v][u] = true
		}
	}
	var order []int32
	for {
		best, bestDeg := -1, 0
		for v := 0; v < n; v++ {
			if !alive[v] {
				continue
			}
			d := 0
			for u := 0; u < n; u++ {
				if alive[u] && adj[v][u] {
					d++
				}
			}
			if best < 0 || d < bestDeg {
				best, bestDeg = v, d
			}
		}
		if best < 0 {
			return order
		}
		alive[best] = false
		order = append(order, int32(best))
		for u := 0; u < n; u++ {
			if !alive[u] || !adj[best][u] {
				continue
			}
			for w := 0; w < n; w++ {
				if w != u && alive[w] && adj[best][w] {
					adj[u][w] = true
				}
			}
		}
	}
}

// meanFreeRHS returns a vector with zero sum on every component of g.
func meanFreeRHS(rng *rand.Rand, g *graph.Graph) []float64 {
	comp, ncomp := g.Components()
	b := make([]float64, g.N())
	sum := make([]float64, ncomp)
	size := make([]float64, ncomp)
	for v, c := range comp {
		b[v] = rng.NormFloat64()
		sum[c] += b[v]
		size[c]++
	}
	for v, c := range comp {
		b[v] -= sum[c] / size[c]
	}
	return b
}

// coarsen contracts g by fixed-degree clusterings until it has at most limit
// vertices: the graphs the hierarchy hands its direct solver.
func coarsen(t testing.TB, g *graph.Graph, limit int) *graph.Graph {
	t.Helper()
	for level := int64(0); g.N() > limit; level++ {
		d, err := decomp.FixedDegreeCtx(context.Background(), g, 4, 1+level)
		if err != nil {
			t.Fatal(err)
		}
		g = g.Contract(d.Assign, d.Count)
	}
	return g
}

func norm2(x []float64) float64 {
	s := 0.0
	for _, v := range x {
		s += v * v
	}
	return math.Sqrt(s)
}

type namedGraph struct {
	name string
	g    *graph.Graph
}

func factorCorpus(t testing.TB) []namedGraph {
	t.Helper()
	must := func(g *graph.Graph, err error) *graph.Graph {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	var path, star, clique, forest []graph.Edge
	for v := 1; v < 50; v++ {
		path = append(path, graph.Edge{U: v - 1, V: v, W: float64(1 + v%5)})
	}
	for v := 1; v < 40; v++ {
		star = append(star, graph.Edge{U: 7, V: (7 + v) % 40, W: 1 / float64(v)})
	}
	for u := 0; u < 12; u++ {
		for v := u + 1; v < 12; v++ {
			clique = append(clique, graph.Edge{U: u, V: v, W: 1 + float64(u*v%7)})
		}
	}
	// Four components on 12 vertices: a cycle {0,3,6,9}, a path {1,4,7},
	// a star {2,5,8,11} and the isolated vertex 10.
	forest = []graph.Edge{
		{U: 0, V: 3, W: 1}, {U: 3, V: 6, W: 2}, {U: 6, V: 9, W: 3}, {U: 9, V: 0, W: 4},
		{U: 1, V: 4, W: 0.5}, {U: 4, V: 7, W: 5},
		{U: 5, V: 2, W: 1}, {U: 5, V: 8, W: 10}, {U: 5, V: 11, W: 0.1},
	}
	ln := workload.Lognormal(1)
	return []namedGraph{
		{"path", graph.MustFromEdges(50, path)},
		{"star", graph.MustFromEdges(40, star)},
		{"clique", graph.MustFromEdges(12, clique)},
		{"grid2d-quotient", coarsen(t, workload.Grid2D(48, 48, ln, 1), 600)},
		{"grid3d-quotient", coarsen(t, workload.Grid3D(14, 14, 14, ln, 1), 600)},
		{"femesh-quotient", coarsen(t, must(workload.FEMesh(40, 40, 0.3, ln, 1)), 600)},
		{"powerlaw", must(workload.PowerLaw(300, 3, ln, 1))},
		{"forest", graph.MustFromEdges(12, forest)},
		{"single-vertex", graph.MustFromEdges(1, nil)},
	}
}

// TestLapFactorAgainstDense: on every family the hierarchy and the Steiner
// preconditioner can hand the factor, the sparse solve agrees with the dense
// pinned Cholesky it replaced, returns the pseudo-inverse
// solution (zero mean per component, small residual), and its block solve is
// bit-identical per column to the scalar solve.
func TestLapFactorAgainstDense(t *testing.T) {
	for _, tc := range factorCorpus(t) {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.g
			n := g.N()
			f, err := NewLapFactor(g)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(7))
			b := meanFreeRHS(rng, g)
			x := make([]float64, n)
			f.Solve(x, b)

			want, err := densePinnedSolve(g, b)
			if err != nil {
				t.Fatal(err)
			}
			diff := make([]float64, n)
			for v := range x {
				diff[v] = x[v] - want[v]
			}
			if d, w := norm2(diff), norm2(want); d > 1e-10*w {
				t.Errorf("differs from the dense solve by %.3g relative", d/w)
			}
			comp, ncomp := g.Components()
			sum := make([]float64, ncomp)
			for v, c := range comp {
				sum[c] += x[v]
			}
			for c, s := range sum {
				if math.Abs(s) > 1e-10*(1+norm2(x)) {
					t.Errorf("component %d has mean·size %.3g", c, s)
				}
			}
			ax := make([]float64, n)
			g.LapMul(ax, x)
			for v := range ax {
				ax[v] -= b[v]
			}
			if r := norm2(ax); r > 1e-12*norm2(b) {
				t.Errorf("residual %.3g·‖b‖", r/norm2(b))
			}

			// In place.
			y := append([]float64(nil), b...)
			f.Solve(y, y)
			for v := range y {
				if y[v] != x[v] {
					t.Fatalf("aliased solve differs at %d: %v vs %v", v, y[v], x[v])
				}
			}

			for _, k := range []int{1, 2, 3, 4, 7, 8, 9, 16} {
				cols := make([][]float64, k)
				bb := make([]float64, n*k)
				for j := range cols {
					bj := meanFreeRHS(rng, g)
					cols[j] = make([]float64, n)
					f.Solve(cols[j], bj)
					for v := range bj {
						bb[v*k+j] = bj[v]
					}
				}
				xb := make([]float64, n*k)
				f.SolveBlock(xb, bb, k)
				f.SolveBlock(bb, bb, k)
				for j := range cols {
					for v := 0; v < n; v++ {
						if xb[v*k+j] != cols[j][v] || bb[v*k+j] != cols[j][v] {
							t.Fatalf("k=%d column %d vertex %d: block %v (aliased %v), scalar %v",
								k, j, v, xb[v*k+j], bb[v*k+j], cols[j][v])
						}
					}
				}
			}
		})
	}
}

// TestLapFactorOrderIsMinimumDegree pins the ordering rule — exact minimum
// degree on the elimination graph, ties to the smallest id — against an
// explicit elimination graph, and with it the recorded structure: the
// column counts must be the pivots' degrees at elimination.
func TestLapFactorOrderIsMinimumDegree(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	graphs := factorCorpus(t)
	for i := 0; i < 20; i++ {
		graphs = append(graphs, namedGraph{"random", randomConnected(rng, 5+rng.Intn(60), rng.Intn(80))})
	}
	for _, tc := range graphs {
		if tc.g.N() > 300 {
			continue // the oracle is O(n³)
		}
		f, err := NewLapFactor(tc.g)
		if err != nil {
			t.Fatal(err)
		}
		want := naiveMinDegree(tc.g)
		if len(want) != len(f.order) {
			t.Fatalf("%s: %d columns, want %d", tc.name, len(f.order), len(want))
		}
		for j := range want {
			if f.order[j] != want[j] {
				t.Fatalf("%s: pivot %d is vertex %d, the explicit elimination graph picks %d", tc.name, j, f.order[j], want[j])
			}
		}
		pos := make(map[int32]int, len(f.order))
		for j, v := range f.order {
			pos[v] = j
		}
		for j := range f.order {
			rows := f.rowIdx[f.colPtr[j]:f.colPtr[j+1]]
			for q, r := range rows {
				if pos[r] <= j || (q > 0 && pos[rows[q-1]] >= pos[r]) {
					t.Fatalf("%s: column %d rows not strictly below the diagonal in ascending position: %v", tc.name, j, rows)
				}
			}
		}
	}
}

// TestLaplacianMatchesGraphOperator multiplies the stored factor out: L·Lᵀ
// must reproduce the graph's Laplacian on the free vertices, entry for entry,
// so the matrix the factor inverts is the one LapMul applies.
func TestLaplacianMatchesGraphOperator(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	graphs := []*graph.Graph{randomConnected(rng, 30, 40)}
	// Two components: the factor pins one vertex of each.
	forest := []graph.Edge{{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 2}, {U: 3, V: 4, W: 0.5}, {U: 4, V: 5, W: 3}, {U: 3, V: 5, W: 1}}
	graphs = append(graphs, graph.MustFromEdges(6, forest))
	for _, g := range graphs {
		f, err := NewLapFactor(g)
		if err != nil {
			t.Fatal(err)
		}
		n := g.N()
		// Dense L in vertex numbering; pinned rows and columns stay zero.
		l := make([]float64, n*n)
		for j, v := range f.order {
			l[int(v)*n+int(v)] = f.diag[j]
			for q := f.colPtr[j]; q < f.colPtr[j+1]; q++ {
				l[int(f.rowIdx[q])*n+int(v)] = f.val[q]
			}
		}
		want := g.LapDense()
		for _, a := range f.order {
			for _, b := range f.order {
				got := 0.0
				for k := 0; k < n; k++ {
					got += l[int(a)*n+k] * l[int(b)*n+k]
				}
				if w := want[int(a)*n+int(b)]; math.Abs(got-w) > 1e-9 {
					t.Fatalf("n=%d: (L·Lᵀ)[%d][%d] = %v, Laplacian entry %v", n, a, b, got, w)
				}
			}
		}
		// The same Laplacian as an operator: LapMul of the solution gives back
		// the mean-free right-hand side.
		b := meanFreeRHS(rng, g)
		x := make([]float64, n)
		f.Solve(x, b)
		ax := make([]float64, n)
		g.LapMul(ax, x)
		for i := range b {
			if math.Abs(ax[i]-b[i]) > 1e-9 {
				t.Fatalf("n=%d row %d: L·x = %v, b = %v", n, i, ax[i], b[i])
			}
		}
	}
}

func TestLapFactorIsPseudoInverse(t *testing.T) {
	// Compare against the eigen-decomposition pseudo-inverse on a random
	// connected Laplacian.
	rng := rand.New(rand.NewSource(3))
	n := 8
	g := randomConnected(rng, n, 2)
	f, err := NewLapFactor(g)
	if err != nil {
		t.Fatal(err)
	}
	vals, vecs, err := dense.SymEig(dense.FromRowMajor(n, n, g.LapDense()))
	if err != nil {
		t.Fatal(err)
	}
	b := meanFreeRHS(rng, g)
	// Pseudo-inverse via eigen: x = Σ_{λ>0} (uᵀb/λ)·u.
	want := make([]float64, n)
	for k := 0; k < n; k++ {
		if vals[k] < 1e-9 {
			continue
		}
		dot := 0.0
		for i := 0; i < n; i++ {
			dot += vecs.At(i, k) * b[i]
		}
		for i := 0; i < n; i++ {
			want[i] += dot / vals[k] * vecs.At(i, k)
		}
	}
	got := make([]float64, n)
	f.Solve(got, b)
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-8 {
			t.Errorf("pinned vs pseudo-inverse differ by %v at %d", got[i]-want[i], i)
		}
	}
}

// TestLapFactorRejectsBadPivot: weight spreads far beyond double precision
// still factor, each pivot within 4 ulps of the closed-form Schur pivot,
// because no pivot is formed by a subtraction that can cancel. Only a ground
// weight that underflows on its way through a heavy column leaves a zero
// pivot, and that is an error wrapping graph.ErrInvalidInput, not a factor
// full of Infs.
func TestLapFactorRejectsBadPivot(t *testing.T) {
	const eps, h = 1e-30, 1e16
	for _, tc := range []struct {
		name   string
		edges  []graph.Edge
		pivots []float64 // closed-form Schur pivots in elimination order; nil: an error
	}{
		{"path 1e-30, 1", []graph.Edge{{U: 0, V: 1, W: eps}, {U: 1, V: 2, W: 1}}, []float64{1 + eps, eps / (1 + eps)}},
		{"triangle 1, 1, 1e16", []graph.Edge{{U: 0, V: 1, W: 1}, {U: 0, V: 2, W: 1}, {U: 1, V: 2, W: h}}, []float64{1 + h, 1 + h/(1+h)}},
		{"path 1e-300, 1e300", []graph.Edge{{U: 0, V: 1, W: 1e-300}, {U: 1, V: 2, W: 1e300}}, nil},
	} {
		f, err := NewLapFactor(graph.MustFromEdges(3, tc.edges))
		if tc.pivots == nil {
			if !errors.Is(err, graph.ErrInvalidInput) {
				t.Errorf("%s: err = %v, want one wrapping graph.ErrInvalidInput", tc.name, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		for j, want := range tc.pivots {
			got := f.diag[j] * f.diag[j]
			if ulps := int64(math.Float64bits(got)) - int64(math.Float64bits(want)); ulps < -4 || ulps > 4 {
				t.Errorf("%s: pivot %d = %v, want %v (%d ulps)", tc.name, j, got, want, ulps)
			}
		}
	}
}

// TestLapFactorRejectsBadOperands: Solve and SolveBlock panic with an error
// wrapping graph.ErrInvalidInput that names the operand — a width below 1, a
// short or an over-long dst or b, at width 1 too — before anything is written.
func TestLapFactorRejectsBadOperands(t *testing.T) {
	g := workload.Grid2D(5, 4, nil, 1)
	n := g.N()
	f, err := NewLapFactor(g)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name            string
		dstLen, bLen, k int // k = 0 calls Solve
		names           string
	}{
		{"Solve short dst", n - 1, n, 0, "Solve: len(dst)"},
		{"Solve long b", n, n + 1, 0, "Solve: len(b)"},
		{"SolveBlock zero width", 0, 0, -1, "SolveBlock: width k = -1"},
		{"SolveBlock k=1 long dst", n + 1, n, 1, "SolveBlock: len(dst)"},
		{"SolveBlock short dst", 3*n - 1, 3 * n, 3, "SolveBlock: len(dst)"},
		{"SolveBlock long dst", 8*n + 8, 8 * n, 8, "SolveBlock: len(dst)"},
		{"SolveBlock short b", 4 * n, 4*n - 4, 4, "SolveBlock: len(b)"},
	} {
		const sentinel = 9.75
		dst, b := make([]float64, tc.dstLen), make([]float64, tc.bLen)
		for i := range dst {
			dst[i] = sentinel
		}
		err := func() (err error) {
			defer func() { err, _ = recover().(error) }()
			if tc.k == 0 {
				f.Solve(dst, b)
			} else {
				f.SolveBlock(dst, b, tc.k)
			}
			return nil
		}()
		if !errors.Is(err, graph.ErrInvalidInput) || !strings.Contains(err.Error(), tc.names) {
			t.Errorf("%s: panic %v, want an error wrapping ErrInvalidInput that names %q", tc.name, err, tc.names)
		}
		for i := range dst {
			if dst[i] != sentinel {
				t.Fatalf("%s: dst[%d] written before the panic", tc.name, i)
			}
		}
	}
}

// TestLapFactorAccounting: NNZ, Fill and Bytes describe what is stored. A
// path eliminates without fill; a factor is far smaller than the n² floats
// the dense solver held.
func TestLapFactorAccounting(t *testing.T) {
	var path []graph.Edge
	for v := 1; v < 50; v++ {
		path = append(path, graph.Edge{U: v - 1, V: v, W: 1})
	}
	f, err := NewLapFactor(graph.MustFromEdges(50, path))
	if err != nil {
		t.Fatal(err)
	}
	if f.NNZ() != 49+48 || f.Fill() != 1 {
		t.Errorf("path: nnz %d fill %v, want 97 and 1", f.NNZ(), f.Fill())
	}
	one, err := NewLapFactor(graph.MustFromEdges(1, nil))
	if err != nil {
		t.Fatal(err)
	}
	if one.NNZ() != 0 || one.Fill() != 1 {
		t.Errorf("single vertex: nnz %d fill %v, want 0 and 1", one.NNZ(), one.Fill())
	}
	g := coarsen(t, workload.Grid2D(48, 48, workload.Lognormal(1), 1), 600)
	f, err = NewLapFactor(g)
	if err != nil {
		t.Fatal(err)
	}
	n := int64(g.N())
	if min := int64(12 * (f.NNZ() - len(f.diag))); f.Bytes() < min || f.Bytes() > 8*n*n/4 {
		t.Errorf("Bytes() = %d for nnz %d on %d vertices", f.Bytes(), f.NNZ(), n)
	}
}

// lapFactorSeeds is FuzzLapFactor's seed corpus.
var lapFactorSeeds = [][]byte{
	{6, 0, 1, 30, 1, 2, 50, 2, 3, 10, 3, 4, 200, 4, 5, 90, 0, 5, 255},
	{3, 0, 1, 0, 1, 2, 255},
	{9, 0, 1, 15, 0, 2, 150, 0, 3, 1, 3, 4, 100, 4, 5, 2, 2, 6, 3, 6, 7, 230, 7, 8, 4},
	{1},
	{20, 0, 1, 7, 2, 3, 7, 4, 5, 7, 5, 6, 70, 6, 4, 170},
}

// fuzzFactorGraph decodes FuzzLapFactor's input (at least one byte): byte 0
// is the vertex count in [1, 40]; triples (u, v, w) follow, the weight byte
// spread log-uniformly over [1e-6, 1e6].
func fuzzFactorGraph(t testing.TB, data []byte) *graph.Graph {
	t.Helper()
	n := 1 + int(data[0])%40
	var es []graph.Edge
	for i := 1; i+2 < len(data); i += 3 {
		u, v := int(data[i])%n, int(data[i+1])%n
		if u == v {
			continue
		}
		es = append(es, graph.Edge{U: u, V: v, W: math.Pow(10, -6+12*float64(data[i+2])/255)})
	}
	g, err := graph.NewFromEdges(n, es)
	if err != nil {
		t.Fatalf("construction from valid edges failed: %v", err)
	}
	return g
}

// FuzzLapFactor: random weighted edge lists — parallel edges merged by the
// graph constructor, weights over twelve orders of magnitude, any number of
// components — against the dense pinned Cholesky. Conditioning makes the
// forward error meaningless here, so both solutions are held to the normwise
// backward error of a stable solve and compared through A. No pivot can
// underflow at these weights, so every input must factor.
func FuzzLapFactor(f *testing.F) {
	for _, data := range lapFactorSeeds {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		g := fuzzFactorGraph(t, data)
		n := g.N()
		fac, err := NewLapFactor(g)
		if err != nil {
			t.Fatalf("weights in [1e-6, 1e6] cannot underflow a pivot: %v", err)
		}
		rng := rand.New(rand.NewSource(int64(len(data))))
		b := meanFreeRHS(rng, g)
		x := make([]float64, n)
		fac.Solve(x, b)
		normA := 0.0
		for v := 0; v < n; v++ {
			normA = math.Max(normA, 2*g.Vol(v))
		}
		bound := func(y []float64) float64 { return 1e-12 * float64(n) * (normA*norm2(y) + norm2(b)) }
		ax := make([]float64, n)
		g.LapMul(ax, x)
		for v := range ax {
			ax[v] -= b[v]
		}
		if r := norm2(ax); !(r <= bound(x)) {
			t.Fatalf("backward error: residual %.3g, bound %.3g", r, bound(x))
		}
		comp, ncomp := g.Components()
		sum := make([]float64, ncomp)
		for v, c := range comp {
			sum[c] += x[v]
		}
		for c, s := range sum {
			if !(math.Abs(s) <= 1e-12*float64(n)*(1+norm2(x))) {
				t.Fatalf("component %d sums to %.3g", c, s)
			}
		}
		if want, err := densePinnedSolve(g, b); err == nil {
			d := make([]float64, n)
			for v := range d {
				d[v] = x[v] - want[v]
			}
			g.LapMul(ax, d)
			if r := norm2(ax); !(r <= bound(x)+bound(want)) {
				t.Fatalf("A·(sparse − dense) = %.3g, bound %.3g", r, bound(x)+bound(want))
			}
		}
		// Every column-tile shape: the tail alone, 4, 8, and 8 + 4. In each
		// tile (and in the tail) one column holds b, the others noise, and
		// that column must be the scalar solve bit for bit in either form of
		// the kernel tile.
		for _, k := range []int{3, 4, 8, 12} {
			var checked []int
			for j0 := 0; j0 < k; j0 += 8 {
				checked = append(checked, min(j0+6, k-2))
			}
			noise := make([]float64, n*k)
			for i := range noise {
				noise[i] = rng.NormFloat64()
			}
			for _, v := range checked {
				for u := 0; u < n; u++ {
					noise[u*k+v] = b[u]
				}
			}
			for _, form := range []func(func()){kernel.WithGo, func(f func()) { f() }} {
				bb := append([]float64(nil), noise...)
				form(func() { fac.SolveBlock(bb, bb, k) })
				for _, j := range checked {
					for v := 0; v < n; v++ {
						if math.Float64bits(bb[v*k+j]) != math.Float64bits(x[v]) {
							t.Fatalf("k=%d column %d differs from the scalar solve at %d: %v vs %v", k, j, v, bb[v*k+j], x[v])
						}
					}
				}
			}
		}
	})
}
