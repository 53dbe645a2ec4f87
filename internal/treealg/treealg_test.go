package treealg

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"hcd/internal/dense"
	"hcd/internal/graph"
)

func pathTree(n int) *graph.Graph {
	es := make([]graph.Edge, 0, n-1)
	for i := 0; i < n-1; i++ {
		es = append(es, graph.Edge{U: i, V: i + 1, W: 1})
	}
	return graph.MustFromEdges(n, es)
}

func starTree(n int) *graph.Graph {
	es := make([]graph.Edge, 0, n-1)
	for i := 1; i < n; i++ {
		es = append(es, graph.Edge{U: 0, V: i, W: 1})
	}
	return graph.MustFromEdges(n, es)
}

func TestRootAtBasics(t *testing.T) {
	g := pathTree(5)
	r, err := RootAt(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if r.Parent[2] != -1 || len(r.Roots) != 1 || r.Roots[0] != 2 {
		t.Errorf("root wrong: parents=%v roots=%v", r.Parent, r.Roots)
	}
	if r.Desc[2] != 5 {
		t.Errorf("Desc[root] = %d, want 5", r.Desc[2])
	}
	if r.Desc[0] != 1 || r.Desc[1] != 2 || r.Desc[3] != 2 || r.Desc[4] != 1 {
		t.Errorf("Desc = %v", r.Desc)
	}
	if r.Parent[1] != 2 || r.Parent[0] != 1 {
		t.Errorf("parents = %v", r.Parent)
	}
}

func TestRootAtRejectsNonTree(t *testing.T) {
	cyc := graph.MustFromEdges(3, []graph.Edge{{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1}, {U: 0, V: 2, W: 1}})
	if _, err := RootAt(cyc, 0); err == nil {
		t.Error("cycle accepted as tree")
	}
	forest := graph.MustFromEdges(4, []graph.Edge{{U: 0, V: 1, W: 1}})
	if _, err := RootAt(forest, 0); err == nil {
		t.Error("forest accepted as single tree")
	}
}

func TestRootForest(t *testing.T) {
	g := graph.MustFromEdges(6, []graph.Edge{{U: 0, V: 1, W: 1}, {U: 3, V: 4, W: 2}, {U: 4, V: 5, W: 2}})
	r, err := RootForest(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Roots) != 3 { // components {0,1}, {2}, {3,4,5}
		t.Fatalf("roots = %v", r.Roots)
	}
	if r.Desc[r.Roots[2]] != 3 && r.Desc[r.Roots[1]] != 3 {
		// Roots are in discovery order: 0, 2, 3.
		t.Errorf("Desc = %v roots = %v", r.Desc, r.Roots)
	}
	if len(r.Order) != 6 {
		t.Errorf("order covers %d vertices", len(r.Order))
	}
}

func TestChildrenAndLeaves(t *testing.T) {
	g := starTree(4)
	r, _ := RootAt(g, 0)
	off, list := r.ChildLists()
	if got := list[off[0]:off[1]]; !reflect.DeepEqual(got, []int{3, 2, 1}) { // preorder: the DFS pops its last push first
		t.Errorf("children of root = %v", got)
	}
	if off[4] != 3 {
		t.Errorf("leaves have children: off = %v", off)
	}
	if r.isLeaf(0) || !r.isLeaf(1) {
		t.Error("leaf classification wrong")
	}
	// Rooting at a leaf: vertex 0 (center) gets 2 children.
	r2, _ := RootAt(g, 1)
	if r2.isLeaf(1) {
		t.Error("root with a child misclassified as leaf")
	}
	off, list = r2.ChildLists()
	if got := list[off[0]:off[1]]; len(got) != 2 {
		t.Errorf("center children after re-rooting = %v", got)
	}
	if got := list[off[1]:off[2]]; !reflect.DeepEqual(got, []int{0}) {
		t.Errorf("children of the new root = %v", got)
	}
}

func TestCritical3Path(t *testing.T) {
	// Path rooted at one end: desc along path is n, n−1, ..., 1.
	// v (desc d, child desc d−1) is critical iff ⌈d/3⌉ > ⌈(d−1)/3⌉, i.e.
	// d ≡ 1 (mod 3), and v is not a leaf.
	n := 10
	r, _ := RootAt(pathTree(n), 0)
	crit := r.Critical3()
	for v := 0; v < n; v++ {
		d := n - v
		want := d%3 == 1 && v != n-1
		if crit[v] != want {
			t.Errorf("vertex %d (desc %d): critical=%v want %v", v, d, crit[v], want)
		}
	}
}

func TestCritical3CountBound(t *testing.T) {
	// The paper uses: #critical ≤ 2n/3 (loose); sanity check on random trees.
	rng := rand.New(rand.NewSource(1))
	for it := 0; it < 30; it++ {
		n := 2 + rng.Intn(200)
		g := RandomTree(rng, n, nil)
		r, err := RootAt(g, rng.Intn(n))
		if err != nil {
			t.Fatal(err)
		}
		crit := r.Critical3()
		count := 0
		for _, c := range crit {
			if c {
				count++
			}
		}
		if count > 2*n/3+1 {
			t.Errorf("n=%d: %d critical vertices", n, count)
		}
		// Leaves are never critical.
		for v := 0; v < n; v++ {
			if r.isLeaf(v) && crit[v] {
				t.Errorf("leaf %d marked critical", v)
			}
		}
	}
}

func TestNonCriticalSubtreesAreSmall(t *testing.T) {
	// Key structural fact behind Theorem 2.1: any maximal subtree containing
	// no 3-critical vertex has at most 3 vertices.
	rng := rand.New(rand.NewSource(2))
	for it := 0; it < 40; it++ {
		n := 2 + rng.Intn(300)
		g := RandomTree(rng, n, nil)
		r, _ := RootAt(g, rng.Intn(n))
		crit := r.Critical3()
		// size of the non-critical subtree hanging at v (0 if v critical).
		size := make([]int, n)
		for i := len(r.Order) - 1; i >= 0; i-- {
			v := r.Order[i]
			if crit[v] {
				continue
			}
			size[v] = 1
			nbr, _ := r.G.Neighbors(v)
			for _, u := range nbr {
				if r.Parent[u] == v && !crit[u] {
					size[v] += size[u]
				}
			}
			if size[v] > 3 {
				t.Fatalf("n=%d: non-critical subtree at %d has %d vertices", n, v, size[v])
			}
		}
	}
}

func TestTreeSolverAgainstDense(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for it := 0; it < 20; it++ {
		n := 2 + rng.Intn(40)
		g := RandomTree(rng, n, func() float64 { return 0.1 + rng.Float64()*10 })
		r, _ := RootAt(g, rng.Intn(n))
		s := NewSolver(r)
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		mean := 0.0
		for _, v := range b {
			mean += v
		}
		for i := range b {
			b[i] -= mean / float64(n)
		}
		x := make([]float64, n)
		s.Solve(x, b)
		// Residual check against the Laplacian operator.
		ax := make([]float64, n)
		g.LapMul(ax, x)
		for i := range ax {
			if math.Abs(ax[i]-b[i]) > 1e-8 {
				t.Fatalf("n=%d: residual[%d] = %v", n, i, ax[i]-b[i])
			}
		}
		// Compare with the dense pseudo-inverse path.
		lap := dense.FromRowMajor(n, n, g.LapDense())
		comp := make([]int, n)
		p, err := dense.NewPinnedLaplacian(lap, comp, 1)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]float64, n)
		p.Solve(want, b)
		for i := range want {
			if math.Abs(x[i]-want[i]) > 1e-7 {
				t.Fatalf("n=%d: x[%d] = %v, want %v", n, i, x[i], want[i])
			}
		}
	}
}

func TestTreeSolverForest(t *testing.T) {
	g := graph.MustFromEdges(5, []graph.Edge{{U: 0, V: 1, W: 2}, {U: 2, V: 3, W: 1}, {U: 3, V: 4, W: 1}})
	r, _ := RootForest(g)
	s := NewSolver(r)
	b := []float64{1, -1, 2, 0, -2}
	x := make([]float64, 5)
	s.Solve(x, b)
	ax := make([]float64, 5)
	g.LapMul(ax, x)
	for i := range ax {
		if math.Abs(ax[i]-b[i]) > 1e-10 {
			t.Fatalf("residual[%d] = %v", i, ax[i]-b[i])
		}
	}
	// Zero mean per component.
	if math.Abs(x[0]+x[1]) > 1e-10 || math.Abs(x[2]+x[3]+x[4]) > 1e-10 {
		t.Errorf("component means nonzero: %v", x)
	}
}

func TestTreeSolverAliased(t *testing.T) {
	g := pathTree(6)
	r, _ := RootAt(g, 0)
	s := NewSolver(r)
	b := []float64{1, 2, -3, 3, -2, -1}
	bCopy := append([]float64(nil), b...)
	s.Solve(b, b)
	ax := make([]float64, 6)
	g.LapMul(ax, b)
	for i := range ax {
		if math.Abs(ax[i]-bCopy[i]) > 1e-10 {
			t.Fatalf("aliased solve residual[%d] = %v", i, ax[i]-bCopy[i])
		}
	}
}

func TestPruferRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + int(uint(r.Int63())%60)
		seq := make([]int, n-2)
		for i := range seq {
			seq[i] = r.Intn(n)
		}
		edges, err := pruferDecode(n, seq)
		if err != nil {
			return false
		}
		g := graph.MustFromEdges(n, edges)
		if !g.IsTree() {
			return false
		}
		seq2, err := PruferEncode(g)
		if err != nil {
			return false
		}
		if len(seq2) != len(seq) {
			return false
		}
		for i := range seq {
			if seq[i] != seq2[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func TestPruferErrors(t *testing.T) {
	if _, err := pruferDecode(5, []int{0, 1}); err == nil {
		t.Error("wrong-length sequence accepted")
	}
	if _, err := pruferDecode(4, []int{0, 9}); err == nil {
		t.Error("out-of-range entry accepted")
	}
	if es, err := pruferDecode(1, nil); err != nil || es != nil {
		t.Error("n=1 should decode to empty tree")
	}
	if _, err := PruferEncode(graph.MustFromEdges(3, []graph.Edge{{U: 0, V: 1, W: 1}})); err == nil {
		t.Error("non-tree accepted by encode")
	}
}

func TestRandomTreeDistributionSanity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := RandomTree(rng, 1000, func() float64 { return 2.5 })
	if !g.IsTree() {
		t.Fatal("RandomTree did not return a tree")
	}
	if w, _ := g.Weight(g.Edges()[0].U, g.Edges()[0].V); w != 2.5 {
		t.Error("weightFn ignored")
	}
	if RandomTree(rng, 0, nil).N() != 0 || RandomTree(rng, 1, nil).N() != 1 {
		t.Error("tiny trees mishandled")
	}
}

func BenchmarkTreeSolver100k(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	g := RandomTree(rng, 100000, func() float64 { return 0.1 + rng.Float64() })
	r, _ := RootAt(g, 0)
	s := NewSolver(r)
	rhs := make([]float64, g.N())
	for i := range rhs {
		rhs[i] = rng.NormFloat64()
	}
	x := make([]float64, g.N())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Solve(x, rhs)
	}
}
