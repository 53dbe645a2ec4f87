package hierarchy

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"hcd/internal/graph"
	"hcd/internal/sparse"
	"hcd/internal/workload"
)

// The reference cycle: the V-cycle as it ran before levels had an apply
// layout — every level a natural-numbered quotient with []int restriction
// arrays, the cycle an unfused matvec + sweep sequence. It is rebuilt
// from a hierarchy's dumped assignments and shares only the coarse factor
// with it, and it is the oracle the layout and the fused kernels are held to
// bit for bit. The cycle's parameters are arguments: (jacobiOmega, coarseBeta,
// cycleShare) is the production cycle, share = +Inf the same cycle visiting
// every level once, (½, 0, +Inf) the unscaled ω = ½ V-cycle before that.

type refLevel struct {
	g            *graph.Graph
	assign       []int
	count        int
	dInv         []float64
	smoothed     bool
	alpha        float64
	visits       int
	order, start []int
}

type refCycle struct {
	levels []*refLevel
	coarse *sparse.LapFactor
	omega  float64
}

func newRefCycle(g *graph.Graph, h *Hierarchy, omega, beta, share float64) *refCycle {
	dumped, smooth := h.DumpLevels()
	rc := &refCycle{coarse: h.coarse, omega: omega}
	cur := g
	var nnz []int
	for _, la := range dumped {
		l := &refLevel{g: cur, assign: la.Assign, count: la.Count, smoothed: smooth == 1, dInv: make([]float64, cur.N())}
		for v := 0; v < cur.N(); v++ {
			if vol := cur.Vol(v); vol > 0 {
				l.dInv[v] = 1 / vol
			}
		}
		l.start = make([]int, la.Count+1)
		for _, c := range la.Assign {
			l.start[c+1]++
		}
		for c := 0; c < la.Count; c++ {
			l.start[c+1] += l.start[c]
		}
		l.order = make([]int, cur.N())
		fill := append([]int(nil), l.start[:la.Count]...)
		for v, c := range la.Assign {
			l.order[fill[c]] = v
			fill[c]++
		}
		rc.levels = append(rc.levels, l)
		nnz = append(nnz, 2*cur.M())
		q := cur.Contract(la.Assign, la.Count)
		_, l.alpha = cycleScale(beta, cur.TotalVol(), q.TotalVol())
		cur = q
	}
	visits, _ := cycleVisits(share, smooth == 1, nnz, h.coarse.NNZ())
	for i, l := range rc.levels {
		l.visits = visits[i]
	}
	return rc
}

// Apply makes the oracle a solver.Preconditioner, so PCG can run under either
// parameter pair.
func (rc *refCycle) Apply(dst, r []float64) { rc.apply(0, dst, r, 1) }

// refLapMul is dst = A·x for k packed columns, the textbook row loop per
// column, written out so the oracle does not lean on the kernels under test.
func refLapMul(g *graph.Graph, dst, x []float64, k int) {
	for v := 0; v < g.N(); v++ {
		nbr, w := g.Neighbors(v)
		for j := 0; j < k; j++ {
			acc := 0.0
			for i, u := range nbr {
				acc += w[i] * (x[v*k+j] - x[int(u)*k+j])
			}
			dst[v*k+j] = acc
		}
	}
}

// jacobi is one damped-Jacobi step x += ω·(r − t)·d⁻¹, t = A·x, in place;
// from a zero iterate (t nil) it is x = ω·r·d⁻¹.
func (l *refLevel) jacobi(x, r, t []float64, omega float64, k int) {
	for v := 0; v < l.g.N(); v++ {
		for j := v * k; j < v*k+k; j++ {
			res := r[j]
			if t != nil {
				res -= t[j]
			}
			step := omega * res * l.dInv[v]
			if t == nil {
				x[j] = step
			} else {
				x[j] += step
			}
		}
	}
}

// restrict computes rq = Rᵀsrc, each cluster summed in ascending member order.
func (l *refLevel) restrict(rq, src []float64, k int) {
	for c := 0; c < l.count; c++ {
		for j := 0; j < k; j++ {
			acc := 0.0
			for i := l.start[c]; i < l.start[c+1]; i++ {
				acc += src[l.order[i]*k+j]
			}
			rq[c*k+j] = acc
		}
	}
}

// apply is the reference traversal, k packed columns wide: the unfused
// matvec + sweep sequence on natural-numbered levels, the only width-specific
// code in the leaves above.
func (rc *refCycle) apply(level int, dst, r []float64, k int) {
	if level == len(rc.levels) {
		rc.coarse.SolveBlock(dst, r, k)
		return
	}
	l := rc.levels[level]
	n := l.g.N()
	rq, xq := make([]float64, l.count*k), make([]float64, l.count*k)
	if !l.smoothed {
		l.restrict(rq, r, k)
		rc.apply(level+1, xq, rq, k)
		for v := 0; v < n; v++ {
			for j := 0; j < k; j++ {
				dst[v*k+j] = r[v*k+j]*l.dInv[v] + xq[l.assign[v]*k+j]
			}
		}
		return
	}
	x, tmp := dst, make([]float64, n*k)
	l.jacobi(x, r, nil, rc.omega, k)
	refLapMul(l.g, tmp, x, k)
	for i := range tmp {
		tmp[i] = r[i] - tmp[i]
	}
	l.restrict(rq, tmp, k)
	rc.apply(level+1, xq, rq, k)
	if l.visits == 2 {
		// The two-step iteration on the level below: xq ← xq + M′(rq − Q·xq).
		res, corr := make([]float64, len(rq)), make([]float64, len(rq))
		refLapMul(rc.levels[level+1].g, res, xq, k)
		for i := range res {
			res[i] = rq[i] - res[i]
		}
		rc.apply(level+1, corr, res, k)
		for i := range xq {
			xq[i] += corr[i]
		}
	}
	for v := 0; v < n; v++ {
		for j := 0; j < k; j++ {
			x[v*k+j] += l.alpha * xq[l.assign[v]*k+j]
		}
	}
	refLapMul(l.g, tmp, x, k)
	l.jacobi(x, r, tmp, rc.omega, k)
}

// layoutCorpus is one graph per family the benchmark and the serving mix
// build hierarchies on, each large enough that level 1 spans more than one
// layout window or, for the small ones, that several levels exist.
func layoutCorpus(tb testing.TB) []namedGraph {
	tb.Helper()
	must := func(g *graph.Graph, err error) *graph.Graph {
		if err != nil {
			tb.Fatal(err)
		}
		return g
	}
	return []namedGraph{
		{"grid2d", workload.Grid2D(96, 96, workload.Lognormal(1), 1)},
		{"grid3d", workload.Grid3D(28, 28, 28, workload.Lognormal(1), 2)},
		{"oct3d", workload.OCT3D(24, 24, 24, workload.DefaultOCTOptions())},
		{"road", must(workload.RoadNetwork(80, 80, 10, workload.Lognormal(0.5), 3))},
		{"femesh", must(workload.FEMesh(96, 96, -1, nil, 4))},
		{"powerlaw", must(workload.PowerLaw(6000, 3, workload.UniformWeight(0.5, 2), 5))},
		{"tree", workload.BinaryTree(13, workload.Lognormal(1), 6)},
	}
}

func randomBlock(rng *rand.Rand, n, k int) []float64 {
	r := make([]float64, n*k)
	for i := range r {
		r[i] = rng.NormFloat64()
	}
	return r
}

func firstDiff(got, want []float64) int {
	for i := range want {
		if got[i] != want[i] {
			return i
		}
	}
	return -1
}

// TestApplyMatchesReferenceCycle: on every family, cycle shape, block
// width and worker count, Apply/ApplyBlock on the laid-out hierarchy equal
// the natural-order reference cycle bit for bit, and so does a hierarchy
// rebuilt from the dumped assignments — at the default DirectLimit and at 16,
// where every family is deep enough that the smoothed cycle doubles a tail of
// levels and the oracle must take the same second visits.
func TestApplyMatchesReferenceCycle(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, tc := range layoutCorpus(t) {
		for _, limit := range []int{DefaultOptions().DirectLimit, 16} {
			for _, smooth := range []int{0, 1} {
				opt := DefaultOptions()
				opt.DirectLimit = limit
				h := newSmooth(t, tc.g, opt, smooth)
				// A forest is factored whole: its cycle is the coarse solve.
				forest := tc.g.IsForest()
				if h.Depth() < 2 && !forest {
					t.Fatalf("%s: depth %d, the layout needs a level below the finest", tc.name, h.Depth())
				}
				if doubled := doubledLevels(h); limit == 16 && !forest && (doubled == 0) != (smooth == 0) {
					t.Fatalf("%s limit=16 smooth=%d: %d doubled levels in %v", tc.name, smooth, doubled, h.LevelScales())
				}
				dumped, dsmooth := h.DumpLevels()
				h2, err := Rebuild(context.Background(), tc.g, dumped, dsmooth)
				if err != nil {
					t.Fatalf("%s: rebuild: %v", tc.name, err)
				}
				rc := newRefCycle(tc.g, h, jacobiOmega, coarseBeta, cycleShare)
				n := tc.g.N()
				rng := rand.New(rand.NewSource(int64(100 + smooth)))
				for _, k := range []int{1, 3, 8} {
					r := randomBlock(rng, n, k)
					want := make([]float64, n*k)
					rc.apply(0, want, r, k)
					for _, procs := range []int{1, 4} {
						runtime.GOMAXPROCS(procs)
						name := fmt.Sprintf("%s limit=%d smooth=%d k=%d procs=%d", tc.name, limit, smooth, k, procs)
						got := make([]float64, n*k)
						if k == 1 {
							h.Apply(got, r)
							if i := firstDiff(got, want); i >= 0 {
								t.Fatalf("%s: Apply[%d] = %v, reference %v", name, i, got[i], want[i])
							}
						}
						h.ApplyBlock(got, r, k)
						if i := firstDiff(got, want); i >= 0 {
							t.Fatalf("%s: ApplyBlock[%d] = %v, reference %v", name, i, got[i], want[i])
						}
						h2.ApplyBlock(got, r, k)
						if i := firstDiff(got, want); i >= 0 {
							t.Fatalf("%s: rebuilt ApplyBlock[%d] = %v, reference %v", name, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}

// doubledLevels counts the levels the visit rule doubled.
func doubledLevels(h *Hierarchy) int {
	doubled := 0
	for _, l := range h.levels {
		if l.visits == 2 {
			doubled++
		}
	}
	return doubled
}
