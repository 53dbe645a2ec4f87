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
// arrays, the scalar cycle an unfused matvec + sweep sequence. It is rebuilt
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
	smooth       int
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
		l := &refLevel{g: cur, assign: la.Assign, count: la.Count, smooth: smooth, dInv: make([]float64, cur.N())}
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
	visits, _ := cycleVisits(share, smooth, nnz, h.coarse.NNZ())
	for i, l := range rc.levels {
		l.visits = visits[i]
	}
	return rc
}

// coarseStep applies the level below once, or — on a doubled level — runs the
// two-step iteration on it: xq ← M′rq, then xq ← xq + M′(rq − Q·xq). apply is
// the scalar or the block recursion on level+1, residual its res ← rq − Q·xq.
func (rc *refCycle) coarseStep(level int, xq, rq []float64, apply func(dst, r []float64), residual func(res, rq, xq []float64)) {
	apply(xq, rq)
	if rc.levels[level].visits != 2 {
		return
	}
	res, corr := make([]float64, len(rq)), make([]float64, len(rq))
	residual(res, rq, xq)
	apply(corr, res)
	for i := range xq {
		xq[i] += corr[i]
	}
}

// Apply makes the oracle a solver.Preconditioner, so PCG can run under either
// parameter pair.
func (rc *refCycle) Apply(dst, r []float64) { rc.apply(0, dst, r) }

// refLapMul is the textbook row loop, written out so the oracle does not
// lean on the kernels under test.
func refLapMul(g *graph.Graph, dst, x []float64) {
	for v := 0; v < g.N(); v++ {
		nbr, w := g.Neighbors(v)
		acc := 0.0
		for i, u := range nbr {
			acc += w[i] * (x[v] - x[u])
		}
		dst[v] = acc
	}
}

func (rc *refCycle) apply(level int, dst, r []float64) {
	if level == len(rc.levels) {
		rc.coarse.Solve(dst, r)
		return
	}
	l := rc.levels[level]
	n := l.g.N()
	rq, xq := make([]float64, l.count), make([]float64, l.count)
	restrictRef := func(src []float64) {
		for c := 0; c < l.count; c++ {
			acc := 0.0
			for i := l.start[c]; i < l.start[c+1]; i++ {
				acc += src[l.order[i]]
			}
			rq[c] = acc
		}
	}
	if l.smooth == 0 {
		restrictRef(r)
		rc.apply(level+1, xq, rq)
		for v := 0; v < n; v++ {
			dst[v] = r[v]*l.dInv[v] + xq[l.assign[v]]
		}
		return
	}
	omega := rc.omega
	x := dst
	tmp, tmp2 := make([]float64, n), make([]float64, n)
	for v := 0; v < n; v++ {
		x[v] = omega * r[v] * l.dInv[v]
	}
	for s := 1; s < l.smooth; s++ {
		refLapMul(l.g, tmp, x)
		for v := 0; v < n; v++ {
			x[v] += omega * (r[v] - tmp[v]) * l.dInv[v]
		}
	}
	refLapMul(l.g, tmp, x)
	for v := 0; v < n; v++ {
		tmp[v] = r[v] - tmp[v]
	}
	restrictRef(tmp)
	rc.coarseStep(level, xq, rq,
		func(dst, r []float64) { rc.apply(level+1, dst, r) },
		func(res, rq, xq []float64) {
			refLapMul(rc.levels[level+1].g, res, xq)
			for c := range res {
				res[c] = rq[c] - res[c]
			}
		})
	for v := 0; v < n; v++ {
		x[v] += l.alpha * xq[l.assign[v]]
	}
	for s := 0; s < l.smooth; s++ {
		refLapMul(l.g, tmp2, x)
		for v := 0; v < n; v++ {
			x[v] += omega * (r[v] - tmp2[v]) * l.dInv[v]
		}
	}
}

func (rc *refCycle) applyBlock(level int, dst, r []float64, k int) {
	if level == len(rc.levels) {
		rc.coarse.SolveBlock(dst, r, k)
		return
	}
	l := rc.levels[level]
	n := l.g.N()
	rq, xq := make([]float64, l.count*k), make([]float64, l.count*k)
	restrictRef := func(src []float64) {
		for c := 0; c < l.count; c++ {
			acc := rq[c*k : c*k+k]
			for i := l.start[c]; i < l.start[c+1]; i++ {
				for j := range acc {
					acc[j] += src[l.order[i]*k+j]
				}
			}
		}
	}
	if l.smooth == 0 {
		restrictRef(r)
		rc.applyBlock(level+1, xq, rq, k)
		for v := 0; v < n; v++ {
			for j := 0; j < k; j++ {
				dst[v*k+j] = r[v*k+j]*l.dInv[v] + xq[l.assign[v]*k+j]
			}
		}
		return
	}
	omega := rc.omega
	x := dst
	tmp, tmp2 := make([]float64, n*k), make([]float64, n*k)
	jacobi := func(t []float64) {
		for v := 0; v < n; v++ {
			od := omega * l.dInv[v]
			for j := 0; j < k; j++ {
				x[v*k+j] += od * (r[v*k+j] - t[v*k+j])
			}
		}
	}
	for v := 0; v < n; v++ {
		od := omega * l.dInv[v]
		for j := 0; j < k; j++ {
			x[v*k+j] = od * r[v*k+j]
		}
	}
	for s := 1; s < l.smooth; s++ {
		l.g.LapMulBlock(tmp, x, k)
		jacobi(tmp)
	}
	l.g.LapMulBlockResidual(tmp, r, x, k)
	restrictRef(tmp)
	rc.coarseStep(level, xq, rq,
		func(dst, r []float64) { rc.applyBlock(level+1, dst, r, k) },
		func(res, rq, xq []float64) { rc.levels[level+1].g.LapMulBlockResidual(res, rq, xq, k) })
	for v := 0; v < n; v++ {
		for j := 0; j < k; j++ {
			x[v*k+j] += l.alpha * xq[l.assign[v]*k+j]
		}
	}
	for s := 0; s < l.smooth; s++ {
		l.g.LapMulBlock(tmp2, x, k)
		jacobi(tmp2)
	}
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

// TestApplyMatchesReferenceCycle: on every family, smoothing depth, block
// width and worker count, Apply/ApplyBlock on the laid-out hierarchy equal
// the natural-order reference cycle bit for bit, and so does a hierarchy
// rebuilt from the dumped assignments — at the default DirectLimit and at 16,
// where every family is deep enough that the smoothed cycle doubles a tail of
// levels and the oracle must take the same second visits.
func TestApplyMatchesReferenceCycle(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, tc := range layoutCorpus(t) {
		for _, limit := range []int{DefaultOptions().DirectLimit, 16} {
			for _, smooth := range []int{0, 1, 2} {
				opt := DefaultOptions()
				opt.Smooth = smooth
				opt.DirectLimit = limit
				h, err := New(tc.g, opt)
				if err != nil {
					t.Fatalf("%s: %v", tc.name, err)
				}
				if h.Depth() < 2 {
					t.Fatalf("%s: depth %d, the layout needs a level below the finest", tc.name, h.Depth())
				}
				if doubled := doubledLevels(h); limit == 16 && (doubled == 0) != (smooth == 0) {
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
					if k == 1 {
						rc.apply(0, want, r)
					} else {
						rc.applyBlock(0, want, r, k)
					}
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
