package hierarchy

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"testing"

	"hcd/internal/graph"
	"hcd/internal/obs"
	"hcd/internal/solver"
	"hcd/internal/workload"
)

// TestLayoutViewIsPermutedLevel: where level 0's natural order leaves most
// entries ungrouped the hierarchy keeps a view, and the view's V-cycle and
// matvec are the natural ones renumbered — bit for bit, since every row sum,
// smoothing step and restriction adds the same numbers in the same sequence.
// A grouped level 0 gets no view. SolveSpace answers only for level 0's own
// graph.
func TestLayoutViewIsPermutedLevel(t *testing.T) {
	for _, tc := range cycleTableCorpus(t) {
		h, err := New(tc.g, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if h.Depth() == 0 {
			continue
		}
		natural, solve := h.GroupedShares()
		t.Logf("%-14s level 0 grouped: %5.1f %% natural, %5.1f %% solve space", tc.name, 100*natural, 100*solve)
		perm, gs, ms := h.SolveSpace(tc.g)
		if (perm != nil) != (natural < viewMaxGrouped) {
			t.Errorf("%s: %.0f %% grouped in natural order, view built: %v", tc.name, 100*natural, perm != nil)
		}
		if p, _, _ := h.SolveSpace(tc.g.Clone()); p != nil {
			t.Errorf("%s: SolveSpace answered for another graph", tc.name)
		}
		if perm == nil {
			if solve != natural {
				t.Errorf("%s: no view, but solve-space share %.3f vs natural %.3f", tc.name, solve, natural)
			}
			continue
		}
		if solve < natural {
			t.Errorf("%s: view %.0f %% grouped, natural order %.0f %%", tc.name, 100*solve, 100*natural)
		}
		n := tc.g.N()
		rng := rand.New(rand.NewSource(3))
		for _, k := range []int{1, 4, 8} {
			r := meanFree(rng, n*k)
			rv := gatherBlock(r, perm, k)
			want, got := make([]float64, n*k), make([]float64, n*k)
			h.ApplyBlock(want, r, k)
			ms.(solver.BlockApplier).ApplyBlock(got, rv, k)
			sameBlock(t, tc.name+" view apply", got, want, perm, k)
			tc.g.LapMulBlock(want, r, k)
			gs.LapMulBlock(got, rv, k)
			sameBlock(t, tc.name+" view matvec", got, want, perm, k)
		}
	}
}

// gatherBlock returns the packed width-k block x renumbered into a layout
// view: row i is row perm[i] of x.
func gatherBlock(x []float64, perm []int32, k int) []float64 {
	out := make([]float64, len(x))
	for i, v := range perm {
		copy(out[i*k:i*k+k], x[int(v)*k:int(v)*k+k])
	}
	return out
}

// sameBlock fails unless row i of the view's block got is row perm[i] of the
// natural block want, bit for bit.
func sameBlock(t *testing.T, what string, got, want []float64, perm []int32, k int) {
	t.Helper()
	for i, v := range perm {
		for j := 0; j < k; j++ {
			if g, w := got[i*k+j], want[int(v)*k+j]; math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("%s k=%d: row %d column %d = %v, natural row %d = %v", what, k, i, j, g, v, w)
			}
		}
	}
}

// attemptSpace runs one traced block solve and returns the space its attempt
// span names.
func attemptSpace(t *testing.T, eng *solver.Engine, bs [][]float64) ([]solver.Result, string) {
	t.Helper()
	tr := obs.NewTracer()
	res, err := eng.SolveBlock(obs.WithTracer(context.Background(), tr), bs, solver.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range tr.Spans() {
		if s.Name == "solve/attempt" {
			space, _ := spanArgs(s)["space"].(string)
			return res, space
		}
	}
	t.Fatal("no solve/attempt span")
	return res, ""
}

// opaqueLap is g's Laplacian behind a type the solver cannot renumber: the
// same matvec at every width — the row loop at k = 1, the column tiles above —
// in the caller's numbering.
type opaqueLap struct{ g *graph.Graph }

func (o opaqueLap) Dim() int                           { return o.g.N() }
func (o opaqueLap) Apply(dst, x []float64)             { o.g.LapMul(dst, x) }
func (o opaqueLap) ApplyBlock(dst, x []float64, k int) { o.g.LapMulBlock(dst, x, k) }

// TestLayoutSolveMatchesNatural: a solve of 1, 4 or 8 columns that runs in the
// layout view takes, column by column, the iterations the same block solve
// takes in the caller's numbering, and lands near its iterate: within 1e-12 at
// k = 1, within 1e-10 — the bound a block column is held to against its solo
// solve — above. Only the dot products and the mean projection sum in another
// order, but the column tiles round each row as wsum·x_v − Σw·x_u, against
// Σw·(x_v − x_u) at k = 1, and carry a rounding difference much further: one
// ulp of b moves an OCT 24³ iterate 1e-16 at k = 1 and 1e-14 at k = 4. OCT and
// random trees land 1e-12 to 2e-11 apart, FE meshes, roads and grids below
// 3e-14. The natural twin runs
// through an operator the driver cannot renumber; the attempt span says which
// space each used. A -race build, whose kernels run ten times
// slower, keeps to the families' test-sized members.
func TestLayoutSolveMatchesNatural(t *testing.T) {
	for _, tc := range cycleTableCorpus(t) {
		if raceBuild && tc.g.N() > 10000 {
			continue
		}
		h, err := New(tc.g, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		n := tc.g.N()
		layout, err := solver.NewEngine(solver.LapOperator(tc.g), h, solver.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		natural, err := solver.NewEngine(opaqueLap{tc.g}, h, solver.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		perm, _, _ := h.SolveSpace(tc.g)
		wantSpace := "natural"
		if perm != nil {
			wantSpace = "layout"
		}
		rng := rand.New(rand.NewSource(11))
		for _, k := range []int{1, 4, 8} {
			tol := 1e-12
			if k > 1 {
				tol = 1e-10
			}
			bs := make([][]float64, k)
			for j := range bs {
				bs[j] = meanFree(rng, n)
			}
			nat, space := attemptSpace(t, natural, bs)
			if space != "natural" {
				t.Fatalf("%s k=%d: opaque operator solved in space %q", tc.name, k, space)
			}
			xNat := make([][]float64, k)
			for j := range nat {
				xNat[j] = append([]float64(nil), nat[j].X...)
			}
			got, space := attemptSpace(t, layout, bs)
			if space != wantSpace {
				t.Errorf("%s k=%d: solved in space %q, want %q", tc.name, k, space, wantSpace)
			}
			for j := range got {
				if got[j].Iterations != nat[j].Iterations || got[j].Outcome != nat[j].Outcome {
					t.Errorf("%s k=%d column %d: %d iterations (%v) in space %s, %d (%v) natural", tc.name, k, j,
						got[j].Iterations, got[j].Outcome, space, nat[j].Iterations, nat[j].Outcome)
				}
				diff, norm := 0.0, 0.0
				for v, xv := range xNat[j] {
					diff += (got[j].X[v] - xv) * (got[j].X[v] - xv)
					norm += xv * xv
				}
				if math.Sqrt(diff) > tol*math.Sqrt(norm) {
					t.Errorf("%s k=%d column %d: ‖x − x_nat‖ = %.3g, ‖x_nat‖ = %.3g", tc.name, k, j, math.Sqrt(diff), math.Sqrt(norm))
				}
			}
		}
	}
}

// TestLayoutViewConcurrentFirstSolvesDeterministic: two engines on one fresh
// hierarchy whose first solves start together both build — one of them — the
// layout view, and both return the iterate a later solve on a third engine
// returns, bit for bit. Under -race it holds the view's one-time build and its
// shared work pool to the hierarchy's concurrency contract.
func TestLayoutViewConcurrentFirstSolvesDeterministic(t *testing.T) {
	g, err := workload.FEMesh(32, 32, -1, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	h, err := New(g, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if h.view.Load() != nil {
		t.Fatal("view built before any solve")
	}
	b := meanFree(rand.New(rand.NewSource(5)), g.N())
	xs := make([][]float64, 2)
	var start, done sync.WaitGroup
	start.Add(1)
	for i := range xs {
		eng, err := solver.NewEngine(solver.LapOperator(g), h, solver.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		done.Add(1)
		go func() {
			defer done.Done()
			start.Wait()
			res, err := eng.Solve(context.Background(), b)
			if err != nil || !res.Converged {
				t.Errorf("engine %d: %v, %v", i, err, res.Outcome)
				return
			}
			xs[i] = append([]float64(nil), res.X...)
		}()
	}
	start.Done()
	done.Wait()
	if h.view.Load() == nil {
		t.Fatal("no view after the first solves")
	}
	eng, err := solver.NewEngine(solver.LapOperator(g), h, solver.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	want, err := eng.Solve(context.Background(), b)
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range xs {
		for v := range x {
			if math.Float64bits(x[v]) != math.Float64bits(want.X[v]) {
				t.Fatalf("engine %d: x[%d] = %v, a later solve gives %v", i, v, x[v], want.X[v])
			}
		}
	}
}

// TestLayoutSolveWarmAllocs: a warm engine's solve through the layout view,
// of one column or of eight, allocates no work buffer
// (Metrics.ScratchAllocs, the benchmark's solver.allocs_per_solve) — the view
// is built by the first solve and its applies take their buffers from the
// hierarchy's pool — and no more heap objects than the same solve in the
// caller's numbering.
func TestLayoutSolveWarmAllocs(t *testing.T) {
	g, err := workload.FEMesh(32, 32, -1, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	h, err := New(g, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	layout, err := solver.NewEngine(solver.LapOperator(g), h, solver.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	natural, err := solver.NewEngine(opaqueLap{g}, h, solver.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for _, k := range []int{1, 8} {
		bs := make([][]float64, k)
		for j := range bs {
			bs[j] = meanFree(rng, g.N())
		}
		solve := func(eng *solver.Engine) []solver.Result {
			if k == 1 {
				res, err := eng.Solve(context.Background(), bs[0])
				if err != nil {
					t.Fatal(err)
				}
				return []solver.Result{res}
			}
			res, err := eng.SolveBlock(context.Background(), bs, solver.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		allocs := make([]float64, 2)
		for i, eng := range []*solver.Engine{layout, natural} {
			solve(eng)
			allocs[i] = testing.AllocsPerRun(10, func() {
				for j, res := range solve(eng) {
					if !res.Converged {
						t.Fatalf("k=%d: warm solve failed in column %d", k, j)
					}
					if res.Metrics.ScratchAllocs != 0 {
						t.Fatalf("k=%d: warm solve allocated %d work buffers", k, res.Metrics.ScratchAllocs)
					}
				}
			})
		}
		if h.view.Load() == nil {
			t.Fatal("the FE mesh solved without a layout view")
		}
		if allocs[0] > allocs[1] && !raceBuild {
			t.Errorf("k=%d: warm layout solve allocates %v objects per run, the natural one %v", k, allocs[0], allocs[1])
		}
		t.Logf("k=%d: %v objects per warm layout solve, %v natural", k, allocs[0], allocs[1])
	}
}

// TestMemoryBytesCountsLayoutView: once the view exists MemoryBytes grows by
// exactly its arrays — renumbered graph, diagonal, assignment, member order
// and permutation — and by nothing while it does not.
func TestMemoryBytesCountsLayoutView(t *testing.T) {
	for _, tc := range coarseCorpus(t, false) {
		h, err := New(tc.g, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		before := h.MemoryBytes()
		v := h.layoutView()
		grown := h.MemoryBytes() - before
		if v == nil {
			if grown != 0 {
				t.Errorf("%s: no view, MemoryBytes grew by %d", tc.name, grown)
			}
			continue
		}
		l := v.h.levels[0]
		held := graphCapBytes(l.g) + 8*int64(cap(l.dInv)) + 4*int64(cap(l.assign)+cap(l.order)+cap(v.perm))
		if table := l.g.Bytes() - graphCapBytes(l.g); table < 0 || table > 12*int64(l.g.N()/16+1) {
			t.Errorf("%s: view graph accounts %d bytes of row-group table", tc.name, table)
		} else {
			held += table
		}
		if grown != held {
			t.Errorf("%s: MemoryBytes grew by %d with the view, its arrays hold %d", tc.name, grown, held)
		}
	}
}
