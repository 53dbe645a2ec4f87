// Benchmarks regenerating the paper's evaluation artifacts; the mapping to
// tables/figures lives in DESIGN.md §4 and the measured numbers in
// EXPERIMENTS.md. `go test -bench=. -benchmem` runs everything;
// cmd/hcd-experiments prints the full row/series form.
package hcd_test

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"hcd"
	"hcd/internal/cli"
)

func benchRHS(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	b := make([]float64, n)
	s := 0.0
	for i := range b {
		b[i] = rng.NormFloat64()
		s += b[i]
	}
	for i := range b {
		b[i] -= s / float64(n)
	}
	return b
}

// fig6Graph is the Figure 6 instance: a weighted 3D grid with large local
// and global weight variation (the paper's OCT-derived regime).
func fig6Graph() *hcd.Graph {
	return hcd.OCT3D(20, 20, 20, hcd.DefaultOCTOptions())
}

// E1 / Figure 6: Steiner-preconditioned PCG solve.
func BenchmarkFig6SteinerPCG(b *testing.B) {
	g := fig6Graph()
	d := fixedDegree(b, g, 4, 1)
	p, err := hcd.NewSteinerPreconditioner(d)
	if err != nil {
		b.Fatal(err)
	}
	rhs := benchRHS(g.N(), 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := hcd.SolvePCGCtx(context.Background(), g, rhs, p, hcd.DefaultSolveOptions())
		if err != nil || !res.Converged {
			b.Fatal("not converged")
		}
	}
}

// E1 / Figure 6: subgraph-preconditioned PCG solve (the baseline curve).
func BenchmarkFig6SubgraphPCG(b *testing.B) {
	g := fig6Graph()
	opt := hcd.DefaultPlanarOptions()
	opt.ExtraFraction = 0.12
	sub, err := hcd.NewSubgraphPreconditioner(g, opt)
	if err != nil {
		b.Fatal(err)
	}
	rhs := benchRHS(g.N(), 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := hcd.SolvePCGCtx(context.Background(), g, rhs, sub.P, hcd.DefaultSolveOptions())
		if err != nil || !res.Converged {
			b.Fatal("not converged")
		}
	}
}

// E2 / Remark 1: parallel clustering construction vs maximum-weight
// spanning tree construction on a weighted 3D grid. cmd/hcd-experiments
// runs the paper's full 10⁶-vertex instance; the benchmark uses 40³.
func BenchmarkRemark1Clustering(b *testing.B) {
	g := hcd.Grid3D(40, 40, 40, hcd.LognormalWeights(1), 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fixedDegree(b, g, 4, 1)
	}
}

func BenchmarkRemark1MaxSpanningTree(b *testing.B) {
	g := hcd.Grid3D(40, 40, 40, hcd.LognormalWeights(1), 1)
	opt := hcd.DefaultDecomposeOptions(hcd.MethodPlanar)
	opt.ExtraFraction = 0 // bare spanning tree, as in the paper's comparison
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		decompose(b, g, opt)
	}
}

// E3 / Theorem 2.1: tree decomposition throughput.
func BenchmarkTreeDecomposition100k(b *testing.B) {
	g := hcd.RandomTree(100000, hcd.UniformWeights(0.1, 10), 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		decompose(b, g, hcd.DecomposeOptions{Method: hcd.MethodTree})
	}
}

// E4 / Theorem 2.2: full planar pipeline.
func BenchmarkPlanarDecomposition(b *testing.B) {
	g := hcd.PlanarMesh(100, 100, hcd.LognormalWeights(1), 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		decompose(b, g, hcd.DefaultDecomposeOptions(hcd.MethodPlanar))
	}
}

// E5 / Theorem 3.5: support-number measurement cost.
func BenchmarkTheorem35SupportProbe(b *testing.B) {
	g := hcd.Grid3D(12, 12, 12, hcd.LognormalWeights(1), 1)
	d := fixedDegree(b, g, 4, 1)
	p, err := hcd.NewSteinerPreconditioner(d)
	if err != nil {
		b.Fatal(err)
	}
	rhs := benchRHS(g.N(), 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hcd.MeasureSupport(g, p, rhs, 60); err != nil {
			b.Fatal(err)
		}
	}
}

// E6 / Theorem 4.1: eigenpair computation + cluster alignment.
func BenchmarkSpectralAlignment(b *testing.B) {
	g := hcd.Grid2D(40, 40, hcd.LognormalWeights(1), 1)
	d := fixedDegree(b, g, 4, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, vecs, err := hcd.SmallestEigenpairs(g, 3, 60, 1)
		if err != nil {
			b.Fatal(err)
		}
		for _, v := range vecs {
			_ = hcd.Alignment(d, v)
		}
	}
}

// E7 / A3: cluster-size cap sweep of the Section 3.1 clustering.
func BenchmarkFixedDegreeK2(b *testing.B) { benchFixedDegree(b, 2) }
func BenchmarkFixedDegreeK4(b *testing.B) { benchFixedDegree(b, 4) }
func BenchmarkFixedDegreeK8(b *testing.B) { benchFixedDegree(b, 8) }

func benchFixedDegree(b *testing.B, k int) {
	g := hcd.Grid3D(24, 24, 24, hcd.LognormalWeights(1), 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fixedDegree(b, g, k, 1)
	}
}

// E8: multilevel Steiner hierarchy — build and full solve.
func BenchmarkHierarchyBuild(b *testing.B) {
	g := hcd.OCT3D(20, 20, 20, hcd.DefaultOCTOptions())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hcd.NewHierarchyCtx(context.Background(), g, hcd.DefaultHierarchyOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkContract times the quotient construction Q = RᵀAR alone, level by
// level down a hierarchy build on build-grid3d's graph (64³ lognormal grid):
// each level's graph, in natural numbering, contracted under its own §3.1
// clustering at the default size cap and seed + level, as the build does.
// ns/half-edge divides by the level graph's stored entries.
func BenchmarkContract(b *testing.B) {
	cur := hcd.Grid3D(64, 64, 64, hcd.LognormalWeights(1), 1)
	opt := hcd.DefaultHierarchyOptions()
	for level := 0; level < 5; level++ {
		g, d := cur, fixedDegree(b, cur, opt.SizeCap, opt.Seed+int64(level))
		b.Run(fmt.Sprintf("level=%d", level), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if q := g.Contract(d.Assign, d.Count); q.N() != d.Count {
					b.Fatalf("quotient has %d vertices, want %d", q.N(), d.Count)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(2*g.M()), "ns/half-edge")
		})
		cur = g.Contract(d.Assign, d.Count)
	}
}

func BenchmarkHierarchySolveOCT(b *testing.B) {
	g := hcd.OCT3D(20, 20, 20, hcd.DefaultOCTOptions())
	h, err := hcd.NewHierarchyCtx(context.Background(), g, hcd.DefaultHierarchyOptions())
	if err != nil {
		b.Fatal(err)
	}
	rhs := benchRHS(g.N(), 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := hcd.SolvePCGCtx(context.Background(), g, rhs, h, hcd.DefaultSolveOptions())
		if err != nil || !res.Converged {
			b.Fatal("not converged")
		}
	}
}

// E9 / Theorem 2.3: minor-free pipeline on a low-stretch base tree.
func BenchmarkMinorFreeDecomposition(b *testing.B) {
	g := hcd.Grid2D(80, 80, hcd.LognormalWeights(1.5), 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		decompose(b, g, hcd.DefaultDecomposeOptions(hcd.MethodMinorFree))
	}
}

// P1: parallel solver engine — row-blocked Laplacian matvec vs the serial
// reference on a ≥100k-vertex 3D grid, across worker counts. The parallel
// path falls back to the serial loop when GOMAXPROCS is 1, so the
// gomaxprocs-1 case measures the fallback's overhead (≈ none).
func matvecGraph() *hcd.Graph {
	return hcd.Grid3D(48, 48, 48, hcd.LognormalWeights(1), 1) // n = 110592
}

func BenchmarkParallelMatvec(b *testing.B) {
	g := matvecGraph()
	x := benchRHS(g.N(), 1)
	dst := make([]float64, g.N())
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g.LapMulSerial(dst, x)
		}
	})
	for _, procs := range []int{1, 2, runtime.NumCPU()} {
		b.Run(fmt.Sprintf("gomaxprocs-%d", procs), func(b *testing.B) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.LapMul(dst, x)
			}
		})
	}
}

// P2: Jacobi-PCG on the 100k-vertex grid, fixed 60-iteration work unit, at
// 1, 2, and all cores. All level-1 kernels and the matvec route through the
// parallel engine; the speedup over gomaxprocs-1 is the engine's scaling.
func benchPCGCores(b *testing.B, procs int) {
	g := matvecGraph()
	rhs := benchRHS(g.N(), 2)
	opt := hcd.DefaultSolveOptions()
	opt.Tol = 1e-30 // unreachable: fixed 60-iteration work unit
	opt.MaxIter = 60
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	m := hcd.JacobiPreconditioner(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := hcd.SolvePCGCtx(context.Background(), g, rhs, m, opt)
		if err != nil {
			b.Fatal(err)
		}
		if res.Iterations != 60 {
			b.Fatalf("expected 60 iterations, ran %d (%v)", res.Iterations, res.Outcome)
		}
	}
}

func BenchmarkPCGGrid100k1Core(b *testing.B)  { benchPCGCores(b, 1) }
func BenchmarkPCGGrid100k2Cores(b *testing.B) { benchPCGCores(b, 2) }
func BenchmarkPCGGrid100kAllCores(b *testing.B) {
	benchPCGCores(b, runtime.NumCPU())
}

// P3: warm engine solves allocate nothing (b.ReportAllocs shows 0 allocs/op
// once the first solve has sized the scratch buffers).
func BenchmarkEngineWarmSolves(b *testing.B) {
	g := hcd.Grid2D(64, 64, hcd.LognormalWeights(1), 1)
	eng, err := hcd.NewEngine(g, hcd.JacobiPreconditioner(g), hcd.DefaultSolveOptions())
	if err != nil {
		b.Fatal(err)
	}
	rhs := benchRHS(g.N(), 3)
	if _, err := eng.Solve(nil, rhs); err != nil { // warm up the buffers
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := eng.Solve(nil, rhs)
		if err != nil || !res.Converged {
			b.Fatal("warm solve failed")
		}
	}
}

// P9: multi-RHS throughput of the block PCG path — one SpMM traversal and
// one block V-cycle serve all k columns per iteration — against k sequential
// warm-engine solves on the same hierarchy. Pinned to GOMAXPROCS=1 so the
// measured win is traversal fusion, not parallelism; compare the rhs/sec
// metric across k.
func BenchmarkBlockSolve(b *testing.B) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	g := hcd.Grid3D(32, 32, 32, hcd.LognormalWeights(1), 1)
	h, err := hcd.NewHierarchyCtx(context.Background(), g, hcd.DefaultHierarchyOptions())
	if err != nil {
		b.Fatal(err)
	}
	eng, err := hcd.NewEngine(g, h, hcd.DefaultSolveOptions())
	if err != nil {
		b.Fatal(err)
	}
	makeB := func(k int) [][]float64 {
		B := make([][]float64, k)
		for i := range B {
			B[i] = benchRHS(g.N(), int64(i+1))
		}
		return B
	}
	for _, k := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("block/k=%d", k), func(b *testing.B) {
			B := makeB(k)
			req := hcd.SolveRequest{B: B, Engine: eng}
			if _, err := hcd.Do(context.Background(), g, req); err != nil {
				b.Fatal(err) // warm up the block scratch
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				resp, err := hcd.Do(context.Background(), g, req)
				if err != nil {
					b.Fatal(err)
				}
				for _, r := range resp.Results {
					if !r.Converged {
						b.Fatal("block solve did not converge")
					}
				}
			}
			b.ReportMetric(float64(k*b.N)/b.Elapsed().Seconds(), "rhs/sec")
		})
	}
	b.Run("seq/k=16", func(b *testing.B) {
		B := makeB(16)
		if _, err := eng.Solve(nil, B[0]); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, col := range B {
				res, serr := eng.Solve(nil, col)
				if serr != nil || !res.Converged {
					b.Fatal("sequential solve failed")
				}
			}
		}
		b.ReportMetric(float64(16*b.N)/b.Elapsed().Seconds(), "rhs/sec")
	})
}

// BenchmarkSolveWidths: warm Engine solves under the default hierarchy, one
// worker, at the widths the column tiles split differently — 1, 2 and 3 run
// only the width-1 loops, 4 and 8 only tiles — on femesh:64 and grid3d:16,
// and at k ∈ {1, 3} on oct:32; allocs/op must read 0. To compare two commits,
// run it in each checkout in turn, five pairs or more, with
// `go test -run '^$' -bench SolveWidths -benchmem .`.
func BenchmarkSolveWidths(b *testing.B) {
	ctx := context.Background()
	for _, c := range []struct {
		spec string
		ks   []int
	}{{"femesh:64", []int{1, 2, 3, 4, 8}}, {"grid3d:16", []int{1, 2, 3, 4, 8}}, {"oct:32", []int{1, 3}}} {
		g, err := cli.BuildGraph(c.spec, 1)
		if err != nil {
			b.Fatal(err)
		}
		h, err := hcd.NewHierarchyCtx(ctx, g, hcd.DefaultHierarchyOptions())
		if err != nil {
			b.Fatal(err)
		}
		eng, err := hcd.NewEngine(g, h, hcd.DefaultSolveOptions())
		if err != nil {
			b.Fatal(err)
		}
		for _, k := range c.ks {
			bs := make([][]float64, k)
			for j := range bs {
				bs[j] = benchRHS(g.N(), int64(j+1))
			}
			b.Run(fmt.Sprintf("%s/k=%d", c.spec, k), func(b *testing.B) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // the framework sets -cpu's count per run
				if _, err := eng.SolveBlock(ctx, bs, hcd.DefaultSolveOptions()); err != nil {
					b.Fatal(err) // the first solve at this width sizes the buffers
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res, err := eng.SolveBlock(ctx, bs, hcd.DefaultSolveOptions())
					if err != nil || !res[0].Converged {
						b.Fatal("warm solve failed")
					}
				}
			})
		}
	}
}

// P4: decomposition quality measurement — the parallel per-cluster fan-out
// of Evaluate against the sequential reference on a 3D lognormal grid
// (~3.5k clusters). On multi-core machines the parallel path should win;
// results are bit-identical either way.
func BenchmarkEvaluate(b *testing.B) {
	g := hcd.Grid3D(24, 24, 24, hcd.LognormalWeights(1), 1)
	d := fixedDegree(b, g, 4, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = hcd.Evaluate(d)
	}
}

// P4: unified decomposition pipeline end to end through DecomposeCtx,
// including the evaluate stage — what one `DecomposeCtx` call costs per
// method on a 3D lognormal grid.
func benchDecomposePipeline(b *testing.B, method hcd.DecomposeMethod, side int) {
	g := hcd.Grid3D(side, side, side, hcd.LognormalWeights(1), 1)
	opt := hcd.DefaultDecomposeOptions(method)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := hcd.DecomposeCtx(ctx, g, opt)
		if err != nil {
			b.Fatal(err)
		}
		if res.Report.Count == 0 {
			b.Fatal("no report")
		}
	}
}

func BenchmarkDecomposePipelineFixedDegree(b *testing.B) {
	benchDecomposePipeline(b, hcd.MethodFixedDegree, 24)
}

func BenchmarkDecomposePipelinePlanar(b *testing.B) {
	benchDecomposePipeline(b, hcd.MethodPlanar, 16)
}

// A1: base-tree ablation inside the Theorem 2.2 pipeline.
func BenchmarkPlanarMaxWeightBase(b *testing.B)  { benchPlanarBase(b, hcd.MaxWeightTree) }
func BenchmarkPlanarLowStretchBase(b *testing.B) { benchPlanarBase(b, hcd.LowStretchTree) }

func benchPlanarBase(b *testing.B, base hcd.BaseTree) {
	g := hcd.PlanarMesh(60, 60, hcd.LognormalWeights(1), 1)
	opt := hcd.DefaultDecomposeOptions(hcd.MethodPlanar)
	opt.Base = base
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		decompose(b, g, opt)
	}
}
