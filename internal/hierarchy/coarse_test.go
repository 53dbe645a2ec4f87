package hierarchy

import (
	"context"
	"fmt"
	"testing"

	"hcd/internal/graph"
	"hcd/internal/obs"
	"hcd/internal/workload"
)

type namedGraph struct {
	name string
	g    *graph.Graph
}

func femesh64(tb testing.TB) *graph.Graph {
	tb.Helper()
	g, err := workload.FEMesh(64, 64, -1, nil, 1)
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

func grid3d64() *graph.Graph {
	return workload.Grid3D(64, 64, 64, workload.Lognormal(1), 1)
}

// coarseCorpus is the set of graphs whose coarse solves the benchmark
// workloads run: block-femesh2d's mesh, serve-mixed's grid2d:64, road:48 and
// grid3d:16 and, when large, build-grid3d's lognormal grid and solve-oct3d's
// OCT volume.
func coarseCorpus(tb testing.TB, large bool) []namedGraph {
	tb.Helper()
	road, err := workload.RoadNetwork(48, 48, 12, workload.Lognormal(0.5), 1)
	if err != nil {
		tb.Fatal(err)
	}
	out := []namedGraph{
		{"femesh:64", femesh64(tb)},
		{"grid2d:64", workload.Grid2D(64, 64, workload.Lognormal(1), 1)},
		{"road:48", road},
		{"grid3d:16", workload.Grid3D(16, 16, 16, workload.Lognormal(1), 1)},
	}
	if large {
		out = append(out,
			namedGraph{"grid3d:64", grid3d64()},
			namedGraph{"oct:64", workload.OCT3D(64, 64, 64, workload.DefaultOCTOptions())})
	}
	return out
}

// TestCoarseFillTable regenerates DESIGN.md §12's fill table (run with -v)
// and holds its point: on every benchmark graph the sparse coarse factor is
// several times smaller than the dense triangle it replaced, and the byte
// accounting charges that factor, not n² floats.
func TestCoarseFillTable(t *testing.T) {
	t.Logf("%-10s %7s %10s %10s %7s %6s", "graph", "coarse", "dense nnz", "sparse nnz", "ratio", "fill")
	for _, tc := range coarseCorpus(t, !testing.Short()) {
		h, err := New(tc.g, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		cn := h.CoarseSize()
		nf := cn - 1
		denseNNZ := nf * (nf + 1) / 2
		nnz := h.coarse.NNZ()
		t.Logf("%-10s %7d %10d %10d %6.1f× %6.2f", tc.name, cn, denseNNZ, nnz, float64(denseNNZ)/float64(nnz), h.coarse.Fill())
		if 2*nnz > denseNNZ {
			t.Errorf("%s: sparse factor holds %d entries, the dense triangle %d", tc.name, nnz, denseNNZ)
		}
		if h.coarse.Bytes() > 8*int64(cn)*int64(cn)/4 {
			t.Errorf("%s: factor accounts %d bytes, the dense matrix was %d", tc.name, h.coarse.Bytes(), 8*cn*cn)
		}
	}
}

// TestBuildSpanExplainsCoarseFactor: a traced build says how large and how
// filled the coarse factor is and how long ordering + factorization took; a
// traced Rebuild times the factorization the same way.
func TestBuildSpanExplainsCoarseFactor(t *testing.T) {
	g := workload.Grid3D(12, 12, 12, workload.Lognormal(1), 1)
	tr := obs.NewTracer()
	ctx := obs.WithTracer(context.Background(), tr)
	h, err := NewCtx(ctx, g, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	levels, smooth := h.DumpLevels()
	if _, err := Rebuild(ctx, g, levels, smooth); err != nil {
		t.Fatal(err)
	}
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
	var build obs.SpanInfo
	factorSpans := 0
	for _, s := range tr.Spans() {
		switch s.Name {
		case "hierarchy/build":
			build = s
		case "hierarchy/coarse-factor":
			factorSpans++
			if factorSpans == 1 && s.Parent != build.ID {
				t.Errorf("coarse-factor span parented by %d, want the build span %d", s.Parent, build.ID)
			}
		}
	}
	if factorSpans != 2 {
		t.Errorf("%d hierarchy/coarse-factor spans, want one per build and rebuild", factorSpans)
	}
	args := map[string]any{}
	for _, a := range build.Args {
		args[a.Key] = a.Value
	}
	if args["coarse_size"] != h.CoarseSize() || args["coarse_nnz"] != h.coarse.NNZ() || args["coarse_fill"] != h.coarse.Fill() {
		t.Errorf("build span args %v, want coarse_size %d, coarse_nnz %d, coarse_fill %v",
			args, h.CoarseSize(), h.coarse.NNZ(), h.coarse.Fill())
	}
}

// BenchmarkCoarseFactor times ordering + structure + numeric factorization
// of a built hierarchy's coarsest graph.
func BenchmarkCoarseFactor(b *testing.B) {
	for _, tc := range coarseBenchGraphs(b) {
		b.Run(tc.name, func(b *testing.B) {
			var h *Hierarchy
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				h = factorOnly(b, tc.g)
			}
			b.ReportMetric(float64(h.coarse.NNZ()), "nnz")
		})
	}
}

// BenchmarkCoarseSolve times the coarse direct solve alone at the widths the
// V-cycle calls it with; at k = 4 and 8, whose columns go through the kernel
// layer's factor tile, in its Go form and in the one this process runs.
func BenchmarkCoarseSolve(b *testing.B) {
	for _, tc := range coarseBenchGraphs(b) {
		h := factorOnly(b, tc.g)
		n := tc.g.N()
		for _, k := range []int{1, 4, 8} {
			for i, body := range bodies {
				if i > 0 && (body.name == "go" || k == 1) {
					continue // one form to time: no AVX2, or no tile at k = 1
				}
				name := fmt.Sprintf("%s/k=%d", tc.name, k)
				if k > 1 {
					name += "/" + body.name
				}
				b.Run(name, func(b *testing.B) {
					r := make([]float64, n*k)
					for j := 0; j < k; j++ {
						r[j*k+j], r[(n-1-j)*k+j] = 1, -1
					}
					dst := make([]float64, n*k)
					body.run(func() {
						b.ResetTimer()
						for i := 0; i < b.N; i++ {
							h.coarse.SolveBlock(dst, r, k)
						}
					})
				})
			}
		}
	}
}

// factorOnly returns the depth-0 hierarchy of g: its coarse factor and
// nothing else.
func factorOnly(b *testing.B, g *graph.Graph) *Hierarchy {
	h, err := newAssembler(context.Background(), false).finish(g)
	if err != nil {
		b.Fatal(err)
	}
	return h
}

// coarseBenchGraphs returns the coarsest graphs of block-femesh2d's and
// build-grid3d's hierarchies.
func coarseBenchGraphs(b *testing.B) []namedGraph {
	b.Helper()
	out := []namedGraph{{"femesh:64", femesh64(b)}, {"grid3d:64", grid3d64()}}
	for i := range out {
		h, err := New(out[i].g, DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		out[i].g = h.coarseG
	}
	return out
}
