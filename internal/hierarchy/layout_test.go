package hierarchy

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"hcd/internal/graph"
	"hcd/internal/obs"
	"hcd/internal/workload"
)

// graphCapBytes is the heap a graph's CSR arrays actually hold: 8-byte
// offsets, weights and volumes, 4-byte neighbor ids.
func graphCapBytes(g *graph.Graph) int64 {
	off, adj, w := g.CompactCSR()
	return 8*int64(cap(off)+cap(w)+g.N()) + 4*int64(cap(adj))
}

// TestMemoryBytesMatchesArrays: MemoryBytes — the figure the serving layer's
// LRU budget evicts on — is the capacity of the arrays the hierarchy keeps,
// to within 1 %.
func TestMemoryBytesMatchesArrays(t *testing.T) {
	for _, tc := range coarseCorpus(t, false) {
		h, err := New(tc.g, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		held := graphCapBytes(h.coarseG) + h.coarse.Bytes()
		for level, l := range h.levels {
			// Quotients come from Contract, which allocates their arrays
			// at exact length, and are laid out in them: accounted and
			// held agree to the byte, but for the row-group table the graph also
			// accounts — 12 bytes a segment, at most two segments per 32
			// rows and one more.
			table := l.g.Bytes() - graphCapBytes(l.g)
			if level > 0 && (table < 0 || table > 12*int64(l.g.N()/16+1)) {
				t.Errorf("%s level %d: graph accounts %d bytes, its CSR arrays hold %d", tc.name, level, l.g.Bytes(), graphCapBytes(l.g))
			}
			held += graphCapBytes(l.g) + table
			held += 8 * int64(cap(l.dInv)+cap(l.natAssign)+3) // +3: the level's gamma, alpha and visits
			held += 4 * int64(cap(l.assign)+cap(l.order)+cap(l.start))
		}
		got := h.MemoryBytes()
		if d := math.Abs(float64(got - held)); d > 0.01*float64(held) {
			t.Errorf("%s: MemoryBytes %d, arrays hold %d", tc.name, got, held)
		}
	}
}

// naturalLevels recontracts a hierarchy's level graphs in natural numbering
// from its dumped assignments, finest first.
func naturalLevels(g *graph.Graph, h *Hierarchy) []*graph.Graph {
	dumped, _ := h.DumpLevels()
	out := make([]*graph.Graph, 0, len(dumped))
	for _, la := range dumped {
		out = append(out, g)
		g = g.Contract(la.Assign, la.Count)
	}
	return out
}

func distinctDegrees(g *graph.Graph) int {
	seen := map[int]bool{}
	for v := 0; v < g.N(); v++ {
		seen[g.Degree(v)] = true
	}
	return len(seen)
}

// tracedBuildAndRebuild builds g's default hierarchy under a tracer, then
// rebuilds it from its dumped levels under a span named "restore", and
// returns the hierarchy with the checked trace.
func tracedBuildAndRebuild(t *testing.T, g *graph.Graph) (*Hierarchy, *obs.Tracer) {
	t.Helper()
	tr := obs.NewTracer()
	ctx := obs.WithTracer(context.Background(), tr)
	h, err := NewCtx(ctx, g, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	levels, smooth := h.DumpLevels()
	rctx, rsp := obs.StartSpan(ctx, "restore")
	if _, err := Rebuild(rctx, g, levels, smooth); err != nil {
		t.Fatal(err)
	}
	rsp.End()
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
	return h, tr
}

func spanArgs(s obs.SpanInfo) map[string]any {
	args := map[string]any{}
	for _, a := range s.Args {
		args[a.Key] = a.Value
	}
	return args
}

// TestBuildSpanExplainsLayout: a traced build and a traced Rebuild each emit
// one hierarchy/layout span per level below the finest — parented by the
// build span, or by whatever span the rebuild runs under — whose args say how large the level is and how many
// runs of equal row length its stored order has — at most one per degree per
// window, far fewer than the natural numbering's.
func TestBuildSpanExplainsLayout(t *testing.T) {
	g := workload.OCT3D(32, 32, 32, workload.DefaultOCTOptions())
	h, tr := tracedBuildAndRebuild(t, g)
	natural := naturalLevels(g, h)
	parents := map[string]uint64{}
	seen := map[string]int{}
	for _, s := range tr.Spans() {
		switch s.Name {
		case "hierarchy/build", "restore":
			parents[s.Name] = s.ID
		case "hierarchy/layout":
			args := spanArgs(s)
			level, _ := args["level"].(int)
			if level < 1 || level >= h.Depth() {
				t.Fatalf("layout span for level %v of a depth-%d hierarchy", args["level"], h.Depth())
			}
			var under string
			for name, id := range parents {
				if id == s.Parent {
					under = name
				}
			}
			if under == "" {
				t.Errorf("layout span of level %d parented by %d, want the build span or the rebuild's caller", level, s.Parent)
			}
			seen[under]++
			lg := h.levels[level].g
			if args["vertices"] != lg.N() || args["max_degree"] != lg.MaxDegree() || args["degree_runs"] != degreeRuns(lg) {
				t.Errorf("level %d span args %v, want vertices %d, max_degree %d, degree_runs %d",
					level, args, lg.N(), lg.MaxDegree(), degreeRuns(lg))
			}
			windows := (lg.N() + layoutWindow - 1) / layoutWindow
			runs, nat := degreeRuns(lg), degreeRuns(natural[level])
			if runs > windows*distinctDegrees(lg) {
				t.Errorf("level %d: %d degree runs in %d windows of %d degrees", level, runs, windows, distinctDegrees(lg))
			}
			if lg.N() > 1000 && 4*runs > nat {
				t.Errorf("level %d: layout leaves %d degree runs, natural numbering has %d", level, runs, nat)
			}
		}
	}
	if want := h.Depth() - 1; seen["hierarchy/build"] != want || seen["restore"] != want {
		t.Errorf("layout spans per parent %v, want %d under each of build and rebuild", seen, want)
	}
}

// TestBuildSpansCoverBuild: a traced build says where its time went. Every
// level's quotient construction has a hierarchy/contract span — under the
// build span, and under whatever span a Rebuild runs in — whose args name the
// level, its size, its clusters and the quotient's edges; and the level,
// layout, contract and coarse-factor spans together cover at least 80 % of
// hierarchy/build.
func TestBuildSpansCoverBuild(t *testing.T) {
	h, tr := tracedBuildAndRebuild(t, workload.Grid3D(32, 32, 32, workload.Lognormal(1), 1))
	sizes := h.LevelSizes()
	quotientEdges := func(level int) int {
		if level+1 < h.Depth() {
			return h.levels[level+1].g.M()
		}
		return h.coarseG.M()
	}
	var build obs.SpanInfo
	parents := map[uint64]string{}
	contracts := map[string]int{}
	var covered time.Duration
	for _, s := range tr.Spans() {
		switch {
		case s.Name == "hierarchy/build":
			build = s
			parents[s.ID] = s.Name
		case s.Name == "restore":
			parents[s.ID] = s.Name
		case s.Name == "hierarchy/contract":
			args := spanArgs(s)
			level, ok := args["level"].(int)
			if !ok || level < 0 || level >= h.Depth() {
				t.Fatalf("contract span for level %v of a depth-%d hierarchy", args["level"], h.Depth())
			}
			if args["vertices"] != sizes[level] || args["clusters"] != sizes[level+1] || args["quotient_edges"] != quotientEdges(level) {
				t.Errorf("level %d contract span args %v, want vertices %d, clusters %d, quotient_edges %d",
					level, args, sizes[level], sizes[level+1], quotientEdges(level))
			}
			contracts[parents[s.Parent]]++
		}
		named := s.Name == "hierarchy/layout" || s.Name == "hierarchy/contract" || s.Name == "hierarchy/coarse-factor" ||
			strings.HasPrefix(s.Name, "hierarchy/level-")
		if named && s.Parent == build.ID {
			covered += s.Duration
		}
	}
	if contracts["hierarchy/build"] != h.Depth() || contracts["restore"] != h.Depth() {
		t.Errorf("contract spans per parent %v, want %d under each of build and rebuild", contracts, h.Depth())
	}
	if share := float64(covered) / float64(build.Duration); share < 0.8 {
		t.Errorf("level, layout, contract and coarse-factor spans cover %.0f %% of hierarchy/build (%v of %v), want ≥ 80 %%",
			100*share, covered, build.Duration)
	} else {
		t.Logf("child spans cover %.0f %% of hierarchy/build", 100*share)
	}
}

// ramp is a deterministic, non-constant test vector.
func ramp(n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = float64(i%97) * 0.01
	}
	return x
}

// timeLapMul returns the best-of-reps time of one LapMulSerial on g.
func timeLapMul(g *graph.Graph, reps int) time.Duration {
	x, dst := ramp(g.N()), make([]float64, g.N())
	best := time.Duration(math.MaxInt64)
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		g.LapMulSerial(dst, x)
		if d := time.Since(t0); d < best {
			best = d
		}
	}
	return best
}

// groupedShare returns the share of g's stored entries that lie in grouped
// rows of its row-group table, recomputed from the degrees by the table's
// rule (graph/rowgroups.go): a run of at least 32 rows of one degree ≥ 1 is
// grouped but for a tail of fewer than four rows. The table itself is not
// visible from here, but its size is — Bytes counts 12 bytes a segment — so a
// rule that has moved on from this copy fails the test instead of misreporting.
func groupedShare(tb testing.TB, g *graph.Graph) float64 {
	tb.Helper()
	entries, segments, ungrouped := 0, 0, false
	for v, n := 0, g.N(); v < n; {
		end := v + 1
		for end < n && g.Degree(end) == g.Degree(v) {
			end++
		}
		rows := 0
		if g.Degree(v) >= 1 && end-v >= 32 {
			rows = (end - v) &^ 3
			entries += rows * g.Degree(v)
			segments++
			ungrouped = false
		}
		if v+rows < end && !ungrouped {
			segments++
			ungrouped = true
		}
		v = end
	}
	if table := g.Bytes() - graphCapBytes(g); table != 12*int64(segments) {
		tb.Fatalf("the row-group rule copied here gives %d segments, the graph accounts %d bytes of table", segments, table)
	}
	return float64(entries) / float64(max(2*g.M(), 1))
}

// TestLayoutTable regenerates DESIGN.md §12's "Apply layout" table (run with
// -v): per level of each benchmark graph, the runs of equal row length and
// the share of the stored entries that the row-group table puts in groups of
// four rows, and the matvec cost per stored entry in natural numbering and in
// the apply layout; level 0 is stored in the caller's numbering, and its row
// "0v" is the layout view one-column solves run in, where there is one. The
// times are printed, not asserted; what is held is the layout's structure —
// every level below the finest has no more degree runs than (windows ×
// distinct degrees), and the same degree multiset and volume as its natural
// twin — and the view's point: FE mesh 64² and road 48² level 0 go from
// about 2 % of their entries grouped (under 2.5 %) to at least 95 %.
func TestLayoutTable(t *testing.T) {
	road, err := workload.RoadNetwork(48, 48, 12, workload.Lognormal(0.5), 1)
	if err != nil {
		t.Fatal(err)
	}
	corpus := []namedGraph{{"femesh:64", femesh64(t)}, {"road:48", road}}
	if !testing.Short() {
		corpus = append(corpus,
			namedGraph{"oct:64", workload.OCT3D(64, 64, 64, workload.DefaultOCTOptions())},
			namedGraph{"grid3d:64", grid3d64()})
	}
	t.Logf("%-10s %3s %8s %9s %4s %9s %9s %9s %9s %9s", "graph", "lvl", "vertices", "entries", "maxd", "runs nat", "runs lay", "grouped %", "ns/e nat", "ns/e lay")
	for _, tc := range corpus {
		h, err := New(tc.g, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		for level, nat := range naturalLevels(tc.g, h) {
			lay := h.levels[level].g
			entries := 2 * lay.M()
			perEntry := func(g *graph.Graph) float64 {
				return float64(timeLapMul(g, 15).Nanoseconds()) / float64(entries)
			}
			t.Logf("%-10s %3d %8d %9d %4d %9d %9d %9.0f %9.2f %9.2f", tc.name, level, lay.N(), entries, lay.MaxDegree(),
				degreeRuns(nat), degreeRuns(lay), 100*groupedShare(t, lay), perEntry(nat), perEntry(lay))
			if level == 0 {
				if lay != tc.g {
					t.Errorf("%s: level 0 is not the caller's graph", tc.name)
				}
				natural, solve := h.GroupedShares()
				if v := h.layoutView(); v != nil {
					vg := v.h.levels[0].g
					t.Logf("%-10s %3s %8d %9d %4d %9d %9d %9.0f %9.2f %9.2f", tc.name, "0v", vg.N(), entries, vg.MaxDegree(),
						degreeRuns(nat), degreeRuns(vg), 100*groupedShare(t, vg), perEntry(nat), perEntry(vg))
				}
				if wantView := tc.name == "femesh:64" || tc.name == "road:48"; wantView && (natural >= 0.025 || solve < 0.95) {
					t.Errorf("%s: level 0 %.1f %% grouped in natural order, %.1f %% in its solve space; want under 2.5 %% and ≥ 95 %%", tc.name, 100*natural, 100*solve)
				}
				continue
			}
			windows := (lay.N() + layoutWindow - 1) / layoutWindow
			if runs := degreeRuns(lay); runs > windows*distinctDegrees(lay) {
				t.Errorf("%s level %d: %d degree runs in %d windows of %d degrees", tc.name, level, runs, windows, distinctDegrees(lay))
			}
			if lay.M() != nat.M() || math.Abs(lay.TotalVol()-nat.TotalVol()) > 1e-9*nat.TotalVol() {
				t.Errorf("%s level %d: layout holds %d edges, volume %v; natural %d, %v", tc.name, level, lay.M(), lay.TotalVol(), nat.M(), nat.TotalVol())
			}
		}
	}
}

// layoutBenchGraphs are solve-oct3d's and block-femesh2d's graphs.
func layoutBenchGraphs(b *testing.B) []namedGraph {
	return []namedGraph{
		{"oct:64", workload.OCT3D(64, 64, 64, workload.DefaultOCTOptions())},
		{"femesh:64", femesh64(b)},
	}
}

// BenchmarkLapMulByLevel times the three k = 1 row kernels on every stored
// level of a built hierarchy — level 0 in the caller's numbering (a one-column
// solve runs in its layout view instead where it has one; TestLayoutTable's
// "0v" rows), the quotients in their apply layout — through the Go loops alone and with
// grouped rows going through the AVX2 kernel, on one worker, and reports the
// cost per stored entry and the share of the entries that lie in grouped rows.
// Both forms run on the same arrays: a fresh copy of OCT 64³'s level 0 runs
// the same loop a quarter faster than the level itself, on placement alone.
func BenchmarkLapMulByLevel(b *testing.B) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, tc := range layoutBenchGraphs(b) {
		h, err := New(tc.g, DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		for level, l := range h.levels {
			g := l.g
			share := 100 * groupedShare(b, g)
			x, r, dst := ramp(g.N()), ramp(g.N()), make([]float64, g.N())
			for _, mode := range []struct {
				name string
				run  func()
			}{
				{"mul", func() { g.LapMul(dst, x) }},
				{"residual", func() { g.LapMulBlockResidual(dst, r, x, 1) }},
				{"jacobi", func() { g.LapJacobiStepBlock(dst, r, x, l.dInv, 0.5, 1) }},
			} {
				for i, body := range bodies {
					if i > 0 && body.name == "go" {
						continue // a host without AVX2 has one form to time
					}
					b.Run(fmt.Sprintf("%s/level=%d/%s/%s", tc.name, level, mode.name, body.name), func(b *testing.B) {
						body.run(func() {
							b.ResetTimer()
							for i := 0; i < b.N; i++ {
								mode.run()
							}
						})
						b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(2*g.M()), "ns/entry")
						b.ReportMetric(share, "grouped-%")
					})
				}
			}
		}
	}
}

// BenchmarkLapMulBlockByLevel is BenchmarkLapMulByLevel for the block matvec
// at the widths the benchmark's block workloads solve with (4: serve-mixed's
// rhs4 class, 8: block-femesh2d), through the Go column tiles and through the
// AVX2 ones, on one worker so that both sides are one goroutine. Besides
// ns/entry it reports the bandwidth the call's arrays amount to, for setting
// against mem.triad_gbps (DESIGN §12 "Column-tile kernels"): per call
//
//	12 B × 2m   every stored entry's id (4 B) and weight (8 B), read once
//	 8 B × (n+1)  the row offsets
//	24 B × n·k  three block vectors: x read, dst write-allocated and written
//
// — computed bytes, not measured traffic: the gathers of x re-read rows that
// the count assumes stay cached. Where level 0 has a layout view, which block
// solves run in, its "level=0v" row times the view's copy of level 0.
func BenchmarkLapMulBlockByLevel(b *testing.B) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, tc := range layoutBenchGraphs(b) {
		h, err := New(tc.g, DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		var levels []namedGraph
		for level, l := range h.levels {
			levels = append(levels, namedGraph{strconv.Itoa(level), l.g})
		}
		if v := h.layoutView(); v != nil {
			levels = append(levels, namedGraph{"0v", v.h.levels[0].g})
		}
		for _, lv := range levels {
			level, g := lv.name, lv.g
			for _, k := range []int{4, 8} {
				x, dst := ramp(g.N()*k), make([]float64, g.N()*k)
				bytes := float64(12*2*g.M() + 8*(g.N()+1) + 24*g.N()*k)
				for i, body := range bodies {
					if i > 0 && body.name == "go" {
						continue
					}
					b.Run(fmt.Sprintf("%s/level=%s/k=%d/%s", tc.name, level, k, body.name), func(b *testing.B) {
						body.run(func() {
							b.ResetTimer()
							for i := 0; i < b.N; i++ {
								g.LapMulBlock(dst, x, k)
							}
						})
						ns := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
						b.ReportMetric(ns/float64(2*g.M()), "ns/entry")
						b.ReportMetric(bytes/ns, "GB/s")
					})
				}
			}
		}
	}
}

// BenchmarkHierarchyApply times one V-cycle at the scalar width and at the
// block width block-femesh2d solves with.
func BenchmarkHierarchyApply(b *testing.B) {
	for _, tc := range layoutBenchGraphs(b) {
		h, err := New(tc.g, DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		n := tc.g.N()
		for _, k := range []int{1, 8} {
			b.Run(fmt.Sprintf("%s/k=%d", tc.name, k), func(b *testing.B) {
				r, dst := ramp(n*k), make([]float64, n*k)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					h.ApplyBlock(dst, r, k)
				}
			})
		}
	}
}
