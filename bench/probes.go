package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"hcd"
	"hcd/internal/decomp"
	"hcd/internal/gio"
	"hcd/internal/graph"
	"hcd/internal/hierarchy"
	"hcd/internal/mst"
)

// Probes time single exported calls of one layer on a workload's own inputs.
// They run only in the traced pass, after the operation loop, with a fixed
// small repetition count.

// timeMS returns the median wall time of reps calls of fn in milliseconds.
func timeMS(reps int, fn func() error) (float64, error) {
	ts := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ts = append(ts, ms(time.Since(t0)))
	}
	return median(ts), nil
}

// triad is the host's measured streaming bandwidth.
type triad struct {
	gbps   float64
	note   string
	caveat string
}

// triadWords is the length of each of the three STREAM arrays: 4 Mi float64
// = 32 MiB each, 96 MiB in all.
const triadWords = 4 << 20

// triadGBps runs a STREAM-style triad a[i] = b[i] + s·c[i] in this process
// and reports the best of five passes (24 bytes moved per element, as STREAM
// counts them). The arrays are far larger than the private caches but this
// host's shared L3 is larger still, so the figure is a cache-assisted
// streaming rate; the ratio built on it says so and is not called a roofline
// fraction.
func triadGBps() triad {
	a := make([]float64, triadWords)
	b := make([]float64, triadWords)
	c := make([]float64, triadWords)
	for i := range b {
		b[i], c[i] = float64(i), float64(i>>1)
	}
	best := 0.0
	for pass := 0; pass < 5; pass++ {
		t0 := time.Now()
		for i := range a {
			a[i] = b[i] + 3*c[i]
		}
		if gbps := 24 * triadWords / time.Since(t0).Seconds() / 1e9; gbps > best {
			best = gbps
		}
	}
	arrays := 3 * 8 * triadWords
	llc := llcBytes()
	t := triad{gbps: best}
	t.note = fmt.Sprintf("STREAM triad, 3 arrays = %d MiB, LLC = %d MiB", arrays>>20, llc>>20)
	switch {
	case llc == 0:
		t.caveat = "LLC size unknown: read as matvec rate ÷ triad rate, not a roofline fraction"
	case int64(arrays) < 4*llc:
		t.caveat = fmt.Sprintf("triad arrays (%d MiB) are under 4× the LLC (%d MiB): a cache-assisted rate, not a roofline fraction", arrays>>20, llc>>20)
	default:
		t.caveat = "triad arrays are at least 4× the LLC"
	}
	return t
}

// llcBytes reads the size of cpu0's highest-level cache from sysfs; 0 when
// unavailable.
func llcBytes() int64 {
	var size int64
	for idx := 0; idx < 8; idx++ {
		raw, err := os.ReadFile(fmt.Sprintf("/sys/devices/system/cpu/cpu0/cache/index%d/size", idx))
		if err != nil {
			break
		}
		s := strings.TrimSpace(string(raw))
		mult := int64(1)
		switch {
		case strings.HasSuffix(s, "K"):
			mult, s = 1<<10, strings.TrimSuffix(s, "K")
		case strings.HasSuffix(s, "M"):
			mult, s = 1<<20, strings.TrimSuffix(s, "M")
		}
		if v, perr := strconv.ParseInt(s, 10, 64); perr == nil {
			size = max(size, v*mult)
		}
	}
	return size
}

// probeHierarchy builds g's default hierarchy three times, each followed by
// a Rebuild from that build's dumped assignments: Rebuild redoes the
// quotients and the coarse factorization without any clustering, so with the
// two timed back to back under the same heap, 1 − rebuild ÷ build is the
// clustering share of a build. It also reports the hierarchy's shape and
// what one build allocates, and returns the median build time.
func probeHierarchy(rep *report, g *graph.Graph) (float64, error) {
	const pairs = 3
	var buildMS, rebuildMS []float64
	var h *hierarchy.Hierarchy
	var st buildStats
	for i := 0; i < pairs; i++ {
		var err error
		if h, st, err = timedBuild(g, hierarchy.DefaultOptions()); err != nil {
			return 0, err
		}
		buildMS = append(buildMS, st.ms)
		levels, smooth := h.DumpLevels()
		t0 := time.Now()
		if _, err := hierarchy.Rebuild(context.Background(), g, levels, smooth); err != nil {
			return 0, err
		}
		rebuildMS = append(rebuildMS, ms(time.Since(t0)))
	}
	rep.set("hierarchy.depth", float64(h.Depth()), "")
	rep.set("hierarchy.coarse_size", float64(h.CoarseSize()), "")
	rep.set("hierarchy.memory_mb", float64(h.MemoryBytes())/(1<<20), "Hierarchy.MemoryBytes, an accounting figure")
	rep.set("hierarchy.build_allocs", float64(st.mallocs), "heap objects allocated by one build")
	rep.set("hierarchy.build_alloc_mb", float64(st.bytes)/(1<<20), "bytes allocated by one build")
	rep.set("hierarchy.rebuild_ms", median(rebuildMS), "quotients + coarse factorization, no clustering; median of 3")
	rep.set("hierarchy.cluster_share", 100*(1-median(rebuildMS)/median(buildMS)), "1 − rebuild ÷ build, 3 back-to-back pairs")
	return median(buildMS), nil
}

// probeDecomp times the Section 3.1 clustering of the fine graph, single-pass
// and sharded, its evaluation, the contraction that follows it in a build,
// and Remark 1's yardstick: a bare max-weight spanning tree by Kruskal.
func probeDecomp(rep *report, g *graph.Graph) error {
	ctx := context.Background()
	opt := hierarchy.DefaultOptions()
	var d *decomp.Decomposition
	clusterMS, err := timeMS(3, func() (cerr error) {
		d, cerr = decomp.FixedDegreeCtx(ctx, g, opt.SizeCap, opt.Seed)
		return cerr
	})
	if err != nil {
		return err
	}
	rep.set("decomp.cluster_l0_ms", clusterMS, "FixedDegreeCtx on the fine graph, median of 3")
	rep.set("decomp.clusters_l0", float64(d.Count), "")

	var stats decomp.ShardStats
	shardedMS, err := timeMS(3, func() (cerr error) {
		_, stats, cerr = decomp.FixedDegreeShardedCtx(ctx, g, opt.SizeCap, opt.Seed, buildShards)
		return cerr
	})
	if err != nil {
		return err
	}
	rep.set("decomp.cluster_sharded_l0_ms", shardedMS, fmt.Sprintf("%d shards, median of 3", buildShards))
	rep.set("decomp.shard_rejected", float64(stats.Rejected), "boundary singletons the stitch kept")

	var report decomp.Report
	evalMS, _ := timeMS(1, func() error {
		report = decomp.Evaluate(d, graph.MaxExactConductance)
		return nil
	})
	rep.set("decomp.evaluate_ms", evalMS, "")
	rep.set("decomp.min_phi", report.Phi, "minimum closure conductance of the level-0 clustering")

	contractMS, _ := timeMS(3, func() error {
		g.Contract(d.Assign, d.Count)
		return nil
	})
	rep.set("graph.contract_l0_ms", contractMS, "median of 3")

	kruskalMS, _ := timeMS(3, func() error {
		mst.Kruskal(g, mst.Max)
		return nil
	})
	rep.set("mst.kruskal_max_ms", kruskalMS, "median of 3")
	rep.set("decomp.cluster_over_mst", kruskalMS/clusterMS, "Remark 1: clustering vs a bare max-weight spanning tree; paper ≥ 4×")
	return nil
}

// probeFig6 is the gated form of Figure 6: PCG iterations to 1e-6 on OCT3D
// side³ (20³ in production) with a Steiner and a subgraph preconditioner built at the same
// reduction factor (≈ 4), following cmd/hcd-fig6. The counts repeat exactly.
func probeFig6(rep *report, side int) error {
	ctx := context.Background()
	const seed = 1
	opt := hcd.DefaultOCTOptions()
	opt.Seed = seed
	g := hcd.OCT3D(side, side, side, opt)
	b := make([]float64, g.N())
	meanFreeRHS(b, seed+7)

	dres, err := hcd.DecomposeCtx(ctx, g, hcd.DecomposeOptions{
		Method: hcd.MethodFixedDegree, SizeCap: 4, Seed: seed, SkipReport: true,
	})
	if err != nil {
		return err
	}
	steiner, err := hcd.NewSteinerPreconditioner(dres.D)
	if err != nil {
		return err
	}
	reduction := float64(g.N()) / float64(dres.D.Count)
	sub, err := hcd.NewSubgraphPreconditionerMatched(g, reduction, seed)
	if err != nil {
		return err
	}
	so := hcd.DefaultSolveOptions()
	so.Tol = 1e-6
	sres, err := hcd.SolvePCGCtx(ctx, g, b, steiner, so)
	if err != nil {
		return err
	}
	gres, err := hcd.SolvePCGCtx(ctx, g, b, sub.P, so)
	if err != nil {
		return err
	}
	note := fmt.Sprintf("iterations to 1e-6 on OCT3D %d³ at reduction %.2f", side, reduction)
	rep.set("steiner.fig6_iters", float64(sres.Iterations), note)
	rep.set("subgraph.fig6_iters", float64(gres.Iterations), note)
	return nil
}

// probeGio times the text parser and the binary snapshot codec on in-memory
// buffers holding g and its hierarchy.
func probeGio(rep *report, g *graph.Graph, h *hierarchy.Hierarchy) error {
	var text bytes.Buffer
	if err := gio.WriteEdgeList(&text, g); err != nil {
		return err
	}
	const reps = 3
	parseMS, err := timeMS(reps, func() error {
		_, perr := gio.ReadEdgeList(bytes.NewReader(text.Bytes()))
		return perr
	})
	if err != nil {
		return err
	}
	rep.set("gio.parse_edgelist_ms", parseMS, fmt.Sprintf("%.1f MB of text, median of %d", float64(text.Len())/1e6, reps))
	rep.set("gio.parse_mb_per_s", float64(text.Len())/1e6/(parseMS/1e3), "")

	var snap bytes.Buffer
	writeMS, err := timeMS(reps, func() error {
		snap.Reset()
		return gio.WriteHierarchySnapshot(&snap, g, h)
	})
	if err != nil {
		return err
	}
	rep.set("gio.snapshot_write_ms", writeMS, fmt.Sprintf("graph + hierarchy, %.1f MB", float64(snap.Len())/1e6))
	restoreMS, err := timeMS(reps, func() error {
		_, _, rerr := gio.ReadHierarchySnapshot(context.Background(), bytes.NewReader(snap.Bytes()))
		return rerr
	})
	if err != nil {
		return err
	}
	rep.set("gio.snapshot_restore_ms", restoreMS, "decode + Rebuild")
	return nil
}
