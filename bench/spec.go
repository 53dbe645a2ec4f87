package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// metricDef declares one metric: the name printed, its unit and which
// direction is better. BENCHMARK.json carries the same rows (plus a bound on
// the end-to-end ones); TestSchemaMatchesBenchmarkJSON keeps the two equal.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// Workload names, in the order `go run ./bench` runs them.
const (
	wSolve = "solve-oct3d"
	wBuild = "build-grid3d"
	wBlock = "block-femesh2d"
	wServe = "serve-mixed"
)

var workloadNames = []string{wSolve, wBuild, wBlock, wServe}

// End-to-end metrics. Every workload reports every one of them (the driver's
// contract); what "one operation" is depends on the workload:
//
//	solve-oct3d     one Engine.Solve to 1e-8            (latency: median)
//	build-grid3d    one hierarchy.NewCtx build          (latency: median)
//	block-femesh2d  one 8-RHS hcd.Do                    (latency: median)
//	serve-mixed     one HTTP solve request, closed loop (latency: p95 of
//	                handler time; throughput: median window request rate)
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"latency_ms", "ms", "lower"},
	{"throughput_per_s", "1/s", "higher"},
	{"peak_rss_mb", "MiB", "lower"},
}

// Per-layer metrics, reported by the traced pass (-trace 1). Every workload
// prints every name; a value of 0 means the workload does not exercise or
// measure that quantity (see README.md for which workload reports what).
var perLayer = []metricDef{
	// graph: the operator's matvec, scalar and block.
	{"graph.lapmul_calls", "count", "lower"},
	{"graph.lapmul_ms_per_call", "ms", "lower"},
	{"graph.lapmul_share", "%", "lower"},
	{"graph.lapmul_gbps_computed", "GB/s", "higher"},
	{"graph.lapmul_over_triad", "ratio", "higher"},
	{"graph.lapmul_block_calls", "count", "lower"},
	{"graph.lapmul_block_ms_per_call", "ms", "lower"},
	{"graph.lapmul_block_share", "%", "lower"},
	{"graph.lapmul_block_gbps_computed", "GB/s", "higher"},
	{"graph.contract_l0_ms", "ms", "lower"},
	{"mem.triad_gbps", "GB/s", "higher"},
	// hierarchy: the preconditioner's V-cycle and its construction.
	{"hierarchy.apply_calls", "count", "lower"},
	{"hierarchy.apply_ms_per_call", "ms", "lower"},
	{"hierarchy.apply_share", "%", "lower"},
	{"hierarchy.apply_block_calls", "count", "lower"},
	{"hierarchy.apply_block_ms_per_call", "ms", "lower"},
	{"hierarchy.apply_block_share", "%", "lower"},
	{"hierarchy.build_p50_ms", "ms", "lower"},
	{"hierarchy.build_sharded_p50_ms", "ms", "lower"},
	{"hierarchy.rebuild_ms", "ms", "lower"},
	{"hierarchy.cluster_share", "%", "lower"},
	{"hierarchy.depth", "count", "lower"},
	{"hierarchy.coarse_size", "count", "lower"},
	{"hierarchy.memory_mb", "MiB", "lower"},
	{"hierarchy.build_allocs", "count", "lower"},
	{"hierarchy.build_alloc_mb", "MiB", "lower"},
	// decomp / mst: the Section 3.1 clustering and Remark 1's yardstick.
	{"decomp.cluster_l0_ms", "ms", "lower"},
	{"decomp.cluster_sharded_l0_ms", "ms", "lower"},
	{"decomp.clusters_l0", "count", "lower"},
	{"decomp.shard_rejected", "count", "lower"},
	{"decomp.evaluate_ms", "ms", "lower"},
	{"decomp.min_phi", "ratio", "higher"},
	{"mst.kruskal_max_ms", "ms", "lower"},
	{"decomp.cluster_over_mst", "ratio", "higher"},
	// solver: PCG's own level-1 work and exact counts.
	{"solver.self_ms_per_iter", "ms", "lower"},
	{"solver.self_share", "%", "lower"},
	{"solver.block_self_share", "%", "lower"},
	{"solver.block_vs_seq_speedup", "ratio", "higher"},
	{"solver.iterations_total", "count", "lower"},
	{"solver.block_iterations_max", "count", "lower"},
	{"solver.relres_max", "ratio", "lower"},
	{"solver.allocs_per_solve", "count", "lower"},
	// steiner / subgraph: Figure 6 as exact iteration counts.
	{"steiner.fig6_iters", "count", "lower"},
	{"subgraph.fig6_iters", "count", "lower"},
	// hcd facade.
	{"hcd.do_overhead_ms", "ms", "lower"},
	// gio: parsing and snapshots.
	{"gio.parse_edgelist_ms", "ms", "lower"},
	{"gio.parse_mb_per_s", "MB/s", "higher"},
	{"gio.snapshot_write_ms", "ms", "lower"},
	{"gio.snapshot_restore_ms", "ms", "lower"},
	// serve: from public response fields and Server.Registry().
	{"serve.queue_wait_p99_ms", "ms", "lower"},
	{"serve.solve_share", "%", "higher"},
	{"serve.overhead_p50_ms.seeded", "ms", "lower"},
	{"serve.overhead_p50_ms.payload", "ms", "lower"},
	{"serve.overhead_p50_ms.rhs4", "ms", "lower"},
	{"serve.latency_p50_ms.seeded", "ms", "lower"},
	{"serve.latency_p50_ms.payload", "ms", "lower"},
	{"serve.latency_p50_ms.rhs4", "ms", "lower"},
	{"serve.response_bytes_p50.payload", "B", "lower"},
	{"serve.cache_hit_share", "%", "higher"},
	{"serve.engines_busy_max", "count", "lower"},
	{"serve.submit_build_ms", "ms", "lower"},
	{"serve.closed_latency_p50_ms", "ms", "lower"},
	{"serve.open_latency_p50_ms", "ms", "lower"},
	{"serve.open_latency_p90_ms", "ms", "lower"},
	{"serve.attempted", "count", "higher"},
	{"serve.failed", "count", "lower"},
	// par, loadgen, trace.
	{"par.speedup", "ratio", "higher"},
	{"loadgen.lateness_p99_ms", "ms", "lower"},
	{"trace.overhead_pct", "%", "lower"},
}

// benchmarkFile is the subset of BENCHMARK.json the program itself reads:
// the run length and the regression bound of each end-to-end metric.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		metricDef
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadBenchmarkFile(path string) (*benchmarkFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read %s (run from the repository root): %w", path, err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return &bf, nil
}
