package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"hcd/internal/graph"
	"hcd/internal/hierarchy"
	"hcd/internal/solver"
)

// build-grid3d times hierarchy construction only: clustering, contraction,
// per-level quotients, the coarse factorization and the allocation they
// cause. No solve is timed; one is run at the end to show the last hierarchy
// built is a working preconditioner.

// buildShards is the shard count of the sharded build the traced pass times
// beside the single-pass one.
const buildShards = 8

// buildStats is what one timed hierarchy build cost.
type buildStats struct {
	ms      float64
	mallocs uint64
	bytes   uint64
}

// timedBuild builds a hierarchy and records wall time and allocation.
func timedBuild(g *graph.Graph, opt hierarchy.Options) (*hierarchy.Hierarchy, buildStats, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	h, err := hierarchy.NewCtx(context.Background(), g, opt)
	d := time.Since(t0)
	runtime.ReadMemStats(&after)
	return h, buildStats{ms: ms(d), mallocs: after.Mallocs - before.Mallocs, bytes: after.TotalAlloc - before.TotalAlloc}, err
}

type buildEnv struct {
	g     *graph.Graph
	seed  int64
	tally tally
	last  *hierarchy.Hierarchy
}

func setupBuild(cfg runCfg) (*buildEnv, error) {
	gs, err := workloadGraphs(cfg)
	if err != nil {
		return nil, err
	}
	env := &buildEnv{g: gs[0], seed: cfg.seed}
	if _, err := env.op(nil, -1, 0); err != nil { // warm-up: first-touch of the allocator's arenas
		return nil, err
	}
	env.tally = tally{}
	return env, nil
}

// op times build i. Each build of a run gets its own clustering perturbation
// seed, so a run samples the builder over many clusterings of the one graph
// rather than repeating a single one.
func (e *buildEnv) op(tr *track, i, shards int) (time.Duration, error) {
	opt := hierarchy.DefaultOptions()
	opt.Seed = rhsStream(e.seed, i+1)
	opt.Shards = shards
	tr.begin(spanBuild, i)
	h, st, err := timedBuild(e.g, opt)
	tr.end()
	d := time.Duration(st.ms * float64(time.Millisecond))
	if err != nil {
		return d, err
	}
	e.tally.add(hierarchyShapeOK(e.g, h, opt))
	e.last = h
	return d, nil
}

// hierarchyShapeOK checks the structural contract of a build: it covers the
// graph, shrinks strictly level by level, and stops at a coarse graph the
// dense solver is allowed to factor.
func hierarchyShapeOK(g *graph.Graph, h *hierarchy.Hierarchy, opt hierarchy.Options) bool {
	sizes := h.LevelSizes()
	if h.Dim() != g.N() || len(sizes) != h.Depth()+1 || sizes[0] != g.N() {
		return false
	}
	for i := 1; i < len(sizes); i++ {
		if sizes[i] >= sizes[i-1] {
			return false
		}
	}
	return h.CoarseSize() <= opt.DirectLimit
}

// solveWith checks that h preconditions a solve on g to the benchmark's
// tolerance, verified like every other answer.
func solveWith(g *graph.Graph, h *hierarchy.Hierarchy, seed int64) (bool, error) {
	b := make([]float64, g.N())
	meanFreeRHS(b, seed)
	res, err := solver.PCGCtx(context.Background(), solver.LapOperator(g), h, b, solver.DefaultOptions())
	if err != nil {
		return false, err
	}
	_, ok := answerOK(g, res.X, b, make([]float64, g.N()))
	return ok && res.Converged, nil
}

func runBuild(cfg runCfg) (*report, error) {
	env, setupS, err := repeatSetup(setupReps(cfg), func() (*buildEnv, error) { return setupBuild(cfg) })
	if err != nil {
		return nil, err
	}
	if cfg.trace {
		return traceBuild(cfg, env)
	}
	opsMS, err := timedLoop(cfg.budget(1), 3, func(i int) (time.Duration, error) { return env.op(nil, i, 0) })
	if err != nil {
		return nil, err
	}
	ok, err := solveWith(env.g, env.last, rhsStream(cfg.seed, 0))
	if err != nil {
		return nil, err
	}
	env.tally.add(ok)

	rep := newReport()
	rep.tally = env.tally
	rep.set("setup_s", setupS, "median of 5 set-ups: graph, fingerprint, warm-up build")
	rep.setLatency("latency_ms", opsMS)
	rep.set("throughput_per_s", windowedRate(opsMS, 1),
		fmt.Sprintf("single-pass builds per second of timed build: median over %d windows", throughputWindows))
	return rep, nil
}

func traceBuild(cfg runCfg, env *buildEnv) (*report, error) {
	tr := newTrack(1, time.Now())
	// The build is one call from out here, so the trace holds only root
	// spans; alternating traced and untraced builds still measures what
	// recording them costs.
	plainMS, tracedMS, err := alternating(cfg.budget(0.4), 8, func(i int, traced bool) (time.Duration, error) {
		if traced {
			return env.op(tr, i, 0)
		}
		return env.op(nil, i, 0)
	})
	if err != nil {
		return nil, err
	}
	last := env.last

	rep := newReport()
	all := append(append([]float64(nil), plainMS...), tracedMS...)
	rep.set("hierarchy.build_p50_ms", median(all), fmt.Sprintf("single-pass, %d builds", len(all)))
	rep.setOverhead(plainMS, tracedMS, "builds")

	shardedMS, err := timedLoop(0, 6, func(i int) (time.Duration, error) { return env.op(nil, 100+i, buildShards) })
	if err != nil {
		return nil, err
	}
	rep.set("hierarchy.build_sharded_p50_ms", median(shardedMS),
		fmt.Sprintf("Options.Shards = %d, %d builds: per-shard clustering plus a serial stitch", buildShards, len(shardedMS)))

	var parMS []float64
	atProcs(runtime.NumCPU(), func() {
		parMS, err = timedLoop(0, 4, func(i int) (time.Duration, error) { return env.op(nil, 200+i, 0) })
	})
	if err != nil {
		return nil, err
	}
	rep.set("par.speedup", median(plainMS)/median(parMS),
		fmt.Sprintf("p50 at GOMAXPROCS=1 ÷ p50 at GOMAXPROCS=%d (4 builds)", runtime.NumCPU()))

	if _, err := probeHierarchy(rep, env.g); err != nil {
		return nil, err
	}
	if err := probeDecomp(rep, env.g); err != nil {
		return nil, err
	}
	if err := probeGio(rep, env.g, last); err != nil {
		return nil, err
	}
	rep.set("mem.triad_gbps", triadGBps().gbps, "see solve-oct3d for the caveat")

	ok, err := solveWith(env.g, last, rhsStream(cfg.seed, 0))
	if err != nil {
		return nil, err
	}
	env.tally.add(ok)
	rep.tally = env.tally
	return rep, finishTrace(cfg, tr)
}
