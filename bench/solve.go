package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"hcd"
	"hcd/internal/graph"
	"hcd/internal/hierarchy"
	"hcd/internal/solver"
)

// solve-oct3d (k = 1) and block-femesh2d (k = blockWidth) share this file:
// both build one hierarchy and one warm engine in set-up and then time
// solves only, the first through Engine.Solve and the scalar kernels, the
// second through hcd.Do and the packed block kernels.

// solveEnv is the set-up product of a solve workload.
type solveEnv struct {
	g    *graph.Graph
	h    *hierarchy.Hierarchy
	eng  *solver.Engine
	k    int
	seed int64

	// Reused across operations: the k right-hand sides and the verifier's
	// scratch vector.
	bs      [][]float64
	scratch []float64
	tally   tally
	iters   []int // per operation: iterations (k = 1) or the slowest column's (k > 1)
	allocs  int   // Σ Metrics.ScratchAllocs over the solves tallied
}

func setupSolve(cfg runCfg, k int) (*solveEnv, error) {
	gs, err := workloadGraphs(cfg)
	if err != nil {
		return nil, err
	}
	g := gs[0]
	h, err := hierarchy.NewCtx(context.Background(), g, hierarchy.DefaultOptions())
	if err != nil {
		return nil, err
	}
	eng, err := solver.NewEngine(solver.LapOperator(g), h, solver.DefaultOptions())
	if err != nil {
		return nil, err
	}
	env := &solveEnv{g: g, h: h, eng: eng, k: k, seed: cfg.seed, scratch: make([]float64, g.N())}
	env.bs = make([][]float64, k)
	for j := range env.bs {
		env.bs[j] = make([]float64, g.N())
	}
	// One warm-up solve sizes the engine's buffers, so the lazy part of
	// set-up is paid (and shows in setup_s) before the clock starts.
	if _, err := env.op(eng, nil, -1); err != nil {
		return nil, err
	}
	env.resetCounts()
	return env, nil
}

func (e *solveEnv) resetCounts() {
	e.tally, e.iters, e.allocs = tally{}, nil, 0
}

// op runs operation i on eng: generate its right-hand sides, time the solve,
// check every answer. Operation i always gets the same inputs for a given
// -seed, whichever engine runs it.
func (e *solveEnv) op(eng *solver.Engine, tr *track, i int) (time.Duration, error) {
	for j, b := range e.bs {
		meanFreeRHS(b, rhsStream(e.seed, (i+1)*e.k+j))
	}
	ctx := context.Background()
	var results []solver.Result
	var dt time.Duration
	if e.k == 1 {
		tr.begin(spanSolve, i)
		t0 := time.Now()
		res, err := eng.Solve(ctx, e.bs[0])
		dt = time.Since(t0)
		tr.end()
		if err != nil {
			return dt, err
		}
		results = []solver.Result{res}
	} else {
		tr.begin(spanDo, i)
		t0 := time.Now()
		resp, err := hcd.Do(ctx, e.g, hcd.SolveRequest{B: e.bs, Engine: eng, Options: solver.DefaultOptions()})
		dt = time.Since(t0)
		tr.end()
		if err != nil {
			return dt, err
		}
		results = resp.Results
	}
	if len(results) != e.k {
		return dt, fmt.Errorf("operation %d returned %d results for %d right-hand sides", i, len(results), e.k)
	}
	slowest := 0
	for j, res := range results {
		rr, ok := answerOK(e.g, res.X, e.bs[j], e.scratch)
		e.tally.add(ok && res.Converged)
		e.tally.residual(rr)
		slowest = max(slowest, res.Iterations)
		e.allocs += res.Metrics.ScratchAllocs
	}
	e.iters = append(e.iters, slowest)
	return dt, nil
}

func runSolve(cfg runCfg, k int) (*report, error) {
	env, setupS, err := repeatSetup(setupReps(cfg), func() (*solveEnv, error) { return setupSolve(cfg, k) })
	if err != nil {
		return nil, err
	}
	if cfg.trace {
		return traceSolve(cfg, env)
	}
	opsMS, err := timedLoop(cfg.budget(1), 3, func(i int) (time.Duration, error) { return env.op(env.eng, nil, i) })
	if err != nil {
		return nil, err
	}
	rep := newReport()
	rep.tally = env.tally
	rep.set("setup_s", setupS, "median of 5 set-ups: graph, fingerprint, hierarchy, engine, warm-up solve")
	rep.setLatency("latency_ms", opsMS)
	rep.set("throughput_per_s", windowedRate(opsMS, k),
		fmt.Sprintf("right-hand sides per second of timed solve, %d per call: median over %d windows", k, throughputWindows))
	return rep, nil
}

// tracedEngine builds an engine over g and h whose operator and
// preconditioner record a span per call on tr.
func tracedEngine(g *graph.Graph, h *hierarchy.Hierarchy, tr *track) (*solver.Engine, error) {
	op, ok := solver.LapOperator(g).(applier)
	if !ok {
		return nil, fmt.Errorf("solver.LapOperator no longer implements ApplyBlock; the timing decorator needs updating")
	}
	return solver.NewEngine(
		timed{inner: op, tr: tr, name: spanLapMul, block: spanLapMulBlock},
		timed{inner: h, tr: tr, name: spanApply, block: spanApplyBlock},
		solver.DefaultOptions())
}

func traceSolve(cfg runCfg, env *solveEnv) (*report, error) {
	tr := newTrack(1, time.Now())
	teng, err := tracedEngine(env.g, env.h, tr)
	if err != nil {
		return nil, err
	}
	if _, err := env.op(teng, nil, -1); err != nil { // warm the traced engine's buffers
		return nil, err
	}
	tr.spans = tr.spans[:0]
	env.resetCounts()

	tracedIters := 0
	plainMS, tracedMS, err := alternating(cfg.budget(0.5), 8, func(i int, traced bool) (time.Duration, error) {
		if !traced {
			return env.op(env.eng, nil, i)
		}
		d, err := env.op(teng, tr, i)
		tracedIters += env.iters[len(env.iters)-1]
		return d, err
	})
	if err != nil {
		return nil, err
	}

	rep := newReport()
	agg := aggregate(tr)
	root := agg[spanSolve]
	if env.k > 1 {
		root = agg[spanDo]
	}
	rep.setLayerShares(agg, root, "traced operation")
	selfNote := "operation span minus operator and preconditioner children: dot, axpy, projection"
	if env.k == 1 {
		rep.set("solver.self_share", share(root.self, root.total), selfNote)
		rep.set("solver.self_ms_per_iter", ms(root.self)/float64(max(tracedIters, 1)), "")
	} else {
		rep.set("solver.block_self_share", share(root.self, root.total), selfNote+", plus hcd.Do's packing")
	}
	rep.setOverhead(plainMS, tracedMS, "operations")

	// Counts that repeat exactly: the first four operations of a seed.
	fixed := env.iters[:min(8, len(env.iters))]
	total, slowest := 0, 0
	for i := 0; i < len(fixed); i += 2 { // each operation index ran once per engine
		total += fixed[i]
		slowest = max(slowest, fixed[i])
	}
	if env.k == 1 {
		rep.set("solver.iterations_total", float64(total), "first 4 operations of this seed")
	} else {
		rep.set("solver.block_iterations_max", float64(slowest), "slowest column over the first 4 calls of this seed")
	}
	rep.set("solver.relres_max", env.tally.relresMax, "recomputed ‖b − A·x‖/‖b‖, worst over all solves")
	rep.set("solver.allocs_per_solve", float64(env.allocs)/float64(max(env.tally.attempted, 1)), "work buffers allocated on a warm engine; must stay 0")

	// Bandwidth: bytes computed from array sizes (every CSR array plus the
	// vectors read and written once), not measured traffic.
	n, m := float64(env.g.N()), float64(env.g.M())
	csr := 8 * (n + 1 + 4*m)
	tri := triadGBps()
	if st := agg[spanLapMul]; st.calls > 0 {
		gbps := (csr + 16*n) / (st.msPerCall() * 1e6)
		rep.set("graph.lapmul_gbps_computed", gbps, "computed bytes, not measured traffic")
		rep.set("graph.lapmul_over_triad", gbps/tri.gbps, tri.caveat)
	}
	if st := agg[spanLapMulBlock]; st.calls > 0 {
		// Deflation narrows the block as columns finish; full width is an
		// upper bound on the vector bytes.
		gbps := (csr + 16*n*float64(env.k)) / (st.msPerCall() * 1e6)
		rep.set("graph.lapmul_block_gbps_computed", gbps, "computed bytes at full block width")
	}
	rep.set("mem.triad_gbps", tri.gbps, tri.note)

	buildMS, err := probeHierarchy(rep, env.g)
	if err != nil {
		return nil, err
	}
	rep.set("hierarchy.build_p50_ms", buildMS, "3 builds of this workload's hierarchy")
	if err := probeDecomp(rep, env.g); err != nil {
		return nil, err
	}

	// Multi-core: the same operation with every processor allowed.
	var parMS []float64
	atProcs(runtime.NumCPU(), func() {
		parMS, err = timedLoop(0, 4, func(i int) (time.Duration, error) { return env.op(env.eng, nil, 1000+i) })
	})
	if err != nil {
		return nil, err
	}
	rep.set("par.speedup", median(plainMS)/median(parMS),
		fmt.Sprintf("p50 at GOMAXPROCS=1 ÷ p50 at GOMAXPROCS=%d (4 operations)", runtime.NumCPU()))

	if env.k == 1 {
		if err := probeFig6(rep, cfg.sz.Fig6); err != nil {
			return nil, err
		}
	} else if err := probeBlock(rep, env); err != nil {
		return nil, err
	}

	rep.tally = env.tally
	return rep, finishTrace(cfg, tr)
}

// atProcs runs fn with GOMAXPROCS set to procs and restores the old value.
func atProcs(procs int, fn func()) {
	old := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(old)
	fn()
}

// probeBlock measures what the block path buys and what the facade costs, on
// one fixed set of blockWidth right-hand sides.
func probeBlock(rep *report, env *solveEnv) error {
	ctx := context.Background()
	opt := solver.DefaultOptions()
	for j, b := range env.bs {
		meanFreeRHS(b, rhsStream(env.seed, 5000+j))
	}
	const reps = 3
	var seqMS, doMS, coreMS []float64
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		for _, b := range env.bs {
			if _, err := env.eng.Solve(ctx, b); err != nil {
				return err
			}
		}
		seqMS = append(seqMS, ms(time.Since(t0)))

		t0 = time.Now()
		if _, err := hcd.Do(ctx, env.g, hcd.SolveRequest{B: env.bs, Engine: env.eng, Options: opt}); err != nil {
			return err
		}
		doMS = append(doMS, ms(time.Since(t0)))

		t0 = time.Now()
		if _, err := env.eng.SolveBlock(ctx, env.bs, opt); err != nil {
			return err
		}
		coreMS = append(coreMS, ms(time.Since(t0)))
	}
	rep.set("solver.block_vs_seq_speedup", median(seqMS)/median(doMS),
		fmt.Sprintf("%d sequential warm-engine solves ÷ one k=%d hcd.Do, median of %d", env.k, env.k, reps))
	rep.set("hcd.do_overhead_ms", median(doMS)-median(coreMS),
		"hcd.Do wall − Engine.SolveBlock wall on identical inputs: routing and result copies")
	return nil
}
