package main

import (
	_ "embed"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"reflect"
	"time"

	"hcd/internal/cli"
	"hcd/internal/graph"
	"hcd/internal/workload"
)

// sizes fixes the input dimensions. The production values are the measured
// workloads; tests shrink them to run in milliseconds.
type sizes struct {
	Oct   int      // solve-oct3d: OCT3D side
	Grid  int      // build-grid3d: Grid3D side
	Fem   int      // block-femesh2d: FEMesh side
	Serve []string // serve-mixed: generator specs submitted as handles
	Fig6  int      // OCT3D side of the Figure 6 probe (cmd/hcd-fig6's default)
}

var production = sizes{
	Oct:   64,
	Grid:  64,
	Fem:   64,
	Serve: []string{"grid2d:64", "road:48", "femesh:48", "grid3d:16"},
	Fig6:  20,
}

func (s sizes) isProduction() bool {
	return reflect.DeepEqual(s, production)
}

// graphSeed generates every workload graph. Graphs do not vary with -seed:
// sizing showed the OCT3D iteration count moving 43→48 (18 % of solve time)
// across weight draws, which would bury any claim smaller than that. -seed
// drives what is cheap to vary and does not change the work per operation:
// right-hand sides, clustering perturbation seeds, request mix, arrivals.
const graphSeed = 1

// blockWidth is the number of right-hand sides per block-femesh2d call.
const blockWidth = 8

// buildGraphs returns the fine graph(s) of a workload.
func buildGraphs(name string, sz sizes) ([]*graph.Graph, error) {
	switch name {
	case wSolve:
		opt := workload.DefaultOCTOptions()
		opt.Seed = graphSeed
		return []*graph.Graph{workload.OCT3D(sz.Oct, sz.Oct, sz.Oct, opt)}, nil
	case wBuild:
		return []*graph.Graph{workload.Grid3D(sz.Grid, sz.Grid, sz.Grid, workload.Lognormal(1), graphSeed)}, nil
	case wBlock:
		g, err := workload.FEMesh(sz.Fem, sz.Fem, -1, nil, graphSeed)
		if err != nil {
			return nil, err
		}
		return []*graph.Graph{g}, nil
	case wServe:
		// The server builds its own copies from the same specs; these are
		// the benchmark's, for payload generation and answer checking.
		gs := make([]*graph.Graph, len(sz.Serve))
		for i, spec := range sz.Serve {
			g, err := cli.BuildGraph(spec, graphSeed)
			if err != nil {
				return nil, err
			}
			gs[i] = g
		}
		return gs, nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// workloadGraphs builds a workload's graphs and, at production size, holds
// them against the recorded fingerprints.
func workloadGraphs(cfg runCfg) ([]*graph.Graph, error) {
	gs, err := buildGraphs(cfg.workload, cfg.sz)
	if err != nil {
		return nil, err
	}
	if cfg.sz.isProduction() {
		if err := checkFingerprint(cfg.workload, gs); err != nil {
			return nil, err
		}
	}
	return gs, nil
}

// rhsStream derives the seed of the i-th right-hand side of a run.
func rhsStream(seed int64, i int) int64 { return seed*1_000_003 + int64(i) }

// meanFreeRHS draws a Gaussian right-hand side orthogonal to the constant
// vector (the Laplacian's null space) into dst.
func meanFreeRHS(dst []float64, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	sum := 0.0
	for i := range dst {
		dst[i] = rng.NormFloat64()
		sum += dst[i]
	}
	mean := sum / float64(len(dst))
	for i := range dst {
		dst[i] -= mean
	}
}

// poissonSchedule returns the due offsets of an open-loop arrival process of
// the given rate (requests per second) up to horizon: exponential gaps from
// one seeded stream, so a seed names one schedule exactly.
func poissonSchedule(seed int64, rate float64, horizon time.Duration) []time.Duration {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed0a11))
	var out []time.Duration
	at := 0.0
	for {
		at += rng.ExpFloat64() / rate
		d := time.Duration(at * float64(time.Second))
		if d >= horizon {
			return out
		}
		out = append(out, d)
	}
}

// Fingerprints pin what is measured: a later edit to internal/workload that
// changes a generated graph, or to this package that changes the first
// right-hand side or the arrival schedule, fails the run instead of silently
// measuring something else.

type graphPrint struct {
	N   int    `json:"n"`
	M   int    `json:"m"`
	FNV string `json:"fnv64"`
}

type workloadPrint struct {
	Graphs []graphPrint `json:"graphs"`
	// RHS0 hashes the first right-hand side of the seed-1 run; Schedule the
	// first schedulePrefix arrival offsets of the seed-1 open-loop phase.
	RHS0     string `json:"rhs0,omitempty"`
	Schedule string `json:"schedule,omitempty"`
}

// fingerprintSeed is the -seed the RHS0 and Schedule hashes were recorded at.
const fingerprintSeed = 1

// schedulePrefix is how many arrival offsets the schedule hash covers; the
// prefix does not depend on the phase length.
const schedulePrefix = 256

//go:embed fingerprints.json
var fingerprintsJSON []byte

func recordedFingerprints() (map[string]workloadPrint, error) {
	var fp map[string]workloadPrint
	if err := json.Unmarshal(fingerprintsJSON, &fp); err != nil {
		return nil, fmt.Errorf("bench/fingerprints.json: %w", err)
	}
	return fp, nil
}

type hasher struct {
	h   hash.Hash64
	buf [8]byte
}

func newHasher() *hasher { return &hasher{h: fnv.New64a()} }

func (h *hasher) word(v uint64) {
	binary.LittleEndian.PutUint64(h.buf[:], v)
	h.h.Write(h.buf[:])
}

func (h *hasher) floats(xs []float64) {
	for _, x := range xs {
		h.word(math.Float64bits(x))
	}
}

func (h *hasher) ints(xs []int) {
	for _, x := range xs {
		h.word(uint64(x))
	}
}

func (h *hasher) sum() string { return fmt.Sprintf("%016x", h.h.Sum64()) }

func hashFloats(xs []float64) string {
	h := newHasher()
	h.floats(xs)
	return h.sum()
}

func fingerprintGraph(g *graph.Graph) graphPrint {
	off, adj, w := g.CSR()
	h := newHasher()
	h.ints(off)
	h.ints(adj)
	h.floats(w)
	return graphPrint{N: g.N(), M: g.M(), FNV: h.sum()}
}

func hashSchedule(sched []time.Duration) string {
	h := newHasher()
	for i, d := range sched {
		if i == schedulePrefix {
			break
		}
		h.word(uint64(d))
	}
	return h.sum()
}

// currentFingerprint computes the fingerprint of a workload's inputs as the
// code generates them now.
func currentFingerprint(name string, graphs []*graph.Graph) workloadPrint {
	var fp workloadPrint
	for _, g := range graphs {
		fp.Graphs = append(fp.Graphs, fingerprintGraph(g))
	}
	switch name {
	case wSolve, wBlock, wServe:
		b := make([]float64, graphs[0].N())
		meanFreeRHS(b, rhsStream(fingerprintSeed, 0))
		fp.RHS0 = hashFloats(b)
	}
	if name == wServe {
		fp.Schedule = hashSchedule(poissonSchedule(fingerprintSeed, openRate, time.Minute))
	}
	return fp
}

// checkFingerprint compares the inputs generated now against the recorded
// ones. Graphs are checked on every run; the seed-dependent hashes are
// recomputed at fingerprintSeed, so they are checked on every run too.
func checkFingerprint(name string, graphs []*graph.Graph) error {
	rec, err := recordedFingerprints()
	if err != nil {
		return err
	}
	want, ok := rec[name]
	if !ok {
		return fmt.Errorf("fingerprint: no record for workload %s", name)
	}
	got := currentFingerprint(name, graphs)
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("fingerprint mismatch on %s: inputs changed since bench/fingerprints.json was recorded\n  recorded %+v\n  now      %+v\n(if the change is intended, regenerate with `go run ./bench -fingerprint`)", name, want, got)
	}
	return nil
}
