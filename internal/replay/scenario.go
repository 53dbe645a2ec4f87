// Package replay is the scenario-level observability harness: it generates
// deterministic request traces from seedable scenario descriptions, replays
// them against the serve stack (in-process or over HTTP), and scores the run
// against SLOs with a weighted multi-objective fitness function.
//
// The report splits into two sections with different determinism contracts.
// The Deterministic section — outcomes, iteration counts, cache hits — is
// derived only from solver observables that are bit-identical at any
// GOMAXPROCS (the library's reproducibility invariant), and the fitness
// Score is computed from it alone, so a committed score is comparable across
// machines and runs. The Measured section — wall-clock latency quantiles,
// throughput, peak RSS — varies run to run and is reported for humans and
// trend dashboards, never for bit-exact comparison.
package replay

import (
	"fmt"
	"sort"
)

// GraphSpec names one graph a scenario solves against: a cli.BuildGraph spec
// plus the hierarchy-build knobs the submit endpoint accepts.
type GraphSpec struct {
	// Spec is the generator grammar string (grid3d:12, road:24, femesh:16...).
	Spec string `json:"spec"`
	// Seed controls the generator (default 1).
	Seed int64 `json:"seed,omitempty"`
	// SizeCap overrides the hierarchy cluster size cap (0 = server default).
	SizeCap int `json:"sizecap,omitempty"`
}

// MixEntry is one request shape in the solve mix; requests are drawn from
// the mix with probability proportional to Weight.
type MixEntry struct {
	// Graph indexes Scenario.Graphs.
	Graph int `json:"graph"`
	// Weight is the relative draw frequency (default 1).
	Weight float64 `json:"weight,omitempty"`
	// RHS is the right-hand-side count per request (default 1).
	RHS int `json:"rhs,omitempty"`
	// Tol and MaxIter override the solver defaults when non-zero.
	Tol     float64 `json:"tol,omitempty"`
	MaxIter int     `json:"max_iter,omitempty"`
	// Method selects the solve path: "" or "pcg", "resilient".
	Method string `json:"method,omitempty"`
}

// SLOSpec is the scenario's service-level objectives. A zero limit disables
// that check; rates are fractions in [0, 1]. MaxP99MS judges the Measured
// section and is therefore advisory — it can flap with machine load — while
// the other three judge the Deterministic section.
type SLOSpec struct {
	MinScore        float64 `json:"min_score,omitempty"`
	MaxErrorRate    float64 `json:"max_error_rate,omitempty"`
	MaxDegradedRate float64 `json:"max_degraded_rate,omitempty"`
	MaxP99MS        float64 `json:"max_p99_ms,omitempty"`
}

// FitnessWeights weight the fitness terms. A scenario that leaves
// Scenario.Weights nil gets DefaultWeights; an explicit weights block is
// used as-is, with a zero weight simply ignoring that term.
type FitnessWeights struct {
	// Success rewards converged requests.
	Success float64 `json:"success"`
	// Tail rewards a low 99th-percentile iteration count (tail work proxy).
	Tail float64 `json:"tail"`
	// Efficiency rewards a low mean iteration count.
	Efficiency float64 `json:"efficiency"`
	// ErrorPenalty and DegradedPenalty subtract score per unit rate.
	ErrorPenalty    float64 `json:"error_penalty"`
	DegradedPenalty float64 `json:"degraded_penalty"`
}

// DefaultWeights is the standard fitness weighting: success dominates, tail
// behaviour matters half as much, raw efficiency a quarter; errors cost
// twice what degraded service costs.
func DefaultWeights() FitnessWeights {
	return FitnessWeights{Success: 1, Tail: 0.5, Efficiency: 0.25, ErrorPenalty: 2, DegradedPenalty: 1}
}

// Arrival disciplines.
const (
	// ArrivalClosed replays with a fixed worker pool: each worker issues its
	// next request as soon as the previous answer lands (throughput-bound).
	ArrivalClosed = "closed"
	// ArrivalOpen replays a Poisson arrival process at Scenario.Rate
	// requests/second regardless of completions (latency-under-load-bound).
	ArrivalOpen = "open"
)

// Scenario describes one replayable workload: which graphs, what solve mix,
// how the requests arrive, and how the run is judged. Scenarios marshal to
// JSON, so they live in files next to the traces they generate.
type Scenario struct {
	Name     string `json:"name"`
	Seed     int64  `json:"seed"`
	Requests int    `json:"requests"`
	// Workers is the closed-loop concurrency (and the open-loop in-flight
	// cap). Default 4.
	Workers int    `json:"workers,omitempty"`
	Arrival string `json:"arrival,omitempty"` // closed (default) | open
	// Rate is the open-loop arrival rate in requests/second.
	Rate float64 `json:"rate,omitempty"`
	// Tenants spreads requests over this many synthetic tenants (default 1).
	Tenants int             `json:"tenants,omitempty"`
	Graphs  []GraphSpec     `json:"graphs"`
	Mix     []MixEntry      `json:"mix"`
	SLO     SLOSpec         `json:"slo,omitempty"`
	Weights *FitnessWeights `json:"weights,omitempty"` // nil = DefaultWeights
}

// withDefaults normalizes the tunables the generator and engine read.
func (sc Scenario) withDefaults() Scenario {
	if sc.Workers <= 0 {
		sc.Workers = 4
	}
	if sc.Arrival == "" {
		sc.Arrival = ArrivalClosed
	}
	if sc.Tenants <= 0 {
		sc.Tenants = 1
	}
	return sc
}

// Validate rejects scenarios the generator cannot materialize.
func (sc Scenario) Validate() error {
	if sc.Requests <= 0 {
		return fmt.Errorf("replay: scenario %q: requests must be positive", sc.Name)
	}
	if len(sc.Graphs) == 0 {
		return fmt.Errorf("replay: scenario %q: no graphs", sc.Name)
	}
	if len(sc.Mix) == 0 {
		return fmt.Errorf("replay: scenario %q: empty solve mix", sc.Name)
	}
	for i, m := range sc.Mix {
		if m.Graph < 0 || m.Graph >= len(sc.Graphs) {
			return fmt.Errorf("replay: scenario %q: mix[%d] references graph %d of %d", sc.Name, i, m.Graph, len(sc.Graphs))
		}
		if m.Weight < 0 {
			return fmt.Errorf("replay: scenario %q: mix[%d] has negative weight", sc.Name, i)
		}
		switch m.Method {
		case "", "pcg", "resilient":
		default:
			return fmt.Errorf("replay: scenario %q: mix[%d] has unknown method %q", sc.Name, i, m.Method)
		}
	}
	switch sc.Arrival {
	case "", ArrivalClosed:
	case ArrivalOpen:
		if sc.Rate <= 0 {
			return fmt.Errorf("replay: scenario %q: open arrivals need rate > 0", sc.Name)
		}
	default:
		return fmt.Errorf("replay: scenario %q: unknown arrival %q", sc.Name, sc.Arrival)
	}
	return nil
}

// builtins are the named scenarios cmd/hcd-replay ships: a seconds-scale
// smoke, and the committed benchmark mix over the three structured workload
// families (grid, road network, FE mesh).
var builtins = map[string]Scenario{
	"smoke": {
		Name:     "smoke",
		Seed:     1,
		Requests: 16,
		Workers:  4,
		Graphs:   []GraphSpec{{Spec: "grid2d:8"}},
		Mix:      []MixEntry{{Graph: 0, Weight: 1, RHS: 1}},
		SLO:      SLOSpec{MinScore: 40, MaxErrorRate: 0.01},
	},
	"steady": {
		Name:     "steady",
		Seed:     7,
		Requests: 48,
		Workers:  8,
		Tenants:  3,
		Graphs: []GraphSpec{
			{Spec: "grid3d:10"},
			{Spec: "road:24"},
			{Spec: "femesh:20"},
		},
		// The committed mix stays on the PCG path, the serve stack's default
		// route. Its iteration counts are bit-identical at any GOMAXPROCS,
		// which is what lets the score gate with no noise margin.
		Mix: []MixEntry{
			{Graph: 0, Weight: 3, RHS: 1},
			{Graph: 0, Weight: 1, RHS: 4},
			{Graph: 1, Weight: 2, RHS: 1},
			{Graph: 2, Weight: 2, RHS: 2},
			{Graph: 2, Weight: 1, RHS: 1, Tol: 1e-6},
		},
		// MinScore is the committed BENCH_replay.json score (88.4008) less
		// the 5-point drop the replay-score gate allows, to a tenth, so
		// `hcd-replay -scenario steady -gate` is the whole gate. Move it
		// with the record (TestCommittedRecordClearsFloor holds the two
		// within 5 points).
		SLO: SLOSpec{MinScore: 83.4, MaxErrorRate: 0.01, MaxDegradedRate: 0.01},
	},
	"burst": {
		Name:     "burst",
		Seed:     11,
		Requests: 64,
		Workers:  16,
		Arrival:  ArrivalOpen,
		Rate:     400,
		Tenants:  4,
		Graphs: []GraphSpec{
			{Spec: "grid2d:16"},
			{Spec: "road:16"},
		},
		Mix: []MixEntry{
			{Graph: 0, Weight: 2, RHS: 1},
			{Graph: 1, Weight: 1, RHS: 2},
		},
		SLO: SLOSpec{MinScore: 40, MaxErrorRate: 0.01},
	},
}

// Builtin returns the named built-in scenario.
func Builtin(name string) (Scenario, error) {
	sc, ok := builtins[name]
	if !ok {
		return Scenario{}, fmt.Errorf("replay: unknown scenario %q (have %v)", name, BuiltinNames())
	}
	return sc, nil
}

// BuiltinNames lists the built-in scenarios, sorted.
func BuiltinNames() []string {
	names := make([]string, 0, len(builtins))
	for n := range builtins {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
