package replay

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"reflect"
	"runtime"
	"testing"
	"time"

	"hcd/internal/serve"
)

// smallScenario is a seconds-scale closed-loop scenario the engine tests
// replay in-process.
func smallScenario() Scenario {
	return Scenario{
		Name:     "test",
		Seed:     3,
		Requests: 12,
		Workers:  4,
		Tenants:  2,
		Graphs:   []GraphSpec{{Spec: "grid2d:6"}, {Spec: "road:8"}},
		Mix: []MixEntry{
			{Graph: 0, Weight: 2, RHS: 1},
			{Graph: 1, Weight: 1, RHS: 2},
		},
		SLO: SLOSpec{MinScore: 10, MaxErrorRate: 0.01},
	}
}

// TestGenerateDeterministic: the trace is a pure function of the scenario —
// same seed, same trace; different seed, different trace.
func TestGenerateDeterministic(t *testing.T) {
	sc := smallScenario()
	a, err := Generate(sc)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := Generate(sc)
	if !reflect.DeepEqual(a.Requests, b.Requests) {
		t.Fatal("same scenario generated different traces")
	}
	sc.Seed = 4
	c, _ := Generate(sc)
	if reflect.DeepEqual(a.Requests, c.Requests) {
		t.Fatal("different seeds generated identical traces")
	}
	// The mix draw respects the graph indices and rhs shapes it references.
	for _, rq := range a.Requests {
		if rq.Graph < 0 || rq.Graph > 1 || rq.RHS < 1 || rq.RHS > 2 {
			t.Fatalf("malformed request %+v", rq)
		}
		if rq.Tenant != "t0" && rq.Tenant != "t1" {
			t.Fatalf("tenant %q outside scenario range", rq.Tenant)
		}
	}
}

// TestOpenLoopOffsets: open arrivals carry strictly increasing offsets drawn
// from the exponential inter-arrival stream.
func TestOpenLoopOffsets(t *testing.T) {
	sc := smallScenario()
	sc.Arrival = ArrivalOpen
	sc.Rate = 1000
	tr, err := Generate(sc)
	if err != nil {
		t.Fatal(err)
	}
	prev := 0.0
	for _, rq := range tr.Requests {
		if rq.OffsetMS <= prev {
			t.Fatalf("offsets not increasing: %v then %v", prev, rq.OffsetMS)
		}
		prev = rq.OffsetMS
	}
}

// TestTraceRoundTrip: a trace survives its JSON file format.
func TestTraceRoundTrip(t *testing.T) {
	tr, err := Generate(smallScenario())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr.Requests, back.Requests) {
		t.Fatal("trace requests changed across the round trip")
	}
	if back.Scenario.Name != tr.Scenario.Name || back.Scenario.Seed != tr.Scenario.Seed {
		t.Fatal("scenario header changed across the round trip")
	}
	// A trace whose requests reference missing graphs is rejected.
	bad := *tr
	bad.Requests = append([]Request(nil), tr.Requests...)
	bad.Requests[0].Graph = 99
	buf.Reset()
	if err := bad.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadTrace(&buf); err == nil {
		t.Fatal("trace with dangling graph reference accepted")
	}
}

func TestScenarioValidate(t *testing.T) {
	for name, mut := range map[string]func(*Scenario){
		"no requests":  func(sc *Scenario) { sc.Requests = 0 },
		"no graphs":    func(sc *Scenario) { sc.Graphs = nil },
		"no mix":       func(sc *Scenario) { sc.Mix = nil },
		"bad graphref": func(sc *Scenario) { sc.Mix[0].Graph = 7 },
		"bad method":   func(sc *Scenario) { sc.Mix[0].Method = "gauss" },
		"open no rate": func(sc *Scenario) { sc.Arrival = ArrivalOpen },
		"bad arrival":  func(sc *Scenario) { sc.Arrival = "bursty" },
	} {
		sc := smallScenario()
		mut(&sc)
		if err := sc.Validate(); err == nil {
			t.Errorf("%s: invalid scenario accepted", name)
		}
	}
	for _, name := range BuiltinNames() {
		sc, err := Builtin(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := sc.Validate(); err != nil {
			t.Errorf("builtin %s invalid: %v", name, err)
		}
	}
	if _, err := Builtin("nope"); err == nil {
		t.Error("unknown builtin accepted")
	}
}

// runOnce replays the small scenario in-process and returns its report.
func runOnce(t *testing.T, sc Scenario) *Report {
	t.Helper()
	tr, err := Generate(sc)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(context.Background(), tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestReplayInProcess is the end-to-end contract on the default in-process
// target: every request converges, the aggregates are consistent, and the
// deterministic SLOs pass.
func TestReplayInProcess(t *testing.T) {
	rep := runOnce(t, smallScenario())
	if rep.Requests != 12 {
		t.Fatalf("requests %d, want 12", rep.Requests)
	}
	d := rep.Deterministic
	if d.Converged != 12 || d.Errors != 0 || d.Degraded != 0 {
		t.Fatalf("outcomes off: %+v", d)
	}
	if d.Outcomes["converged"] != 12 {
		t.Fatalf("outcome histogram off: %v", d.Outcomes)
	}
	if d.CacheHits != 12 {
		t.Fatalf("cache hits %d, want 12 (graphs are submitted before replay)", d.CacheHits)
	}
	if d.TotalIterations <= 0 || d.IterP99 <= 0 {
		t.Fatalf("iteration stats missing: %+v", d)
	}
	if rep.Score <= 0 || rep.Score > 100 {
		t.Fatalf("score %v outside (0, 100]", rep.Score)
	}
	if rep.Measured.LatencyP99MS <= 0 || rep.Measured.ThroughputRPS <= 0 {
		t.Fatalf("measured section missing: %+v", rep.Measured)
	}
	if !rep.SLOPass() {
		t.Fatalf("deterministic SLOs failed: %+v", rep.SLO)
	}
	if rep.Summary() == "" {
		t.Fatal("empty summary")
	}
}

// TestReplayScoreInvariant is the bit-identity acceptance gate: two replays
// of the same trace — run at different GOMAXPROCS — produce identical scores
// and identical Deterministic sections, because neither depends on timing.
func TestReplayScoreInvariant(t *testing.T) {
	sc := smallScenario()
	old := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(old)

	runtime.GOMAXPROCS(2)
	a := runOnce(t, sc)
	runtime.GOMAXPROCS(old)
	b := runOnce(t, sc)

	if a.Score != b.Score {
		t.Fatalf("score differs across GOMAXPROCS: %v vs %v", a.Score, b.Score)
	}
	if !reflect.DeepEqual(a.Deterministic, b.Deterministic) {
		t.Fatalf("deterministic section differs:\n%+v\n%+v", a.Deterministic, b.Deterministic)
	}
	aj, _ := json.Marshal(struct {
		Score float64
		Det   Deterministic
	}{a.Score, a.Deterministic})
	bj, _ := json.Marshal(struct {
		Score float64
		Det   Deterministic
	}{b.Score, b.Deterministic})
	if !bytes.Equal(aj, bj) {
		t.Fatalf("serialized deterministic sections differ:\n%s\n%s", aj, bj)
	}
}

// TestReplayOpenLoop drives the Poisson arrival path end to end.
func TestReplayOpenLoop(t *testing.T) {
	sc := smallScenario()
	sc.Arrival = ArrivalOpen
	sc.Rate = 2000 // ~6ms of schedule: fast, but still exercises the timers
	rep := runOnce(t, sc)
	if rep.Deterministic.Converged != sc.Requests {
		t.Fatalf("open-loop replay: %+v", rep.Deterministic)
	}
}

// TestReplayAgainstHandler replays against an explicit serve handler and
// checks the engine surfaces server-side outcomes (throttling) as
// deterministic error counts and failed SLOs.
func TestReplayAgainstHandler(t *testing.T) {
	// Zero-capacity admission: every solve is refused with 429.
	srv := serve.New(serve.Config{
		Admission: serve.AdmissionConfig{Rate: 1e-9, Burst: 0.5, MaxQueue: 0},
	})
	sc := smallScenario()
	tr, err := Generate(sc)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(context.Background(), tr, Options{Handler: srv.Handler()})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Deterministic.Errors != sc.Requests || rep.Deterministic.Outcomes["throttled"] != sc.Requests {
		t.Fatalf("throttled replay not surfaced: %+v", rep.Deterministic)
	}
	if rep.SLOPass() {
		t.Fatal("SLOs passed on an all-throttled run")
	}
}

// TestReplayRemoteTarget replays over real HTTP against an httptest server —
// the BaseURL path cmd/hcd-replay -target uses.
func TestReplayRemoteTarget(t *testing.T) {
	srv := serve.New(serve.Config{
		Admission: serve.AdmissionConfig{Rate: 1e12, Burst: 1e12},
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	sc := smallScenario()
	sc.Requests = 6
	tr, err := Generate(sc)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(context.Background(), tr, Options{BaseURL: ts.URL, Client: ts.Client()})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Deterministic.Converged != 6 {
		t.Fatalf("remote replay: %+v", rep.Deterministic)
	}
}

// TestScoreBounds pins the fitness fold: perfect runs score high, an
// all-error run scores zero, and penalties subtract.
func TestScoreBounds(t *testing.T) {
	w := DefaultWeights()
	perfect := scoreOf(Fitness{SuccessRate: 1, TailScore: 1, Efficiency: 1, Weights: w})
	if perfect != 100 {
		t.Fatalf("perfect fitness scores %v, want 100", perfect)
	}
	ruined := scoreOf(Fitness{SuccessRate: 0, ErrorRate: 1, Weights: w})
	if ruined != 0 {
		t.Fatalf("all-error fitness scores %v, want 0", ruined)
	}
	good := scoreOf(Fitness{SuccessRate: 1, TailScore: 0.5, Efficiency: 0.5, Weights: w})
	degraded := scoreOf(Fitness{SuccessRate: 1, TailScore: 0.5, Efficiency: 0.5, DegradedRate: 0.5, Weights: w})
	if degraded >= good {
		t.Fatalf("degradation did not cost score: %v vs %v", degraded, good)
	}
}

// TestSLOEvaluation: limits of zero disable checks; measured checks are
// advisory and never fail SLOPass.
func TestSLOEvaluation(t *testing.T) {
	rep := &Report{Score: 50, Fitness: Fitness{ErrorRate: 0.5}}
	rep.Measured.LatencyP99MS = 1e9
	rep.SLO = evalSLO(SLOSpec{}, rep)
	if len(rep.SLO) != 0 {
		t.Fatalf("zero SLO spec produced checks: %+v", rep.SLO)
	}
	rep.SLO = evalSLO(SLOSpec{MinScore: 60, MaxErrorRate: 0.1, MaxP99MS: 1}, rep)
	if len(rep.SLO) != 3 {
		t.Fatalf("want 3 checks, got %+v", rep.SLO)
	}
	for _, c := range rep.SLO {
		if c.Pass {
			t.Errorf("check %s passed, want fail", c.Name)
		}
	}
	// Only the measured p99 check failing keeps the deterministic gate green.
	rep2 := &Report{Score: 90}
	rep2.Measured.LatencyP99MS = 1e9
	rep2.SLO = evalSLO(SLOSpec{MinScore: 60, MaxP99MS: 1}, rep2)
	if !rep2.SLOPass() {
		t.Fatal("advisory measured check failed the deterministic gate")
	}
}

// TestRecordRoundTripAndStamp: the BENCH_replay.json stamp carries the run
// environment and survives its file format.
func TestRecordRoundTripAndStamp(t *testing.T) {
	rec := NewRecord(&Report{Scenario: "steady", Score: 87.5})
	if rec.Date == "" || rec.GoVersion == "" || rec.NumCPU <= 0 {
		t.Fatalf("environment stamp missing: %+v", rec)
	}
	// The commit stamp resolves wherever git does: in a checkout, not in a
	// copy of the tree made without .git.
	if err := exec.Command("git", "rev-parse", "HEAD").Run(); err == nil && len(rec.Commit) < 7 {
		t.Errorf("commit stamp %q, want a git hash", rec.Commit)
	}
	buf, err := rec.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasSuffix(buf, []byte("\n")) {
		t.Error("marshal without trailing newline")
	}
	var back Record
	if err := json.Unmarshal(buf, &back); err != nil {
		t.Fatal(err)
	}
	if back.Commit != rec.Commit || !reflect.DeepEqual(back.Tags, []string{"replay", "steady"}) ||
		back.Replay == nil || back.Replay.Score != 87.5 {
		t.Errorf("round trip lost fields: %+v", back)
	}
}

// TestCommittedRecordClearsFloor: the replay-score gate lets a score drop
// at most 5 points below the committed one, so steady's min_score must sit
// between the committed score and 5 below it; regenerating the record
// without moving the floor (or the reverse) fails here.
func TestCommittedRecordClearsFloor(t *testing.T) {
	data, err := os.ReadFile("../../BENCH_replay.json")
	if err != nil {
		t.Fatal(err)
	}
	var rec Record
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatal(err)
	}
	sc, err := Builtin("steady")
	if err != nil {
		t.Fatal(err)
	}
	if rec.Replay == nil || rec.Replay.Scenario != "steady" {
		t.Fatalf("BENCH_replay.json holds no steady report: %+v", rec)
	}
	// The floor is written to a tenth: 88.4008 − 5 → 83.4.
	score, floor := rec.Replay.Score, sc.SLO.MinScore
	if floor > score || floor < math.Floor((score-5)*10)/10 {
		t.Fatalf("steady's min_score %v, want within 5 points (to a tenth) below the committed score %v",
			floor, score)
	}
}

// TestRunRespectsContext: a cancelled context aborts the submit phase with
// an error instead of hanging.
func TestRunRespectsContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	tr, err := Generate(smallScenario())
	if err != nil {
		t.Fatal(err)
	}
	slow := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
			w.WriteHeader(http.StatusServiceUnavailable)
		case <-time.After(5 * time.Second):
		}
	})
	if _, err := Run(ctx, tr, Options{Handler: slow}); err == nil {
		t.Fatal("cancelled run reported success")
	}
}
