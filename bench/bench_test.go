package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime"
	"sort"
	"testing"
	"time"

	"hcd/internal/graph"
	"hcd/internal/hierarchy"
	"hcd/internal/solver"
	"hcd/internal/workload"
)

func TestSupportedPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90},
		{199, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := supportedPercentile(c.n); got != c.want {
			t.Errorf("supportedPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
	// Nearest rank: the p-th percentile of 1..100 is p.
	asc := make([]float64, 100)
	for i := range asc {
		asc[i] = float64(i + 1)
	}
	for _, p := range []float64{50, 75, 95, 99, 100} {
		if got := percentile(asc, p); got != p {
			t.Errorf("percentile(1..100, %g) = %g", p, got)
		}
	}
	// The sample count travels with the figure.
	r := newReport()
	r.setLatency("latency_ms", asc[:31])
	if note := r.notes["latency_ms"]; !regexp.MustCompile(`p50 of 31 samples.*p50`).MatchString(note) {
		t.Errorf("latency note %q does not state the sample count and supported percentile", note)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{7, 1, 10, 3, 5, 2, 9, 4, 8, 6}
	q1, q2, q3 := quartiles(xs)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %g %g %g, want 2.75 5.5 8.25", q1, q2, q3)
	}
	if got, want := spread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-15 {
		t.Errorf("spread = %g, want %g", got, want)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, _, q3 := quartiles([]float64{1, 2}); q1 != 0.75 || q3 != 2.25 {
		t.Errorf("two-sample quartiles = %g, %g", q1, q3)
	}
}

func TestWindowedRate(t *testing.T) {
	// 16 operations of 100 ms, 2 units of work each: 20 units per second,
	// and three disturbed operations in one stretch do not move the median.
	ops := make([]float64, 16)
	for i := range ops {
		ops[i] = 100
	}
	if got := windowedRate(ops, 2); math.Abs(got-20) > 1e-9 {
		t.Errorf("windowedRate = %g, want 20", got)
	}
	ops[4], ops[5], ops[6] = 400, 400, 400
	if got := windowedRate(ops, 2); math.Abs(got-20) > 1e-9 {
		t.Errorf("windowedRate with a disturbed stretch = %g, want 20", got)
	}
	if got := windowedRate([]float64{100, 100, 100}, 1); math.Abs(got-10) > 1e-9 {
		t.Errorf("windowedRate of 3 operations = %g, want 10", got)
	}
}

func TestSelfTime(t *testing.T) {
	at := func(ms int) time.Duration { return time.Duration(ms) * time.Millisecond }
	spans := []span{
		{name: "root", start: at(0), end: at(100), parent: -1},
		{name: "a", start: at(10), end: at(30), parent: 0},   // sibling 1
		{name: "b", start: at(40), end: at(70), parent: 0},   // sibling 2
		{name: "b.x", start: at(50), end: at(60), parent: 2}, // nested in b: not root's child
		{name: "root2", start: at(100), end: at(150), parent: -1},
		{name: "c", start: at(110), end: at(140), parent: 4}, // overlapping siblings are merged,
		{name: "c", start: at(130), end: at(160), parent: 4}, // and clipped to the parent
	}
	want := []time.Duration{at(50), at(20), at(20), at(10), at(10), at(30), at(30)}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	agg := aggregate(&track{spans: spans})
	if c := agg["c"]; c.calls != 2 || c.total != at(60) {
		t.Errorf("aggregate[c] = %+v", c)
	}
	// Operator + preconditioner + self account for the whole root span.
	root := agg["root"]
	if sum := root.self + agg["a"].total + agg["b"].total; sum != root.total {
		t.Errorf("self + children = %v, root = %v", sum, root.total)
	}
}

func TestTrackNesting(t *testing.T) {
	tr := newTrack(1, time.Now())
	tr.begin("op", 7)
	tr.child("inner")
	tr.child("innermost")
	tr.end()
	tr.end()
	tr.child("sibling")
	tr.end()
	tr.end()
	var parents, reqs []int
	for _, s := range tr.spans {
		parents, reqs = append(parents, s.parent), append(reqs, s.req)
		if s.end < s.start {
			t.Errorf("span %s ends before it starts", s.name)
		}
	}
	if !reflect.DeepEqual(parents, []int{-1, 0, 1, 0}) || !reflect.DeepEqual(reqs, []int{7, 7, 7, 7}) {
		t.Errorf("parents %v reqs %v", parents, reqs)
	}
	var off *track // tracing off: every call is a no-op
	off.begin("op", 1)
	off.child("x")
	off.end()
	off.end()
}

func TestScheduleDeterminism(t *testing.T) {
	a := poissonSchedule(3, openRate, 10*time.Second)
	b := poissonSchedule(3, openRate, 10*time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed, different schedule")
	}
	if reflect.DeepEqual(a, poissonSchedule(4, openRate, 10*time.Second)) {
		t.Error("different seeds, same schedule")
	}
	if !sort.SliceIsSorted(a, func(i, j int) bool { return a[i] < a[j] }) {
		t.Error("schedule not ascending")
	}
	if n, want := float64(len(a)), 10*openRate; math.Abs(n-want) > 4*math.Sqrt(want) {
		t.Errorf("%g arrivals in 10 s at %g/s", n, openRate)
	}
	// A longer horizon extends the schedule; it does not change its start.
	long := poissonSchedule(3, openRate, 20*time.Second)
	if !reflect.DeepEqual(a, long[:len(a)]) || hashSchedule(a) != hashSchedule(long) {
		t.Error("schedule prefix depends on the horizon")
	}

	counts := make([]int, numClasses)
	perHandle := make(map[[2]int]int)
	for i := 0; i < 10000; i++ {
		rq := requestAt(1, i, 4)
		if rq != requestAt(1, i, 4) {
			t.Fatal("requestAt is not a function of (seed, index)")
		}
		if rq.handle < 0 || rq.handle >= 4 || rq.slot < 0 || rq.slot >= payloadSlots || rq.seed < 1 {
			t.Fatalf("request %d out of range: %+v", i, rq)
		}
		counts[rq.class]++
		perHandle[[2]int{int(rq.class), rq.handle}]++
	}
	// The mix is stratified, so the shares are exact, per class and per
	// (class, handle).
	for c, want := range []int{5000, 3000, 2000} {
		if counts[c] != want {
			t.Errorf("class %s drawn %d times in 10000, want %d", classNames[c], counts[c], want)
		}
		for h := 0; h < 4; h++ {
			if got := perHandle[[2]int{c, h}]; got != want/4 {
				t.Errorf("class %s on handle %d: %d requests, want %d", classNames[c], h, got, want/4)
			}
		}
	}
	if requestAt(1, 5, 4) == requestAt(2, 5, 4) && requestAt(1, 6, 4) == requestAt(2, 6, 4) && requestAt(1, 7, 4) == requestAt(2, 7, 4) {
		t.Error("the seed does not change the request stream")
	}
}

// TestWrongAnswerCountsAsFailed: an x that does not solve the system is a
// failure whatever the program says about it, on the library path and on the
// serve path.
func TestWrongAnswerCountsAsFailed(t *testing.T) {
	g := workload.Grid2D(12, 12, workload.Lognormal(1), 1)
	h, err := hierarchy.New(g, hierarchy.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, g.N())
	meanFreeRHS(b, 5)
	res, err := solver.PCGCtx(context.Background(), solver.LapOperator(g), h, b, solver.DefaultOptions())
	if err != nil || !res.Converged {
		t.Fatalf("reference solve: %v, converged=%t", err, res.Converged)
	}
	scratch := make([]float64, g.N())
	var tl tally
	_, ok := answerOK(g, res.X, b, scratch)
	tl.add(ok)
	if tl.failed != 0 {
		t.Fatalf("a correct answer was counted as failed")
	}
	wrong := append([]float64(nil), res.X...)
	wrong[17] += 1e-3
	for name, x := range map[string][]float64{"perturbed": wrong, "zero": make([]float64, g.N()), "short": res.X[:10], "NaN": nanVec(g.N())} {
		if rr, ok := answerOK(g, x, b, scratch); ok {
			t.Errorf("%s x accepted with residual %g", name, rr)
		}
	}
	_, ok = answerOK(g, wrong, b, scratch)
	tl.add(ok)
	if tl.attempted != 2 || tl.failed != 1 {
		t.Errorf("tally after one good and one wrong answer: %+v", tl)
	}

	// The same through the response checker: the server claims convergence,
	// the returned x says otherwise.
	env := &serveEnv{graphs: []*graph.Graph{g}, pool: [][]payload{{{b: b}}}, maxN: g.N()}
	c := &client{env: env, scratch: scratch}
	respond := func(x []float64) []byte {
		body, _ := json.Marshal(map[string]any{"cache_hit": true, "results": []map[string]any{
			{"converged": true, "iterations": res.Iterations, "final_residual": 1e-12, "x": x}}})
		return body
	}
	rq := request{class: classPayload}
	if s := c.check(rq, http.StatusOK, respond(res.X)); !s.ok {
		t.Errorf("correct payload response rejected: %s", s.why)
	}
	if s := c.check(rq, http.StatusOK, respond(wrong)); s.ok {
		t.Error("payload response with a wrong x accepted")
	}
	if s := c.check(rq, http.StatusTooManyRequests, respond(res.X)); s.ok {
		t.Error("refused request counted as served")
	}
	var p phase
	p.samples = []sample{c.check(rq, http.StatusOK, respond(res.X)), c.check(rq, http.StatusOK, respond(wrong))}
	var st tally
	if why := p.count(&st); st.failed != 1 || st.attempted != 2 || why == "" {
		t.Errorf("phase tally %+v, why %q", st, why)
	}
}

func nanVec(n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = math.NaN()
	}
	return x
}

func TestJudge(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	noisy := []float64{70, 130, 80, 120, 100, 75, 125, 90, 110, 100}
	for _, c := range []struct {
		name   string
		a, b   []float64
		better string
		want   string
	}{
		{"same", base, base, "lower", verdictWithin},
		{"slower within bound", base, scale(1.05), "lower", verdictWithin},
		{"slower beyond bound", base, scale(1.2), "lower", verdictRegressed},
		{"lower throughput beyond bound", base, scale(0.8), "higher", verdictRegressed},
		{"higher throughput", base, scale(1.3), "higher", verdictWithin},
		{"spread wider than bound", noisy, noisy, "lower", verdictUnresolved},
		{"noisy but every run better", noisy, scale(0.5), "lower", verdictWithin},
	} {
		if got := judge(c.a, c.b, c.better, 0.1); got.verdict != c.want {
			t.Errorf("%s: verdict %q (worse %.3f spread %.3f), want %q", c.name, got.verdict, got.worse, got.spread, c.want)
		}
	}
}

func TestCompareRecords(t *testing.T) {
	bf, err := loadBenchmarkFile(filepath.Join("..", benchmarkJSON))
	if err != nil {
		t.Fatal(err)
	}
	mk := func(latency float64, failed int) string {
		rec := newRecord(1, 0)
		for _, w := range workloadNames {
			for seed := int64(1); seed <= 4; seed++ {
				m := map[string]metricValue{}
				for _, d := range endToEnd {
					m[d.Name] = metricValue{Value: 10 + 0.01*float64(seed), Unit: d.Unit}
				}
				m["latency_ms"] = metricValue{Value: latency + 0.01*float64(seed), Unit: "ms"}
				rec.Runs = append(rec.Runs, recordRun{Workload: w, Seed: seed,
					outcome: outcome{Correct: failed == 0, Attempted: 10, Failed: failed, Metrics: m}})
			}
		}
		path := filepath.Join(t.TempDir(), "r.json")
		if err := rec.write(path); err != nil {
			t.Fatal(err)
		}
		return path
	}
	code := func(a, b string) (int, string) {
		var out, errs bytes.Buffer
		rc := compareRecords(bf, a, b, &out, func(err error) int { errs.WriteString(err.Error()); return 1 })
		return rc, errs.String()
	}
	base := mk(10, 0)
	if rc, msg := code(base, mk(10.1, 0)); rc != 0 {
		t.Errorf("two agreeing records: exit %d: %s", rc, msg)
	}
	if rc, msg := code(base, mk(20, 0)); rc == 0 || !regexp.MustCompile(`solve-oct3d/latency_ms`).MatchString(msg) {
		t.Errorf("a doubled latency: exit %d, message %q does not name the metric", rc, msg)
	}
	if rc, _ := code(base, mk(10, 1)); rc == 0 {
		t.Error("a record with failed operations compared clean")
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// TestSchemaMatchesBenchmarkJSON holds the declared benchmark against the
// driver's contract and against the tables this program prints from.
func TestSchemaMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", benchmarkJSON))
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(raw))
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	var have []string
	for k := range keys {
		have = append(have, k)
	}
	sort.Strings(have)
	if want := []string{"command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"}; !reflect.DeepEqual(have, want) {
		t.Errorf("top-level keys %v, want exactly %v", have, want)
	}
	bf, err := loadBenchmarkFile(filepath.Join("..", benchmarkJSON))
	if err != nil {
		t.Fatal(err)
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds %d", bf.RunSeconds)
	}

	seen := map[string]bool{}
	check := func(d metricDef) {
		if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("metric %+v breaks the naming rules", d)
		}
		if seen[d.Name] {
			t.Errorf("name %s used twice", d.Name)
		}
		seen[d.Name] = true
	}
	var names []string
	for _, w := range bf.Workloads {
		check(metricDef{Name: w.Name, Unit: "x", Better: "lower"})
		names = append(names, w.Name)
		if len(w.Why) > 200 || bytes.ContainsRune([]byte(w.Why), '\n') {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads %v, program runs %v", names, workloadNames)
	}
	var e2e []metricDef
	hasSetup := false
	for _, m := range bf.EndToEnd {
		check(m.metricDef)
		e2e = append(e2e, m.metricDef)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || m.metricDef == metricDef{"setup_s", "s", "lower"}
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("end_to_end differs from the program's table:\n json %v\n code %v", e2e, endToEnd)
	}
	for _, m := range bf.PerLayer {
		check(m)
	}
	if !reflect.DeepEqual(bf.PerLayer, perLayer) {
		t.Errorf("per_layer differs from the program's table:\n json %v\n code %v", bf.PerLayer, perLayer)
	}
	if len(perLayer) > 128 || len(endToEnd) > 16 {
		t.Errorf("%d per-layer and %d end-to-end metrics exceed the limits", len(perLayer), len(endToEnd))
	}
}

// TestFingerprintsRecorded: every workload has a recorded fingerprint with as
// many graphs as it builds. (That the recorded values match the generators is
// checked by every production-size run; it is too slow for a unit test.)
func TestFingerprintsRecorded(t *testing.T) {
	rec, err := recordedFingerprints()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloadNames {
		want := 1
		if w == wServe {
			want = len(production.Serve)
		}
		if got := len(rec[w].Graphs); got != want {
			t.Errorf("%s: %d recorded graph fingerprints, want %d", w, got, want)
		}
	}
	// A changed graph is caught.
	g := workload.Grid2D(8, 8, nil, 1)
	if fingerprintGraph(g) == fingerprintGraph(workload.Grid2D(8, 8, workload.Lognormal(1), 1)) {
		t.Error("fingerprint does not see edge weights")
	}
	if err := checkFingerprint(wBuild, []*graph.Graph{g}); err == nil {
		t.Error("a different graph passed the fingerprint check")
	}
}

// TestWorkloadsSmoke runs every workload at toy sizes, untraced and traced,
// and checks that each prints exactly the declared metric names, verifies its
// answers, and leaves a Chrome trace behind.
func TestWorkloadsSmoke(t *testing.T) {
	old := runtime.GOMAXPROCS(0)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
	toy := sizes{Oct: 10, Grid: 10, Fem: 26, Serve: []string{"grid2d:12", "road:12", "femesh:12", "grid3d:6"}, Fig6: 8}
	dir := t.TempDir()
	for _, w := range workloadNames {
		for _, trace := range []bool{false, true} {
			var log bytes.Buffer
			cfg := runCfg{workload: w, seed: 2, seconds: 0.4, trace: trace, sz: toy, outDir: dir, log: &log}
			res, err := runWorkload(cfg)
			if err != nil {
				t.Fatalf("%s trace=%t: %v\n%s", w, trace, err, log.String())
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%t: correct=%t attempted=%d failed=%d\n%s", w, trace, res.Correct, res.Attempted, res.Failed, log.String())
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%t: %d metrics printed, %d declared", w, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s trace=%t: metric %s missing or in the wrong unit (%q)", w, trace, d.Name, m.Unit)
				}
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || (!trace && m.Value <= 0) {
					t.Errorf("%s trace=%t: %s = %g", w, trace, d.Name, m.Value)
				}
			}
			if _, err := json.Marshal(res); err != nil {
				t.Errorf("%s trace=%t: result does not encode: %v", w, trace, err)
			}
			if trace {
				path := filepath.Join(dir, "trace-"+w+".json")
				raw, err := os.ReadFile(path)
				var doc struct {
					TraceEvents []map[string]any `json:"traceEvents"`
				}
				if err != nil || json.Unmarshal(raw, &doc) != nil || len(doc.TraceEvents) == 0 {
					t.Errorf("%s: no readable Chrome trace at %s (%v)", w, path, err)
				}
			}
		}
	}
}

// TestSolveSharesSumToWhole: on the solve workload the operator, the
// preconditioner and the solver's own time account for the traced solve span.
func TestSolveSharesSumToWhole(t *testing.T) {
	old := runtime.GOMAXPROCS(0)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
	toy := sizes{Oct: 12, Fig6: 8}
	res, err := runWorkload(runCfg{workload: wSolve, seed: 1, seconds: 0.3, trace: true, sz: toy, outDir: t.TempDir(), log: &bytes.Buffer{}})
	if err != nil {
		t.Fatal(err)
	}
	sum := res.Metrics["graph.lapmul_share"].Value + res.Metrics["hierarchy.apply_share"].Value + res.Metrics["solver.self_share"].Value
	if math.Abs(sum-100) > 2 {
		t.Errorf("operator + preconditioner + solver self = %.2f %% of the solve span", sum)
	}
}
