package hcd_test

// Integration tests for the observability layer: metric-registry invariance
// under parallelism, span-tree well-formedness across cancellation and
// injected faults, trace-export nesting of a resilient solve, and the
// residual-streaming observers.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"runtime"
	"strings"
	"testing"

	"hcd"
	"hcd/internal/faultinject"
	"hcd/internal/kernel"
	"hcd/internal/obs"
)

// meanFreeRHS builds a deterministic right-hand side orthogonal to the
// constant vector (Laplacian systems are singular along 1).
func meanFreeRHS(n int) []float64 {
	b := make([]float64, n)
	s := 0.0
	for i := range b {
		b[i] = float64((i*7919)%13) - 6
		s += b[i]
	}
	for i := range b {
		b[i] -= s / float64(n)
	}
	return b
}

// decomposeCounters runs one instrumented DecomposeCtx build at the given
// GOMAXPROCS and returns the registry snapshot with the legitimately
// schedule-dependent series (wall times, scratch allocations) removed.
func decomposeCounters(t *testing.T, procs int) map[string]float64 {
	t.Helper()
	prev := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(prev)
	reg := hcd.NewMetricRegistry()
	ctx := hcd.WithMetricRegistry(context.Background(), reg)
	g := hcd.Grid3D(8, 8, 8, hcd.LognormalWeights(1), 1)
	if _, err := hcd.DecomposeCtx(ctx, g, hcd.DefaultDecomposeOptions(hcd.MethodFixedDegree)); err != nil {
		t.Fatal(err)
	}
	out := map[string]float64{}
	for k, v := range reg.Snapshot() {
		if strings.Contains(k, "_ns_total") || strings.Contains(k, "_allocs_total") {
			continue
		}
		out[k] = v
	}
	return out
}

// TestRegistryCountersGOMAXPROCSInvariant pins the exact-commutativity claim:
// the aggregated counters of a parallel build/evaluate (stage runs, cert
// cores, stubs, subsets, cluster counts, quality gauges) are identical no
// matter how many workers the run fanned across.
func TestRegistryCountersGOMAXPROCSInvariant(t *testing.T) {
	serial := decomposeCounters(t, 1)
	parallel := decomposeCounters(t, 4)
	if len(serial) == 0 {
		t.Fatal("no registry series published by the build")
	}
	for k, v := range serial {
		if pv, ok := parallel[k]; !ok || pv != v {
			t.Errorf("%s: serial %v, parallel %v", k, v, pv)
		}
	}
	for k := range parallel {
		if _, ok := serial[k]; !ok {
			t.Errorf("%s: present only in the parallel run", k)
		}
	}
	if serial["hcd_cert_cores_total"] == 0 || serial["hcd_evaluate_total"] != 1 {
		t.Errorf("expected cert/evaluate series, got %v", serial)
	}
}

func TestSpanTreeClosedAfterCancelledBuild(t *testing.T) {
	tr := hcd.NewTracer()
	ctx, cancel := context.WithCancel(hcd.WithTracer(context.Background(), tr))
	cancel()
	g := hcd.Grid2D(30, 30, nil, 1)
	if _, err := hcd.DecomposeCtx(ctx, g, hcd.DefaultDecomposeOptions(hcd.MethodFixedDegree)); err == nil {
		t.Fatal("cancelled build reported success")
	}
	if _, err := hcd.SolvePCGCtx(ctx, g, meanFreeRHS(g.N()), nil, hcd.DefaultSolveOptions()); err != nil {
		t.Fatalf("cancelled solve must return a result, not an error: %v", err)
	}
	if err := tr.Check(); err != nil {
		t.Fatalf("span tree malformed after cancellation: %v", err)
	}
}

func TestSpanTreeClosedAfterInjectedStageFault(t *testing.T) {
	tr := hcd.NewTracer()
	ctx := hcd.WithTracer(context.Background(), tr)
	restore := faultinject.Activate(map[string]faultinject.Spec{
		faultinject.StageFail: {OnHit: 1, Count: 1},
	})
	g := hcd.Grid2D(10, 10, nil, 1)
	_, err := hcd.DecomposeCtx(ctx, g, hcd.DefaultDecomposeOptions(hcd.MethodFixedDegree))
	// Past the fault window the same build succeeds.
	_, rerr := hcd.DecomposeCtx(context.Background(), g, hcd.DefaultDecomposeOptions(hcd.MethodFixedDegree))
	restore()
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("err = %v, want the injected stage fault", err)
	}
	if rerr != nil {
		t.Fatalf("clean rebuild after the fault window: %v", rerr)
	}
	if err := tr.Check(); err != nil {
		t.Fatalf("span tree malformed after stage fault: %v", err)
	}
}

// TestResilientTraceNesting runs a fault-injected resilient solve under a
// tracer and asserts the exported span tree has the documented shape: ladder
// rungs nest under resilient/solve, the hierarchy build and the solver
// attempts nest under their rung, and the fault fire appears as an instant
// event. The export must be valid Chrome trace-event JSON.
func TestResilientTraceNesting(t *testing.T) {
	tr := hcd.NewTracer()
	reg := hcd.NewMetricRegistry()
	ctx := hcd.WithMetricRegistry(hcd.WithTracer(context.Background(), tr), reg)
	faultinject.SetObserver(func(point string) { tr.Instant("fault/" + point) })
	defer faultinject.SetObserver(nil)
	restore := faultinject.Activate(map[string]faultinject.Spec{
		faultinject.MatvecNaN: {OnHit: 1, Count: 2},
	})
	g := hcd.Grid2D(12, 12, nil, 1)
	res, rep, err := hcd.SolveResilient(ctx, g, meanFreeRHS(g.N()), hcd.PrecondSpec{})
	restore()
	if err != nil || !res.Converged {
		t.Fatalf("ladder failed: %v (report %s)", err, rep)
	}
	if !rep.Recovered {
		t.Fatalf("expected a recovery, report %s", rep)
	}
	if err := tr.Check(); err != nil {
		t.Fatalf("span tree malformed: %v", err)
	}

	spans := tr.Spans()
	byID := map[uint64]obs.SpanInfo{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	parentName := func(s obs.SpanInfo) string {
		if p, ok := byID[s.Parent]; ok {
			return p.Name
		}
		return ""
	}
	var root, rungs, builds, solves, attempts int
	for _, s := range spans {
		switch {
		case s.Name == "resilient/solve":
			root++
			if s.Parent != 0 {
				t.Errorf("resilient/solve has parent %d, want root", s.Parent)
			}
		case strings.HasPrefix(s.Name, "resilient/rung/"):
			rungs++
			if parentName(s) != "resilient/solve" {
				t.Errorf("rung %s parented by %q, want resilient/solve", s.Name, parentName(s))
			}
		case s.Name == "hierarchy/build":
			builds++
			if !strings.HasPrefix(parentName(s), "resilient/rung/") {
				t.Errorf("hierarchy/build parented by %q, want a rung", parentName(s))
			}
		case s.Name == "solve/pcg":
			solves++
			if !strings.HasPrefix(parentName(s), "resilient/rung/") {
				t.Errorf("solve/pcg parented by %q, want a rung", parentName(s))
			}
		case s.Name == "solve/attempt":
			attempts++
			if pn := parentName(s); pn != "solve/pcg" {
				t.Errorf("solve/attempt parented by %q, want solve/pcg", pn)
			}
		}
	}
	if root != 1 || rungs < 2 || builds < 1 || solves < 2 || attempts < 2 {
		t.Fatalf("span census root=%d rungs=%d builds=%d solves=%d attempts=%d; want a multi-rung tree", root, rungs, builds, solves, attempts)
	}

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace not valid JSON: %v", err)
	}
	foundFault := false
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "i" && ev.Name == "fault/"+faultinject.MatvecNaN {
			foundFault = true
		}
	}
	if !foundFault {
		t.Fatal("fault fire missing from the trace as an instant event")
	}

	// The registry aggregated the same run: the ladder and solver published.
	snap := reg.Snapshot()
	if snap["hcd_resilient_solves_total"] != 1 || snap["hcd_resilient_recovered_total"] != 1 {
		t.Errorf("resilient series = %v", snap)
	}
	if snap["hcd_solve_total"] < 2 {
		t.Errorf("hcd_solve_total = %v, want ≥ 2 (failed rung + recovery)", snap["hcd_solve_total"])
	}
}

// TestObserverMatchesResiduals pins the streaming contract: the observer
// receives exactly the post-initial residual history, in order, with 1-based
// iteration numbers.
func TestObserverMatchesResiduals(t *testing.T) {
	g := hcd.Grid2D(16, 16, nil, 1)
	b := meanFreeRHS(g.N())
	var iters []int
	var seen []float64
	opt := hcd.DefaultSolveOptions()
	opt.Observer = hcd.ObserverFunc(func(i int, r float64) {
		iters = append(iters, i)
		seen = append(seen, r)
	})
	res, err := hcd.SolvePCGCtx(context.Background(), g, b, nil, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("outcome %v", res.Outcome)
	}
	if len(seen) != len(res.Residuals)-1 {
		t.Fatalf("observer saw %d residuals, history has %d (+initial)", len(seen), len(res.Residuals))
	}
	for i, r := range seen {
		if iters[i] != i+1 {
			t.Fatalf("iteration numbering %v", iters)
		}
		if r != res.Residuals[i+1] {
			t.Fatalf("residual %d: observed %v, history %v", i+1, r, res.Residuals[i+1])
		}
	}
}

// TestAttemptSpanNamesBlockKernel: the trace of a solve says which form of
// the leaf kernels served it — the kernel argument of every solve/attempt
// span, at a single right-hand side and at four — under the one name the
// kernel package's probe gives; the per-family names it replaced are gone.
func TestAttemptSpanNamesBlockKernel(t *testing.T) {
	g := hcd.Grid2D(16, 16, nil, 1)
	for _, k := range []int{1, 4} {
		tr := hcd.NewTracer()
		B := make([][]float64, k)
		for j := range B {
			B[j] = meanFreeRHS(g.N())
		}
		if _, err := hcd.Do(hcd.WithTracer(context.Background(), tr), g, hcd.SolveRequest{B: B}); err != nil {
			t.Fatal(err)
		}
		attempts := 0
		for _, s := range tr.Spans() {
			if s.Name != "solve/attempt" {
				continue
			}
			attempts++
			var name any
			for _, a := range s.Args {
				switch a.Key {
				case "kernel":
					name = a.Value
				case "block_kernel", "row_kernel":
					t.Errorf("k=%d: solve/attempt carries the retired %s argument", k, a.Key)
				}
			}
			if name != any(kernel.Name()) {
				t.Errorf("k=%d: solve/attempt kernel = %v (this process runs %q)", k, name, kernel.Name())
			}
		}
		if attempts == 0 {
			t.Errorf("k=%d: no solve/attempt span", k)
		}
	}
}
