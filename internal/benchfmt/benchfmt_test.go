package benchfmt

import (
	"encoding/json"
	"os/exec"
	"strings"
	"testing"
)

func TestParseBenchLine(t *testing.T) {
	r, ok := ParseBenchLine("BenchmarkEvaluate-8   \t       3\t 412345678 ns/op\t 1234 B/op\t  56 allocs/op")
	if !ok {
		t.Fatal("benchmark line rejected")
	}
	if r.Name != "BenchmarkEvaluate-8" || r.BaseName() != "BenchmarkEvaluate" || r.Procs != 8 {
		t.Errorf("name decode: %+v", r)
	}
	if r.Iterations != 3 || r.NsPerOp != 412345678 || r.BytesPerOp != 1234 || r.AllocsPerOp != 56 {
		t.Errorf("metric decode: %+v", r)
	}

	r, ok = ParseBenchLine("BenchmarkBlockSolve-4   10   9999 ns/op   128.5 rhs/sec")
	if !ok || r.Metrics["rhs/sec"] != 128.5 {
		t.Errorf("custom metric decode: %+v ok=%v", r, ok)
	}

	for _, line := range []string{
		"ok  \thcd\t1.2s",
		"goos: linux",
		"PASS",
		"BenchmarkBroken-8 notanumber 5 ns/op",
		"BenchmarkNoNs-8 10 5 B/op",
	} {
		if _, ok := ParseBenchLine(line); ok {
			t.Errorf("non-result line accepted: %q", line)
		}
	}
}

func TestRecordRoundTripAndStamp(t *testing.T) {
	rec := NewRecord("evaluate", "ci")
	rec.Benchmarks = []Result{{Name: "BenchmarkX-2", Iterations: 10, NsPerOp: 100}}
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
	if !strings.HasSuffix(string(buf), "\n") {
		t.Error("marshal without trailing newline")
	}
	back, err := Unmarshal(buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Commit != rec.Commit || len(back.Tags) != 2 || len(back.Benchmarks) != 1 {
		t.Errorf("round trip lost fields: %+v", back)
	}
	if _, err := Unmarshal([]byte("{not json")); err == nil {
		t.Error("bad record accepted")
	}
}

func withReplay(score float64) Record {
	rec := Record{}
	raw, _ := json.Marshal(map[string]any{"score": score, "scenario": "steady"})
	rec.Replay = raw
	return rec
}

func TestReplayScore(t *testing.T) {
	if s, ok := withReplay(87.5).ReplayScore(); !ok || s != 87.5 {
		t.Fatalf("score %v ok=%v", s, ok)
	}
	if _, ok := (Record{}).ReplayScore(); ok {
		t.Fatal("score extracted from a record without a replay section")
	}
}

// TestDiffInjectedRegression is the gate's core acceptance test: a synthetic
// slowdown past the threshold is flagged, one inside the threshold is not.
func TestDiffInjectedRegression(t *testing.T) {
	old := Record{Benchmarks: []Result{
		{Name: "BenchmarkEvaluate-8", NsPerOp: 1000, AllocsPerOp: 0},
		{Name: "BenchmarkSolve-8", NsPerOp: 2000, AllocsPerOp: 10},
		{Name: "BenchmarkRetired-8", NsPerOp: 5},
	}}
	fresh := Record{Benchmarks: []Result{
		// 2x slowdown: regression.
		{Name: "BenchmarkEvaluate-4", NsPerOp: 2000, AllocsPerOp: 0},
		// +10% at a 30% threshold: fine. Allocs 10 -> 11 at 30%: fine.
		{Name: "BenchmarkSolve-4", NsPerOp: 2200, AllocsPerOp: 11},
		// New benchmark with no baseline: ignored.
		{Name: "BenchmarkNew-4", NsPerOp: 1},
	}}
	regs := Diff(old, fresh, Thresholds{})
	if len(regs) != 1 {
		t.Fatalf("want 1 regression, got %+v", regs)
	}
	if regs[0].Name != "BenchmarkEvaluate" || regs[0].Metric != "ns/op" {
		t.Errorf("wrong regression flagged: %+v", regs[0])
	}
	if regs[0].String() == "" {
		t.Error("empty regression rendering")
	}

	// A clean run gates green.
	if regs := Diff(old, old, Thresholds{}); len(regs) != 0 {
		t.Errorf("identical records regressed: %+v", regs)
	}
}

// TestDiffZeroAllocInvariant: a baseline of 0 allocs/op is an invariant —
// any increase is flagged regardless of the percentage threshold.
func TestDiffZeroAllocInvariant(t *testing.T) {
	old := Record{Benchmarks: []Result{{Name: "BenchmarkHot-8", NsPerOp: 100, AllocsPerOp: 0}}}
	fresh := Record{Benchmarks: []Result{{Name: "BenchmarkHot-8", NsPerOp: 100, AllocsPerOp: 1}}}
	regs := Diff(old, fresh, Thresholds{MaxRegress: 10})
	if len(regs) != 1 || regs[0].Metric != "allocs/op" {
		t.Fatalf("zero-alloc break not flagged: %+v", regs)
	}
}

// TestDiffReplayScore: the deterministic replay score gates on absolute
// drops past ScoreDrop.
func TestDiffReplayScore(t *testing.T) {
	if regs := Diff(withReplay(90), withReplay(80), Thresholds{ScoreDrop: 5}); len(regs) != 1 {
		t.Fatalf("10-point drop at 5-point threshold not flagged: %+v", regs)
	} else if regs[0].Metric != "replay_score" || regs[0].Change != 10 {
		t.Errorf("wrong replay regression: %+v", regs[0])
	}
	if regs := Diff(withReplay(90), withReplay(88), Thresholds{ScoreDrop: 5}); len(regs) != 0 {
		t.Errorf("2-point drop at 5-point threshold flagged: %+v", regs)
	}
	// Improvement never regresses; missing sections never gate.
	if regs := Diff(withReplay(80), withReplay(95), Thresholds{}); len(regs) != 0 {
		t.Errorf("improvement flagged: %+v", regs)
	}
	if regs := Diff(Record{}, withReplay(0), Thresholds{}); len(regs) != 0 {
		t.Errorf("missing baseline section gated: %+v", regs)
	}
}
