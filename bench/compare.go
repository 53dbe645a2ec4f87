package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// A record is the machine-readable result of `go run ./bench`: every run of
// every workload, stamped with the environment it ran in.

type envStamp struct {
	Commit   string `json:"commit"`
	Go       string `json:"go"`
	NProc    int    `json:"nproc"`
	CPU      string `json:"cpu"`
	LLCBytes int64  `json:"llc_bytes"`
	When     string `json:"when"`
}

type recordRun struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	outcome
}

type record struct {
	Env     envStamp    `json:"env"`
	Seconds float64     `json:"seconds"`
	Trace   int         `json:"trace"`
	Runs    []recordRun `json:"runs"`
}

func newRecord(seconds float64, trace int) *record {
	return &record{
		Env: envStamp{
			Commit: headCommit(), Go: runtime.Version(), NProc: runtime.NumCPU(),
			CPU: cpuModel(), LLCBytes: llcBytes(), When: time.Now().UTC().Format(time.RFC3339),
		},
		Seconds: seconds, Trace: trace,
	}
}

func (r *record) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	raw, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

func readRecord(path string) (*record, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r record
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// headCommit reads the checked-out commit from .git without running git;
// "unknown" outside a repository (the driver's checkout is not one).
func headCommit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if raw, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(raw))
	}
	if packed, err := os.ReadFile(".git/packed-refs"); err == nil {
		for _, line := range strings.Split(string(packed), "\n") {
			if sha, ok := strings.CutSuffix(line, " "+ref); ok {
				return sha
			}
		}
	}
	return "unknown"
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, "model name") {
			if _, v, ok := strings.Cut(line, ":"); ok {
				return strings.TrimSpace(v)
			}
		}
	}
	return "unknown"
}

// Verdicts of one (workload, end-to-end metric) pairing, after the rule in
// the choosing-metrics guide: worse than the bound is a regression; a spread
// wider than the bound means the runs cannot tell, unless every run of the
// second record beats every run of the first.
const (
	verdictWithin     = "within bound"
	verdictRegressed  = "REGRESSED"
	verdictUnresolved = "unresolved"
)

// comparison is one row of the -compare table.
type comparison struct {
	workload, metric string
	medianA, medianB float64
	worse            float64 // how much worse B's median is than A's, as a share of A's; negative = better
	spread           float64 // the wider of the two records' interquartile spreads, as a share of the median
	bound            float64
	verdict          string
}

// judge compares the runs of one metric on one workload. better is "lower"
// or "higher".
func judge(a, b []float64, better string, bound float64) comparison {
	c := comparison{medianA: median(a), medianB: median(b), bound: bound, spread: max(spread(a), spread(b))}
	if c.medianA != 0 {
		c.worse = (c.medianB - c.medianA) / c.medianA
	}
	sa, sb := sorted(a), sorted(b)
	allBetter := sb[len(sb)-1] < sa[0]
	if better == "higher" {
		c.worse = -c.worse
		allBetter = sb[0] > sa[len(sa)-1]
	}
	switch {
	case c.worse > bound:
		c.verdict = verdictRegressed
	case c.spread > bound && !allBetter:
		c.verdict = verdictUnresolved
	default:
		c.verdict = verdictWithin
	}
	return c
}

// compareRecords holds record B against record A, metric by metric and
// workload by workload, and exits non-zero naming every metric outside its
// bound (or any failed operation in B).
func compareRecords(bf *benchmarkFile, pathA, pathB string, stdout io.Writer, fail func(error) int) int {
	a, err := readRecord(pathA)
	if err != nil {
		return fail(err)
	}
	b, err := readRecord(pathB)
	if err != nil {
		return fail(err)
	}
	values := func(r *record, workload, metric string) []float64 {
		var out []float64
		for _, run := range r.Runs {
			if m, ok := run.Metrics[metric]; ok && run.Workload == workload {
				out = append(out, m.Value)
			}
		}
		return out
	}
	fmt.Fprintf(stdout, "A: %s  commit %s  %s  nproc %d\nB: %s  commit %s  %s  nproc %d\n",
		pathA, a.Env.Commit, a.Env.Go, a.Env.NProc, pathB, b.Env.Commit, b.Env.Go, b.Env.NProc)
	fmt.Fprintf(stdout, "%-16s %-18s %5s %12s %12s %9s %8s %7s  %s\n",
		"workload", "metric", "runs", "median A", "median B", "B worse", "spread", "bound", "verdict")
	var bad []string
	for _, w := range workloadNames {
		for _, m := range bf.EndToEnd {
			va, vb := values(a, w, m.Name), values(b, w, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				bad = append(bad, fmt.Sprintf("%s/%s: missing from a record", w, m.Name))
				continue
			}
			c := judge(va, vb, m.Better, m.Bound)
			fmt.Fprintf(stdout, "%-16s %-18s %2d/%-2d %12.5g %12.5g %+8.1f%% %7.1f%% %6.0f%%  %s\n",
				w, m.Name, len(va), len(vb), c.medianA, c.medianB, 100*c.worse, 100*c.spread, 100*c.bound, c.verdict)
			if c.verdict == verdictRegressed {
				bad = append(bad, fmt.Sprintf("%s/%s: %.1f%% worse, bound %.0f%%", w, m.Name, 100*c.worse, 100*c.bound))
			}
		}
	}
	for _, run := range b.Runs {
		if run.Failed > 0 || !run.Correct {
			bad = append(bad, fmt.Sprintf("%s seed %d: %d of %d operations failed", run.Workload, run.Seed, run.Failed, run.Attempted))
		}
	}
	if len(bad) > 0 {
		return fail(fmt.Errorf("outside the bounds:\n  %s", strings.Join(bad, "\n  ")))
	}
	return 0
}
