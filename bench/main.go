// Command bench is the repository's benchmark: four named workloads, a small
// set of end-to-end metrics every workload reports, and a traced pass that
// says where an operation's time goes, layer by layer. BENCHMARK.json at the
// repository root declares it; README.md in this directory explains it.
//
//	go run ./bench                                  all workloads, end-to-end metrics, one record
//	go run ./bench -trace 1                         all workloads, per-layer metrics + Chrome traces
//	go run ./bench -workload solve-oct3d -seed 7    one workload in this process (the driver's form)
//	go run ./bench -runs 10 -out a.json             ten seeds per workload into one record
//	go run ./bench -compare a.json b.json           hold two records against the bounds
//	go run ./bench -fingerprint                     print the input fingerprints as generated now
//
// Everything is measured from outside the library: by timing calls into its
// exported functions, or by handing the solver decorated operators.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

const benchmarkJSON = "BENCHMARK.json"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run one workload in this process: "+strings.Join(workloadNames, ", ")+" (default: all, one child process each)")
	seed := fs.Int64("seed", 1, "drives right-hand sides, clustering seeds, request mix and arrival schedule")
	seconds := fs.Float64("seconds", 0, "measuring time per run (default: run_seconds of BENCHMARK.json)")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced pass with per-layer metrics and a Chrome trace file")
	runs := fs.Int("runs", 1, "without -workload: runs per workload, on seeds seed, seed+1, …")
	out := fs.String("out", "", "without -workload: record file (default .bench_out/record[-trace].json)")
	outDir := fs.String("outdir", ".bench_out", "directory for trace files and the default record")
	compare := fs.Bool("compare", false, "compare two record files given as arguments against the bounds of BENCHMARK.json")
	fingerprint := fs.Bool("fingerprint", false, "print the workload input fingerprints as generated now, as JSON")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}

	if *fingerprint {
		return printFingerprints(stdout, fail)
	}
	bf, err := loadBenchmarkFile(benchmarkJSON)
	if err != nil {
		return fail(err)
	}
	if *compare {
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-compare needs two record files"))
		}
		return compareRecords(bf, fs.Arg(0), fs.Arg(1), stdout, fail)
	}
	if *seconds <= 0 {
		*seconds = float64(bf.RunSeconds)
	}
	if *trace != 0 && *trace != 1 {
		return fail(fmt.Errorf("-trace takes 0 or 1"))
	}

	if *workload != "" {
		cfg := runCfg{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1,
			sz: production, outDir: *outDir, log: stdout}
		res, err := runWorkload(cfg)
		if err != nil {
			return fail(err)
		}
		line, err := json.Marshal(res)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintln(stdout, string(line))
		if !res.Correct {
			fmt.Fprintf(stderr, "bench: %s: %d of %d operations failed\n", *workload, res.Failed, res.Attempted)
			return 1
		}
		return 0
	}

	// All workloads: one child process each, so peak RSS, heap and GC state
	// belong to that workload alone.
	self, err := os.Executable()
	if err != nil {
		return fail(err)
	}
	rec := newRecord(*seconds, *trace)
	ok := true
	for _, name := range workloadNames {
		for r := 0; r < *runs; r++ {
			s := *seed + int64(r)
			cmd := exec.Command(self, "-workload", name, "-seed", fmt.Sprint(s),
				"-seconds", fmt.Sprint(*seconds), "-trace", fmt.Sprint(*trace), "-outdir", *outDir)
			cmd.Stderr = stderr
			raw, cerr := cmd.Output() // waits for the child to exit
			fmt.Fprint(stdout, string(raw))
			res, perr := lastLineOutcome(raw)
			if perr != nil {
				if cerr != nil {
					perr = fmt.Errorf("%s seed %d: %w", name, s, cerr)
				}
				return fail(perr)
			}
			ok = ok && cerr == nil && res.Correct
			rec.Runs = append(rec.Runs, recordRun{Workload: name, Seed: s, GOMAXPROCS: workloadProcs(name), outcome: *res})
		}
	}
	path := *out
	if path == "" {
		path = filepath.Join(*outDir, map[int]string{0: "record.json", 1: "record-trace.json"}[*trace])
	}
	if err := rec.write(path); err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "# record: %s\n", path)
	if !ok {
		return fail(fmt.Errorf("at least one operation failed; see above"))
	}
	return 0
}

// lastLineOutcome parses the result object a workload run prints last.
func lastLineOutcome(raw []byte) (*outcome, error) {
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	var res outcome
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("child printed no result line: %w", err)
	}
	return &res, nil
}

func printFingerprints(stdout io.Writer, fail func(error) int) int {
	fp := make(map[string]workloadPrint, len(workloadNames))
	for _, name := range workloadNames {
		gs, err := buildGraphs(name, production)
		if err != nil {
			return fail(err)
		}
		fp[name] = currentFingerprint(name, gs)
	}
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(fp); err != nil {
		return fail(err)
	}
	return 0
}
