// Command hcd-replay is the scenario replay harness: it materializes a
// seedable workload scenario into a deterministic request trace, replays the
// trace against the serve stack (in-process by default, or a live server
// with -target), and scores the run against the scenario's SLOs with the
// weighted fitness function.
//
// The committed artifact is BENCH_replay.json (`make bench-replay`): a
// replay.Record stamped with the git commit, whose embedded report carries
// a Deterministic section and fitness score that are bit-identical across
// runs and GOMAXPROCS settings — `-gate` holds the score to the scenario's
// min_score floor with no noise margin (`make bench-gate`). Wall-clock
// latencies and throughput live in the report's Measured section and are
// informational only.
//
// Usage:
//
//	hcd-replay -scenario smoke                      # seconds-scale smoke
//	hcd-replay -scenario steady -out BENCH_replay.json
//	hcd-replay -scenario burst -target http://localhost:8080
//	hcd-replay -scenario steady -emit-trace trace.json
//	hcd-replay -in trace.json -gate                 # replay a saved trace
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"hcd/internal/cli"
	"hcd/internal/replay"
)

func main() { cli.Main(run) }

func run() error {
	scenario := flag.String("scenario", "smoke", "built-in scenario: "+strings.Join(replay.BuiltinNames(), " | "))
	in := flag.String("in", "", "replay this trace file instead of a built-in scenario")
	seed := flag.Int64("seed", 0, "override the scenario seed (0 = keep)")
	requests := flag.Int("requests", 0, "override the scenario request count (0 = keep)")
	target := flag.String("target", "", "replay against a live server base URL instead of in-process")
	out := flag.String("out", "", "write the stamped record (e.g. BENCH_replay.json)")
	emitTrace := flag.String("emit-trace", "", "also write the materialized trace JSON to this file")
	gate := flag.Bool("gate", false, "exit non-zero when a deterministic SLO fails")
	jsonOut := flag.Bool("json", false, "print the full report JSON to stdout instead of the summary")
	flag.Parse()

	var tr *replay.Trace
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			return err
		}
		tr, err = replay.ReadTrace(f)
		f.Close()
		if err != nil {
			return err
		}
		if *seed != 0 || *requests != 0 {
			// Overrides change the scenario, so the saved request list no
			// longer matches: regenerate from the amended header.
			sc := tr.Scenario
			applyOverrides(&sc, *seed, *requests)
			if tr, err = replay.Generate(sc); err != nil {
				return err
			}
		}
	} else {
		sc, err := replay.Builtin(*scenario)
		if err != nil {
			return err
		}
		applyOverrides(&sc, *seed, *requests)
		if tr, err = replay.Generate(sc); err != nil {
			return err
		}
	}

	if *emitTrace != "" {
		f, err := os.Create(*emitTrace)
		if err != nil {
			return err
		}
		werr := tr.Write(f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return fmt.Errorf("hcd-replay: -emit-trace: %w", werr)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	rep, err := replay.Run(ctx, tr, replay.Options{BaseURL: *target})
	if err != nil {
		return err
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			return err
		}
	} else {
		fmt.Print(rep.Summary())
	}

	if *out != "" {
		buf, merr := replay.NewRecord(rep).Marshal()
		if merr != nil {
			return merr
		}
		if err := os.WriteFile(*out, buf, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s (score %.4f)\n", *out, rep.Score)
	}

	if *gate && !rep.SLOPass() {
		return fmt.Errorf("hcd-replay: deterministic SLO failed (score %.4f)", rep.Score)
	}
	return nil
}

// applyOverrides amends the scenario header with the -seed / -requests
// flags; the trace is regenerated from the result.
func applyOverrides(sc *replay.Scenario, seed int64, requests int) {
	if seed != 0 {
		sc.Seed = seed
	}
	if requests != 0 {
		sc.Requests = requests
	}
}
