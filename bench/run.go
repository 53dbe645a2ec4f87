package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// runCfg is one invocation of one workload.
type runCfg struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	sz       sizes
	outDir   string    // trace files land here
	log      io.Writer // human-readable progress and the metric table
}

func (c runCfg) budget(share float64) time.Duration {
	return time.Duration(c.seconds * share * float64(time.Second))
}

// metricValue is one reported number with its unit, as the driver reads it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is the last line a workload run prints: exactly these four keys.
type outcome struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report is what a workload hands back: raw values by metric name, a note
// per metric (which percentile, how many samples), and the failure tally.
type report struct {
	values map[string]float64
	notes  map[string]string
	tally  tally
}

func newReport() *report {
	return &report{values: map[string]float64{}, notes: map[string]string{}}
}

func (r *report) set(name string, v float64, note string) {
	r.values[name] = v
	if note != "" {
		r.notes[name] = note
	}
}

// setLatency reports the median of per-operation times, with the sample
// count and whether that count supports a median under the ≥10-beyond rule.
func (r *report) setLatency(name string, opsMS []float64) {
	note := fmt.Sprintf("p50 of %d samples", len(opsMS))
	if p := supportedPercentile(len(opsMS)); p == 0 {
		note += "; fewer than 20, so not even the median has 10 samples beyond it"
	} else {
		note += fmt.Sprintf("; highest supported percentile p%g", p)
	}
	r.set(name, median(opsMS), note)
}

// workloadProcs is the GOMAXPROCS a workload runs at. The library workloads
// run on one processor: at two on a shared 2-vCPU host their medians spread
// by a quarter for under a tenth of speed-up, which cannot carry a claim.
// serve-mixed uses every processor but one (at least 1, at most 4), with as
// many client goroutines; see serve.go.
func workloadProcs(name string) int {
	if name != wServe {
		return 1
	}
	return max(1, min(runtime.NumCPU()-1, 4))
}

// runWorkload executes one workload and returns the contract's result. The
// metrics are the end-to-end set when tracing is off and the per-layer set
// when it is on; a declared metric the workload did not produce is an error
// in the first case and 0 in the second.
func runWorkload(cfg runCfg) (*outcome, error) {
	procs := workloadProcs(cfg.workload)
	runtime.GOMAXPROCS(procs)

	var rep *report
	var err error
	switch cfg.workload {
	case wSolve:
		rep, err = runSolve(cfg, 1)
	case wBlock:
		rep, err = runSolve(cfg, blockWidth)
	case wBuild:
		rep, err = runBuild(cfg)
	case wServe:
		rep, err = runServe(cfg)
	default:
		return nil, fmt.Errorf("unknown workload %q (have %s)", cfg.workload, strings.Join(workloadNames, ", "))
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}

	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	} else {
		rep.set("peak_rss_mb", peakRSSMiB(), "VmHWM of this process")
	}
	out := &outcome{
		Correct:   rep.tally.failed == 0 && rep.tally.attempted > 0,
		Attempted: rep.tally.attempted,
		Failed:    rep.tally.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	fmt.Fprintf(cfg.log, "# %s seed=%d seconds=%g trace=%t GOMAXPROCS=%d\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, procs)
	var unmeasured []string
	for _, d := range defs {
		v, ok := rep.values[d.Name]
		out.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		if !ok {
			if !cfg.trace {
				return nil, fmt.Errorf("%s: end-to-end metric %s was not measured", cfg.workload, d.Name)
			}
			unmeasured = append(unmeasured, d.Name)
			continue
		}
		line := fmt.Sprintf("%-36s %14.6g %-6s", d.Name, v, d.Unit)
		if note := rep.notes[d.Name]; note != "" {
			line += "  (" + note + ")"
		}
		fmt.Fprintln(cfg.log, line)
	}
	if len(unmeasured) > 0 {
		fmt.Fprintf(cfg.log, "not exercised or measured by this workload, reported as 0: %s\n", strings.Join(unmeasured, " "))
	}
	fmt.Fprintf(cfg.log, "attempted %d  failed %d  failed_share %g\n",
		out.Attempted, out.Failed, float64(out.Failed)/float64(max(out.Attempted, 1)))
	return out, nil
}

// timedLoop calls op(0), op(1), … until budget has elapsed and at least
// minOps calls were made. op returns the duration of the measured call only
// (input generation and answer checking stay outside it); the loop returns
// those durations in milliseconds.
func timedLoop(budget time.Duration, minOps int, op func(i int) (time.Duration, error)) ([]float64, error) {
	var out []float64
	start := time.Now()
	for i := 0; i < minOps || time.Since(start) < budget; i++ {
		d, err := op(i)
		if err != nil {
			return out, err
		}
		out = append(out, ms(d))
	}
	return out, nil
}

// alternating runs op(i, false), op(i, true) for i = 0, 1, … until budget has
// elapsed (and at least minOps calls were made): the same operation untraced
// and traced, back to back, so both see the same machine state. It returns
// the two sets of durations in milliseconds.
func alternating(budget time.Duration, minOps int, op func(i int, traced bool) (time.Duration, error)) (plainMS, tracedMS []float64, err error) {
	_, err = timedLoop(budget, minOps, func(i int) (time.Duration, error) {
		d, err := op(i/2, i%2 == 1)
		if i%2 == 0 {
			plainMS = append(plainMS, ms(d))
		} else {
			tracedMS = append(tracedMS, ms(d))
		}
		return d, err
	})
	return plainMS, tracedMS, err
}

// setOverhead reports what recording spans costs: traced against untraced
// median.
func (r *report) setOverhead(plainMS, tracedMS []float64, what string) {
	r.set("trace.overhead_pct", 100*(median(tracedMS)-median(plainMS))/median(plainMS),
		fmt.Sprintf("traced vs untraced p50 over %d+%d alternating %s", len(tracedMS), len(plainMS), what))
}

// setLayerShares reports calls, time per call and share of the root span for
// the four decorated entry points; a layer without calls is left unreported.
func (r *report) setLayerShares(agg map[string]layerStat, root layerStat, where string) {
	for prefix, name := range map[string]string{
		"graph.lapmul": spanLapMul, "graph.lapmul_block": spanLapMulBlock,
		"hierarchy.apply": spanApply, "hierarchy.apply_block": spanApplyBlock,
	} {
		st := agg[name]
		if st.calls == 0 {
			continue
		}
		r.set(prefix+"_calls", float64(st.calls), "in the "+where+"s")
		r.set(prefix+"_ms_per_call", st.msPerCall(), "")
		r.set(prefix+"_share", share(st.self, root.total), "self time ÷ "+where+" span")
	}
}

// finishTrace writes the run's Chrome trace and says where.
func finishTrace(cfg runCfg, tracks ...*track) error {
	path := filepath.Join(cfg.outDir, "trace-"+cfg.workload+".json")
	if err := writeChromeTrace(path, tracks...); err != nil {
		return err
	}
	spans := 0
	for _, t := range tracks {
		spans += len(t.spans)
	}
	fmt.Fprintf(cfg.log, "# trace: %s (%d spans)\n", path, spans)
	return nil
}

// repeatSetup runs setup reps times and returns the last result with the
// median wall time in seconds: one set-up is too noisy to hold a bound. The
// heap is collected before each repetition, so every one starts from the
// same state and the earlier ones' garbage does not set the peak RSS.
func repeatSetup[T any](reps int, setup func() (T, error)) (T, float64, error) {
	var last T
	times := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		var zero T
		last = zero
		runtime.GC()
		t0 := time.Now()
		v, err := setup()
		if err != nil {
			return last, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		last = v
	}
	return last, median(times), nil
}

// setupReps is how many times an untraced run sets up; the traced pass does
// not report setup_s and sets up once.
func setupReps(cfg runCfg) int {
	if cfg.trace {
		return 1
	}
	return 5
}

// throughputWindows is how many consecutive groups a library workload's
// operations are cut into for throughput_per_s.
const throughputWindows = 8

// windowedRate reports work completed per second of timed operation as the
// median over throughputWindows consecutive groups of operations, each
// group's rate being its work ÷ its summed durations. A plain total ÷ total
// would let a few seconds of a noisy neighbour move the figure; the median
// over windows moves only when most of the run is disturbed, like the
// latency median beside it. perOp is the work per operation.
func windowedRate(opsMS []float64, perOp int) float64 {
	windows := min(throughputWindows, len(opsMS))
	rates := make([]float64, 0, windows)
	for w := 0; w < windows; w++ {
		lo, hi := w*len(opsMS)/windows, (w+1)*len(opsMS)/windows
		total := 0.0
		for _, d := range opsMS[lo:hi] {
			total += d
		}
		rates = append(rates, float64(perOp*(hi-lo))/(total/1e3))
	}
	return median(rates)
}

// peakRSSMiB reads the process's peak resident set (VmHWM). Where /proc is
// missing it falls back to the Go runtime's view of memory obtained from the
// OS, which is an over-estimate but never zero.
func peakRSSMiB() float64 {
	if raw, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				f := strings.Fields(rest)
				if len(f) >= 1 {
					if kb, perr := strconv.ParseFloat(f[0], 64); perr == nil {
						return kb / 1024
					}
				}
			}
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / (1 << 20)
}
