// Command hcd-decompose computes a [φ, ρ] decomposition of a generated
// workload graph and prints the measured quality report.
//
// Usage:
//
//	hcd-decompose -graph grid3d:20 -algo fixed -k 4 -seed 1
//	hcd-decompose -graph tree:100000 -algo tree
//	hcd-decompose -graph mesh:80 -algo planar
//	hcd-decompose -graph grid2d:64 -algo spectral -metrics
//	hcd-decompose -graph grid3d:16 -algo fixed -json -trace build.json
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"hcd"
	"hcd/internal/cli"
)

func main() { cli.Main(run) }

func run() (err error) {
	graphSpec := flag.String("graph", "grid3d:16", "workload graph spec (grid2d:S, grid3d:S, mesh:S, oct:S, tree:N, regular:N,D, unit2d:S)")
	algo := flag.String("algo", "fixed", "decomposition algorithm: tree | fixed | planar | minorfree | spectral")
	k := flag.Int("k", 4, "cluster size cap for -algo fixed")
	seed := flag.Int64("seed", 1, "random seed")
	hist := flag.Bool("hist", false, "print cluster size histogram")
	detail := flag.Int("detail", 0, "print the N worst clusters by closure conductance")
	merge := flag.Float64("merge", 0, "if > 0, fold singleton clusters into neighbors keeping closure conductance ≥ this floor")
	metrics := flag.Bool("metrics", false, "print the aggregated build/cert metric registry (Prometheus text format)")
	jsonOut := flag.Bool("json", false, "print the aggregated metric registry as JSON")
	o := cli.ObsFlags()
	flag.Parse()

	method, ok := map[string]hcd.DecomposeMethod{
		"tree":      hcd.MethodTree,
		"fixed":     hcd.MethodFixedDegree,
		"planar":    hcd.MethodPlanar,
		"minorfree": hcd.MethodMinorFree,
		"spectral":  hcd.MethodSpectral,
	}[*algo]
	if !ok {
		return fmt.Errorf("unknown algorithm %q", *algo)
	}

	g, err := cli.BuildGraph(*graphSpec, *seed)
	if err != nil {
		return err
	}
	ctx, err := o.Start(context.Background())
	if err != nil {
		return err
	}
	defer func() {
		if cerr := o.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	reg := o.Registry
	if reg == nil && (*metrics || *jsonOut) {
		reg = hcd.NewMetricRegistry()
		ctx = hcd.WithMetricRegistry(ctx, reg)
	}
	// The stage table is read back from the build's spans.
	ctx = o.EnsureTracer(ctx)

	opt := hcd.DefaultDecomposeOptions(method)
	opt.Seed = *seed
	if method == hcd.MethodFixedDegree {
		opt.SizeCap = *k
	}
	start := time.Now()
	res, err := hcd.DecomposeCtx(ctx, g, opt)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	d, rep := res.D, res.Report
	if res.B != nil {
		fmt.Printf("pipeline: core |W|=%d, cut |C|=%d, avg stretch %.2f\n",
			res.CoreSize, res.CutEdges, res.AvgStretch)
	}
	if *merge > 0 {
		var merges int
		d, merges = hcd.MergeSingletons(d, *merge)
		fmt.Printf("merged %d singleton clusters (floor φ ≥ %v)\n", merges, *merge)
		rep = hcd.Evaluate(d)
	}
	if err := hcd.Validate(d); err != nil {
		return fmt.Errorf("decomposition invalid: %w", err)
	}
	fmt.Printf("graph: %s  n=%d m=%d\n", *graphSpec, g.N(), g.M())
	fmt.Printf("algorithm: %s  time: %v\n", *algo, elapsed)
	t := cli.NewTable("metric", "value")
	t.Row("clusters", d.Count)
	t.Row("rho (n/clusters)", rep.Rho)
	t.Row("phi (min closure conductance)", rep.Phi)
	t.Row("phi exact", rep.PhiExact)
	t.Row("gamma (min in-cluster retention)", rep.GammaMin)
	t.Row("max cluster size", rep.MaxClusterSize)
	t.Row("singleton clusters", rep.Singletons)
	fmt.Print(t)
	st := cli.NewTable("stage", "time", "vertices", "edges")
	for _, s := range cli.Stages(o.Tracer.Spans(), "build/") {
		st.Row(s.Name, s.Duration, s.Vertices, s.Edges)
	}
	fmt.Print(st)
	if *hist {
		printHistogram(d)
	}
	if *detail > 0 {
		stats := hcd.Details(d)
		if len(stats) > *detail {
			stats = stats[:*detail]
		}
		for _, s := range stats {
			fmt.Println(s)
		}
	}
	if *jsonOut {
		if err := reg.WriteJSON(os.Stdout); err != nil {
			return err
		}
	} else if *metrics {
		if err := reg.WritePrometheus(os.Stdout); err != nil {
			return err
		}
	}
	if rep.Phi <= 0 {
		return fmt.Errorf("degenerate decomposition: φ = %v", rep.Phi)
	}
	return nil
}

func printHistogram(d *hcd.Decomposition) {
	sizes := make(map[int]int)
	for _, c := range d.Clusters() {
		sizes[len(c)]++
	}
	keys := make([]int, 0, len(sizes))
	for s := range sizes {
		keys = append(keys, s)
	}
	sort.Ints(keys)
	t := cli.NewTable("cluster size", "count")
	for _, s := range keys {
		t.Row(s, sizes[s])
	}
	fmt.Print(t)
}
