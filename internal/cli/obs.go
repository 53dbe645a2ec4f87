package cli

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"slices"
	"strings"
	"time"

	"hcd/internal/faultinject"
	"hcd/internal/obs"
)

// Obs bundles the observability flags every hcd command shares:
//
//	-trace FILE    record a hierarchical span trace of the run and write it
//	               as Chrome trace_event JSON (chrome://tracing, Perfetto)
//	-listen ADDR   serve /metrics (Prometheus text), /metrics.json,
//	               /debug/vars (expvar) and /debug/pprof/* on ADDR for the
//	               duration of the run
//
// Commands call ObsFlags() before flag.Parse, Start to install the
// instruments into their root context, and defer Close to flush the trace
// and stop the server. With neither flag set, all three are no-ops and the
// returned context is untouched — the library's disabled fast path.
type Obs struct {
	TracePath string
	Listen    string

	Tracer   *obs.Tracer
	Registry *obs.Registry
	server   *http.Server
}

// ObsFlags registers -trace and -listen on the default flag set and returns
// the handle the command later Starts and Closes.
func ObsFlags() *Obs {
	o := &Obs{}
	flag.StringVar(&o.TracePath, "trace", "", "write a Chrome trace-event JSON span trace to this file")
	flag.StringVar(&o.Listen, "listen", "", "serve /metrics, /metrics.json, /debug/vars and /debug/pprof/* on this address (e.g. :6060)")
	return o
}

// Start installs the instruments the parsed flags ask for into ctx and
// returns the instrumented context. A -trace flag creates the Tracer (and a
// Registry, so the trace run also aggregates metrics) and hooks fault
// injections into the trace as instant events; a -listen flag creates the
// Registry and starts the diagnostics server, printing the bound address —
// ":0" picks a free port.
func (o *Obs) Start(ctx context.Context) (context.Context, error) {
	if o.TracePath != "" {
		o.Tracer = obs.NewTracer()
		ctx = obs.WithTracer(ctx, o.Tracer)
		tr := o.Tracer
		faultinject.SetObserver(func(point string) { tr.Instant("fault/" + point) })
	}
	if o.TracePath != "" || o.Listen != "" {
		o.Registry = obs.NewRegistry()
		ctx = obs.WithRegistry(ctx, o.Registry)
	}
	if o.Listen != "" {
		srv, err := obs.Serve(o.Listen, o.Registry)
		if err != nil {
			return ctx, fmt.Errorf("cli: -listen %s: %w", o.Listen, err)
		}
		o.server = srv
		fmt.Fprintf(os.Stderr, "serving diagnostics on http://%s/metrics\n", srv.Addr)
	}
	return ctx, nil
}

// EnsureRegistry installs a metric registry into ctx even when no flag asked
// for one — commands with their own -metrics flag call it so the registry
// aggregates regardless of -trace/-listen. Idempotent: an existing registry
// is kept.
func (o *Obs) EnsureRegistry(ctx context.Context) context.Context {
	if o.Registry != nil {
		return ctx
	}
	o.Registry = obs.NewRegistry()
	return obs.WithRegistry(ctx, o.Registry)
}

// EnsureTracer installs a tracer into ctx even when no -trace flag asked for
// one, for commands that print stage times from its spans (Stages); without
// -trace Close writes no file. Idempotent: an existing tracer is kept.
func (o *Obs) EnsureTracer(ctx context.Context) context.Context {
	if o.Tracer != nil {
		return ctx
	}
	o.Tracer = obs.NewTracer()
	return obs.WithTracer(ctx, o.Tracer)
}

// Stage is the wall time a traced run spent in one named stage.
type Stage struct {
	Name            string
	Duration        time.Duration
	Vertices, Edges int // args of the stage's last span, if it has them
}

// Stages reads a run's stage table back from its spans: the spans named
// prefix+<stage>, their durations summed per stage, in order of each stage's
// first span. A decomposition build's stages are its "build/" spans, a
// hierarchy build's its "hierarchy/" spans.
func Stages(spans []obs.SpanInfo, prefix string) []Stage {
	var out []Stage
	for _, sp := range spans {
		name, ok := strings.CutPrefix(sp.Name, prefix)
		if !ok {
			continue
		}
		i := slices.IndexFunc(out, func(s Stage) bool { return s.Name == name })
		if i < 0 {
			i = len(out)
			out = append(out, Stage{Name: name})
		}
		out[i].Duration += sp.Duration
		for _, a := range sp.Args {
			switch a.Key {
			case "vertices":
				out[i].Vertices, _ = a.Value.(int)
			case "edges":
				out[i].Edges, _ = a.Value.(int)
			}
		}
	}
	return out
}

// Close flushes the trace file, verifies the span tree closed cleanly
// (a malformed tree is a warning, not a failure — the partial trace is still
// written), detaches the fault-injection observer, and stops the server.
func (o *Obs) Close() error {
	faultinject.SetObserver(nil)
	if o.server != nil {
		sctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		_ = o.server.Shutdown(sctx)
		cancel()
		o.server = nil
	}
	if o.Tracer == nil || o.TracePath == "" {
		return nil
	}
	if err := o.Tracer.Check(); err != nil {
		fmt.Fprintf(os.Stderr, "warning: span trace is not well-formed: %v\n", err)
	}
	f, err := os.Create(o.TracePath)
	if err != nil {
		return fmt.Errorf("cli: -trace: %w", err)
	}
	werr := o.Tracer.WriteChromeTrace(f)
	cerr := f.Close()
	if werr != nil {
		return fmt.Errorf("cli: -trace %s: %w", o.TracePath, werr)
	}
	if cerr != nil {
		return fmt.Errorf("cli: -trace %s: %w", o.TracePath, cerr)
	}
	fmt.Fprintf(os.Stderr, "wrote trace to %s (%d spans)\n", o.TracePath, len(o.Tracer.Spans()))
	return nil
}
