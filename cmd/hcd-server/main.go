// Command hcd-server exposes the hcd solver as a service: submit a graph
// once, poll its hierarchy build, then run solves against the cached
// hierarchy on warm engine pools. Tenants are rate-limited with per-tenant
// token buckets; overload answers 429 with Retry-After. The PR-5
// diagnostics mux (/metrics, /metrics.json, /debug/vars, /debug/pprof/*) is
// mounted on the same listener.
//
// Usage:
//
//	hcd-server -addr :8080
//	hcd-server -addr :8080 -max-handles 16 -max-bytes 536870912 -pool 4
//	hcd-server -addr :8080 -rate 100 -burst 200 -queue 64
//	hcd-server -addr :8080 -state-dir /var/lib/hcd   # durable handles
//	hcd-server -addr :8080 -max-timeout 30s -breaker 3
//	hcd-server -addr :8080 -log-json -log-level info   # JSON access logs
//
// With -state-dir, built hierarchies are snapshotted (checksummed binary
// format + write-ahead manifest) and restored on restart without rebuilding;
// corrupt snapshots are quarantined, never fatal. /healthz and /readyz serve
// probes; ?timeout_ms= gives requests a deadline budget capped by
// -max-timeout (expiry = 504, client disconnect = 408).
//
// Walkthrough:
//
//	curl -X POST 'localhost:8080/v1/graphs?spec=grid3d:12&wait=true'
//	curl localhost:8080/v1/graphs/g-1
//	curl -X POST -d '{"rhs":2,"seed":7}' localhost:8080/v1/graphs/g-1/solve
//	curl -X DELETE localhost:8080/v1/graphs/g-1
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"hcd/internal/cli"
	"hcd/internal/serve"
)

func main() { cli.Main(run) }

func run() (err error) {
	addr := flag.String("addr", ":8080", "listen address")
	maxHandles := flag.Int("max-handles", 32, "cached graph handles before LRU eviction")
	maxBytes := flag.Int64("max-bytes", 1<<30, "byte budget for cached graphs + hierarchies")
	pool := flag.Int("pool", 2, "warm solve engines per graph handle")
	rate := flag.Float64("rate", 50, "admission tokens per second per tenant (1 token = 1 right-hand side)")
	burst := flag.Float64("burst", 100, "admission token bucket capacity per tenant")
	queue := flag.Int("queue", 64, "queued solve requests per tenant before 429")
	stateDir := flag.String("state-dir", "", "durable handle state directory (empty = memory-only)")
	breaker := flag.Int("breaker", 3, "consecutive build failures before a handle degrades to Jacobi-PCG (negative disables)")
	maxTimeout := flag.Duration("max-timeout", 0, "cap on per-request ?timeout_ms deadline budgets (0 = uncapped)")
	drainTimeout := flag.Duration("drain-timeout", 15*time.Second, "grace period for in-flight requests on SIGTERM")
	o := cli.ObsFlags()
	lg := cli.LogFlags()
	flag.Parse()

	logger, err := lg.Logger(os.Stdout)
	if err != nil {
		return err
	}

	// Start materializes -trace/-listen into a Tracer/Registry; the serve
	// layer threads them through every request itself, so the returned
	// context is not needed here.
	if _, err = o.Start(context.Background()); err != nil {
		return err
	}
	defer func() {
		if cerr := o.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()

	cfg := serve.Config{
		MaxHandles: *maxHandles,
		MaxBytes:   *maxBytes,
		PoolSize:   *pool,
		Admission: serve.AdmissionConfig{
			Rate: *rate, Burst: *burst, MaxQueue: *queue,
		},
		StateDir:         *stateDir,
		BreakerThreshold: *breaker,
		MaxTimeout:       *maxTimeout,
		Registry:         o.Registry,
		Tracer:           o.Tracer,
		Logger:           logger,
	}

	srv := serve.New(cfg)
	hs := &http.Server{Handler: srv.Handler()}

	sigCtx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	// Listen explicitly so the actual bound address is printable — with
	// -addr :0 scripts parse the port from this line.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	if logger != nil {
		// Keep stdout machine-parseable: one structured record instead of
		// the plain banner.
		logger.Info("listening", "addr", ln.Addr().String())
	} else {
		fmt.Printf("hcd-server listening on %s\n", ln.Addr())
	}

	select {
	case serr := <-errc:
		return serr
	case <-sigCtx.Done():
	}

	fmt.Fprintln(os.Stderr, "hcd-server draining...")
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if derr := srv.Drain(dctx); derr != nil {
		fmt.Fprintf(os.Stderr, "drain incomplete: %v\n", derr)
	}
	if serr := hs.Shutdown(dctx); serr != nil {
		return serr
	}
	fmt.Fprintln(os.Stderr, "hcd-server stopped")
	return nil
}
