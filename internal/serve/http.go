package serve

// The HTTP surface. Routes (Go 1.22 method+wildcard patterns):
//
//	POST   /v1/graphs            submit a graph; hierarchy builds async
//	GET    /v1/graphs            list cached handles
//	GET    /v1/graphs/{id}       poll one handle's build status
//	POST   /v1/graphs/{id}/solve solve against the cached hierarchy
//	DELETE /v1/graphs/{id}       evict a handle
//
// plus the PR-5 diagnostics mux (/metrics, /metrics.json, /debug/vars,
// /debug/pprof/*) mounted on the same server. Tenancy is declared with the
// X-Tenant header (absent = "default"); solve requests pass per-tenant
// token-bucket admission before touching an engine.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"hcd"
	"hcd/internal/cli"
	"hcd/internal/faultinject"
	"hcd/internal/gio"
	"hcd/internal/obs"
)

// apiError is the wire form of every non-2xx response.
type apiError struct {
	Error  string `json:"error"`
	Status string `json:"status,omitempty"` // handle status for 409s
}

// submitResponse answers POST /v1/graphs.
type submitResponse struct {
	ID     string       `json:"id"`
	Status HandleStatus `json:"status"`
	N      int          `json:"n"`
	M      int          `json:"m"`
}

// solveRequest is the wire form of POST /v1/graphs/{id}/solve. Right-hand
// sides come either inline (B) or generated server-side (RHS mean-free
// random vectors from Seed) — the latter keeps smoke tests and benchmarks
// free of megabyte request bodies.
type solveRequest struct {
	B    [][]float64 `json:"b,omitempty"`
	RHS  int         `json:"rhs,omitempty"`
	Seed int64       `json:"seed,omitempty"`
	// Method: "pcg" (default) or "resilient" (the opt-in fallback ladder;
	// builds its own preconditioners, skipping the pool).
	Method  string  `json:"method,omitempty"`
	Tol     float64 `json:"tol,omitempty"`
	MaxIter int     `json:"max_iter,omitempty"`
	// IncludeX returns the solution vectors (large!); default is summary only.
	IncludeX bool `json:"include_x,omitempty"`
	// Wait blocks the solve until the hierarchy build finishes instead of
	// failing fast with 409.
	Wait bool `json:"wait,omitempty"`
}

// solveResult is one right-hand side's outcome on the wire.
type solveResult struct {
	Outcome       string    `json:"outcome"`
	Converged     bool      `json:"converged"`
	Iterations    int       `json:"iterations"`
	FinalResidual float64   `json:"final_residual"`
	X             []float64 `json:"x,omitempty"`
	Rung          string    `json:"rung,omitempty"`
	Recovered     bool      `json:"recovered,omitempty"`
}

// solveResponse answers POST /v1/graphs/{id}/solve.
type solveResponse struct {
	GraphID     string        `json:"graph_id"`
	Results     []solveResult `json:"results"`
	CacheHit    bool          `json:"cache_hit"`
	Degraded    bool          `json:"degraded,omitempty"` // served by Jacobi-PCG, the ladder's last rung (breaker open)
	QueueWaitMS int64         `json:"queue_wait_ms"`
}

func (s *Server) routes() {
	s.mux.HandleFunc("POST /v1/graphs", s.wrap("submit", s.handleSubmit))
	s.mux.HandleFunc("GET /v1/graphs", s.wrap("list", s.handleList))
	s.mux.HandleFunc("GET /v1/graphs/{id}", s.wrap("status", s.handleStatus))
	s.mux.HandleFunc("POST /v1/graphs/{id}/solve", s.wrap("solve", s.handleSolve))
	s.mux.HandleFunc("DELETE /v1/graphs/{id}", s.wrap("delete", s.handleDelete))
	// Health endpoints sit outside wrap: liveness must answer even while
	// draining, and readiness implements the drain refusal itself (with
	// Retry-After, no Connection: close churn for probes).
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	om := obs.NewMux(s.reg)
	s.mux.Handle("/metrics", om)
	s.mux.Handle("/metrics.json", om)
	s.mux.Handle("/debug/", om)
}

// handleHealthz is pure liveness: the process is up and the mux serving.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz gates traffic: 503 while draining or before the durable-state
// restore has finished, 200 with a state summary otherwise. A persistence
// setup failure (unusable state dir) is reported in the body but does not
// fail readiness — the server still serves, memory-only.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	type readyz struct {
		Status      string `json:"status"`
		Handles     int    `json:"handles"`
		Draining    bool   `json:"draining"`
		PersistWarn string `json:"persist_warning,omitempty"`
	}
	body := readyz{Handles: len(s.store.List()), Draining: s.draining.Load()}
	if s.persistErr != nil {
		body.PersistWarn = s.persistErr.Error()
	}
	switch {
	case s.draining.Load():
		body.Status = "draining"
		w.Header().Set("Retry-After", "5")
		writeJSON(w, http.StatusServiceUnavailable, body)
	case !s.ready.Load():
		body.Status = "restoring"
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, body)
	default:
		body.Status = "ok"
		writeJSON(w, http.StatusOK, body)
	}
}

// wrap applies the common request plumbing: drain refusal, in-flight
// accounting, observability context, a per-request span, and the
// serve_requests_total / serve_request_seconds series.
func (s *Server) wrap(route string, fn http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.draining.Load() {
			counter(s.reg, metricDrainRefused)
			w.Header().Set("Connection", "close")
			w.Header().Set("Retry-After", "5")
			writeErr(w, http.StatusServiceUnavailable, "server draining")
			return
		}
		s.inflight.Add(1)
		defer s.inflight.Done()
		gaugeAdd(s.reg, metricInflight, 1)
		defer gaugeAdd(s.reg, metricInflight, -1)

		ctx := r.Context()
		// Deadline budget: ?timeout_ms= opts in, Config.MaxTimeout caps it
		// (and applies on its own when set). Expiry surfaces as 504 via
		// timeoutCode; a client disconnect stays 408. A timeout_ms that is
		// not an integer answers 400 in place of the handler.
		budget, badQuery := requestBudget(r, s.cfg.MaxTimeout)
		if budget > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, budget)
			defer cancel()
		}
		if s.tr != nil {
			ctx = obs.WithTracer(ctx, s.tr)
		}
		if s.reg != nil {
			ctx = obs.WithRegistry(ctx, s.reg)
		}
		ctx, sp := obs.StartSpan(ctx, "serve/"+route)
		defer sp.End()
		sp.Arg("method", r.Method)
		sp.Arg("path", r.URL.Path)
		sp.Arg("tenant", tenant(r))

		// Access logging: install the status recorder and the handler
		// annotation record only when a logger exists, so the disabled path
		// stays allocation-free.
		var lf *logFields
		out := w
		if s.log != nil {
			lf = &logFields{}
			ctx = context.WithValue(ctx, logFieldsKey{}, lf)
			rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
			out = rec
			defer func(start time.Time) {
				s.logRequest(ctx, route, r, rec.code, time.Since(start), lf)
			}(time.Now())
		}

		counter(s.reg, metricRequests+`{route="`+route+`"}`)
		start := time.Now()
		if badQuery != nil {
			writeErr(out, http.StatusBadRequest, "%v", badQuery)
		} else {
			fn(out, r.WithContext(ctx))
		}
		observe(s.reg, metricRequestTime+`{route="`+route+`"}`, time.Since(start))
	}
}

func tenant(r *http.Request) string {
	return safeLabel(r.Header.Get("X-Tenant"))
}

// requestBudget resolves the effective deadline for one request: the
// ?timeout_ms= query value clamped to the server cap, the cap alone when the
// client asks for nothing (no value, or one ≤ 0), zero (no deadline) when
// neither is set. A timeout_ms that is not an integer is an error.
func requestBudget(r *http.Request, cap time.Duration) (time.Duration, error) {
	ms, _, err := queryInt(r.URL.Query(), "timeout_ms", 64)
	want := time.Duration(ms) * time.Millisecond
	switch {
	case err != nil:
		return 0, err
	case want <= 0:
		return cap, nil
	case cap > 0 && want > cap:
		return cap, nil
	default:
		return want, nil
	}
}

// queryInt reads the integer query parameter name, of the given bit size:
// set is false when the request does not carry it, and a value that is there
// but is not an integer — the empty string included — is an error naming it.
func queryInt(q url.Values, name string, bits int) (v int64, set bool, err error) {
	if !q.Has(name) {
		return 0, false, nil
	}
	s := q.Get(name)
	if v, err = strconv.ParseInt(s, 10, bits); err != nil {
		return 0, false, fmt.Errorf("query parameter %s=%q is not an integer", name, s)
	}
	return v, true, nil
}

// timeoutCode maps a context-shaped interruption to its HTTP status: the
// server's own deadline expiring is 504 Gateway Timeout (the budget ran
// out), anything else — in practice the client hanging up — is 408.
func (s *Server) timeoutCode(ctx context.Context, err error) int {
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(ctx.Err(), context.DeadlineExceeded) {
		counter(s.reg, metricDeadlineExceeded)
		return http.StatusGatewayTimeout
	}
	return http.StatusRequestTimeout
}

// writeJSON answers with v encoded as json.Encoder encodes it. It encodes
// before writing the status, so a value encoding/json refuses (a NaN, an
// Inf) answers 500 with an apiError rather than its status and no body.
func writeJSON(w http.ResponseWriter, code int, v any) {
	buf, err := json.Marshal(v)
	if err != nil {
		code = http.StatusInternalServerError
		buf, _ = json.Marshal(apiError{Error: "encode response: " + err.Error()})
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(append(buf, '\n'))
}

func allConverged(results []hcd.SolveResult) bool {
	for _, r := range results {
		if !r.Converged {
			return false
		}
	}
	return true
}

func writeErr(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, apiError{Error: fmt.Sprintf(format, args...)})
}

// handleSubmit ingests a graph and starts its hierarchy build. The graph
// arrives either in the request body (?format=edgelist|mm, the gio formats)
// or generated server-side from a workload spec (?spec=grid3d:12 — the CLI
// generator grammar). ?sizecap= and ?seed= tune the hierarchy build (a
// sizecap below 2 and a seed of 0 keep the defaults) and answer 400 when they
// are not integers; ?wait=true blocks until the build finishes.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	seed, hasSeed, err := queryInt(q, "seed", 64)
	sizecap, hasCap, cerr := queryInt(q, "sizecap", strconv.IntSize)
	if err = errors.Join(err, cerr); err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	var g *hcd.Graph
	if spec := q.Get("spec"); spec != "" {
		gseed := int64(1)
		if hasSeed {
			gseed = seed
		}
		g, err = cli.BuildGraph(spec, gseed)
	} else {
		body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
		g, err = gio.Read(body, q.Get("format"))
	}
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad graph: %v", err)
		return
	}

	var hopt *hcd.HierarchyOptions
	if hasCap || hasSeed {
		o := hcd.DefaultHierarchyOptions()
		if sizecap >= 2 {
			o.SizeCap = int(sizecap)
		}
		if seed != 0 {
			o.Seed = seed
		}
		hopt = &o
	}

	h, err := s.store.Put(g, hopt)
	if err != nil {
		code := http.StatusInsufficientStorage
		if !errors.Is(err, ErrNoCapacity) {
			code = http.StatusInternalServerError
		}
		writeErr(w, code, "%v", err)
		return
	}
	logFieldsFrom(r.Context()).setHandle(h.id)
	if q.Get("wait") == "true" {
		select {
		case <-s.store.readyChan(h):
		case <-r.Context().Done():
			writeErr(w, s.timeoutCode(r.Context(), nil), "wait cancelled: %v", r.Context().Err())
			return
		}
	}
	info, err := s.store.Info(h.id)
	if err != nil {
		// Evicted between Put and Info — only possible under a byte budget
		// so tight the build itself overflowed it.
		writeErr(w, http.StatusInsufficientStorage, "handle evicted during build")
		return
	}
	writeJSON(w, http.StatusCreated, submitResponse{ID: h.id, Status: info.Status, N: g.N(), M: g.M()})
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.store.List())
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	info, err := s.store.Info(r.PathValue("id"))
	if err != nil {
		writeErr(w, http.StatusNotFound, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	if err := s.store.Delete(r.PathValue("id")); err != nil {
		writeErr(w, http.StatusNotFound, "%v", err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleSolve runs one solve request against a cached hierarchy: admission
// first (429 + Retry-After on overload), then handle resolution (409 while
// building unless wait), then an engine checkout from the warm pool, then
// hcd.Do — the same implementation the CLI uses.
func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	ctx := r.Context()
	id := r.PathValue("id")
	ten := tenant(r)
	logFieldsFrom(ctx).setHandle(id)

	req, err := readSolveRequest(w, r, s.cfg.MaxBodyBytes)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad solve request: %v", err)
		return
	}
	nrhs := len(req.B)
	if nrhs == 0 {
		nrhs = req.RHS
		if nrhs <= 0 {
			nrhs = 1
		}
	}

	// Admission: one token per right-hand side.
	waited, err := s.adm.Acquire(ctx, ten, float64(nrhs))
	var over *OverloadError
	if errors.As(err, &over) {
		counter(s.reg, metricThrottled+`{tenant="`+ten+`"}`)
		logFieldsFrom(ctx).setOutcome("throttled")
		w.Header().Set("Retry-After", strconv.Itoa(int(math.Ceil(over.RetryAfter.Seconds()))))
		writeErr(w, http.StatusTooManyRequests, "%v", over)
		return
	}
	if err != nil {
		writeErr(w, s.timeoutCode(ctx, err), "admission wait cancelled: %v", err)
		return
	}
	counter(s.reg, metricAdmitted+`{tenant="`+ten+`"}`)
	observe(s.reg, metricQueueWait, waited)

	h, release, err := s.store.Get(id)
	if err != nil {
		writeErr(w, http.StatusNotFound, "%v", err)
		return
	}
	defer release()

	// A handle restored from a snapshot is ready but empty until its first
	// use: hydrate it now. Hydration may flip the handle to building (graph
	// recovered, hierarchy data corrupt) or failed (nothing recovered) —
	// the state machine below handles both like any other handle.
	if err := s.store.ensureHydrated(ctx, h); err != nil {
		writeErr(w, s.timeoutCode(ctx, err), "hydration wait cancelled: %v", err)
		return
	}

	status, g, hier, pool, buildErr := s.store.solveState(h)
	cacheHit := status == StatusReady
	if status == StatusBuilding {
		if !req.Wait {
			counter(s.reg, metricCacheMisses)
			writeJSON(w, http.StatusConflict, apiError{
				Error: ErrBuilding.Error(), Status: string(StatusBuilding),
			})
			return
		}
		counter(s.reg, metricCacheMisses)
		select {
		case <-s.store.readyChan(h):
		case <-ctx.Done():
			writeErr(w, s.timeoutCode(ctx, nil), "build wait cancelled: %v", ctx.Err())
			return
		}
		status, g, hier, pool, buildErr = s.store.solveState(h)
	}
	if status == StatusFailed {
		// One background retry per failed solve attempt; the client gets
		// the error now and better luck on a later request.
		s.store.retryBuild(h)
		writeErr(w, http.StatusUnprocessableEntity, "hierarchy build failed: %v", buildErr)
		return
	}
	degraded := status == StatusDegraded
	if degraded {
		counter(s.reg, metricDegradedSolves)
	}
	if cacheHit {
		counter(s.reg, metricCacheHits)
	}

	b := req.B
	if len(b) == 0 {
		seed := req.Seed
		if seed == 0 {
			seed = 1
		}
		b = make([][]float64, nrhs)
		for i := range b {
			b[i] = cli.MeanFreeRHS(g.N(), seed+int64(i))
		}
	}

	opt := hcd.DefaultSolveOptions()
	if req.Tol > 0 {
		opt.Tol = req.Tol
	}
	if req.MaxIter > 0 {
		opt.MaxIter = req.MaxIter
	}
	doReq := hcd.SolveRequest{B: b, Options: opt, M: hier}
	switch {
	case degraded:
		// Breaker open: there is no hierarchy to precondition with. Serve
		// the request anyway — Jacobi-PCG on the raw graph, the resilient
		// ladder's final rung — rather than erroring. Slower, never wrong.
		doReq.Method = hcd.SolveMethodPCG
		doReq.M = nil
		doReq.Precond = hcd.PrecondSpec{Kind: hcd.PrecondJacobi}
	case req.Method == "" || req.Method == "pcg":
		doReq.Method = hcd.SolveMethodPCG
		eng, perr := pool.acquire(ctx)
		if perr != nil {
			writeErr(w, s.timeoutCode(ctx, perr), "engine wait cancelled: %v", perr)
			return
		}
		defer pool.release(eng)
		doReq.Engine = eng
	case req.Method == "resilient":
		// Rung 1 solves with the handle's cached hierarchy, already doReq.M.
		doReq.Method = hcd.SolveMethodResilient
	default:
		writeErr(w, http.StatusBadRequest, "unknown method %q", req.Method)
		return
	}

	if faultinject.Enabled() {
		faultinject.Fire(faultinject.SolveDelay) // chaos latency injection point
	}
	if cerr := ctx.Err(); cerr != nil {
		writeErr(w, s.timeoutCode(ctx, cerr), "request expired before solve: %v", cerr)
		return
	}

	start := time.Now()
	resp, err := hcd.Do(ctx, g, doReq)
	observe(s.reg, metricSolveTime, time.Since(start))
	s.store.CountSolve(h)
	totalIters := 0
	aggOutcome := ""
	for _, res := range resp.Results {
		counter(s.reg, metricSolves+`{outcome="`+res.Outcome.String()+`"}`)
		totalIters += res.Iterations
		if !res.Converged && aggOutcome == "" {
			aggOutcome = res.Outcome.String()
		}
	}
	if aggOutcome == "" {
		aggOutcome = "converged"
	}
	logFieldsFrom(ctx).setSolve(aggOutcome, len(b), totalIters, degraded, waited.Milliseconds())
	if err != nil && len(resp.Results) == 0 {
		code := http.StatusInternalServerError
		if ctx.Err() != nil {
			code = s.timeoutCode(ctx, err)
		}
		writeErr(w, code, "solve failed: %v", err)
		return
	}
	// Do reports an expired context as OutcomeCancelled with a nil error; a
	// request whose deadline budget ran out mid-solve must still surface as
	// 504 (or 408 on client disconnect), not as 200 with cancelled results.
	if cerr := ctx.Err(); cerr != nil && !allConverged(resp.Results) {
		writeErr(w, s.timeoutCode(ctx, cerr), "deadline expired mid-solve: %v", cerr)
		return
	}

	out := solveResponse{
		GraphID:     id,
		CacheHit:    cacheHit,
		Degraded:    degraded,
		QueueWaitMS: waited.Milliseconds(),
	}
	for i, res := range resp.Results {
		sr := solveResult{
			Outcome:       res.Outcome.String(),
			Converged:     res.Converged,
			Iterations:    res.Iterations,
			FinalResidual: res.Metrics.FinalResidual,
		}
		if req.IncludeX {
			sr.X = res.X
		}
		if i < len(resp.Resilience) {
			sr.Rung = resp.Resilience[i].Rung
			sr.Recovered = resp.Resilience[i].Recovered
		}
		if degraded {
			sr.Rung = hcd.RungJacobiPCG
		}
		out.Results = append(out.Results, sr)
	}
	if err != nil {
		// Partial failure: report what completed plus the error.
		code := http.StatusInternalServerError
		if ctx.Err() != nil {
			code = s.timeoutCode(ctx, err)
		}
		msg := err.Error()
		writeSolve(w, code, &out, &msg)
		return
	}
	writeSolve(w, http.StatusOK, &out, nil)
}
