package replay

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"hcd/internal/serve"
)

// Options selects the replay target. The zero value replays in-process
// against a fresh serve.Server with effectively unlimited admission — the
// configuration under which every observable in the report's Deterministic
// section is reproducible bit-for-bit.
type Options struct {
	// Handler replays in-process against this handler (no network, no
	// listener) — the serve stack runs for real, only the transport is
	// elided.
	Handler http.Handler
	// BaseURL replays over HTTP against a live server (e.g.
	// "http://localhost:8080"); takes precedence over Handler.
	BaseURL string
	// Client is the HTTP client for BaseURL targets (default
	// http.DefaultClient).
	Client *http.Client
}

// target issues one request against whichever transport Options selected.
type target struct {
	h      http.Handler
	base   string
	client *http.Client
}

func newTarget(opt Options) target {
	t := target{h: opt.Handler, base: opt.BaseURL, client: opt.Client}
	if t.base != "" && t.client == nil {
		t.client = http.DefaultClient
	}
	if t.base == "" && t.h == nil {
		// Generous admission: the committed scenarios measure the solver and
		// cache behaviour, not timing-dependent throttling, which would make
		// outcomes (and so the score) racy.
		srv := serve.New(serve.Config{
			Admission: serve.AdmissionConfig{Rate: 1e12, Burst: 1e12},
		})
		t.h = srv.Handler()
	}
	return t
}

func (t target) do(ctx context.Context, method, path, tenant string, body []byte) (int, []byte, error) {
	var rd *bytes.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	} else {
		rd = bytes.NewReader(nil)
	}
	if t.base != "" {
		req, err := http.NewRequestWithContext(ctx, method, t.base+path, rd)
		if err != nil {
			return 0, nil, err
		}
		if tenant != "" {
			req.Header.Set("X-Tenant", tenant)
		}
		resp, err := t.client.Do(req)
		if err != nil {
			return 0, nil, err
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		_, err = buf.ReadFrom(resp.Body)
		return resp.StatusCode, buf.Bytes(), err
	}
	req := httptest.NewRequest(method, path, rd).WithContext(ctx)
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes(), nil
}

// solveWire mirrors the fields of the serve layer's solve response the
// report consumes.
type solveWire struct {
	CacheHit    bool  `json:"cache_hit"`
	Degraded    bool  `json:"degraded"`
	QueueWaitMS int64 `json:"queue_wait_ms"`
	Results     []struct {
		Outcome    string `json:"outcome"`
		Converged  bool   `json:"converged"`
		Iterations int    `json:"iterations"`
	} `json:"results"`
}

// sample is one replayed request's record, stored at its trace index so
// aggregation order never depends on completion order.
type sample struct {
	code        int
	outcome     string
	converged   bool
	iterations  int
	degraded    bool
	cacheHit    bool
	queueWaitMS int64
	latency     time.Duration
	err         error
}

// Run replays a trace against the target and scores the run. The engine
// first submits every scenario graph (?wait=true, so the hierarchy builds
// complete before the clock starts), then replays the requests under the
// scenario's arrival discipline, then aggregates the report in trace order.
func Run(ctx context.Context, tr *Trace, opt Options) (*Report, error) {
	sc := tr.Scenario.withDefaults()
	tgt := newTarget(opt)

	// Submit phase: one handle per scenario graph.
	handles := make([]string, len(sc.Graphs))
	for i, g := range sc.Graphs {
		path := fmt.Sprintf("/v1/graphs?spec=%s&wait=true", g.Spec)
		if g.Seed != 0 {
			path += fmt.Sprintf("&seed=%d", g.Seed)
		}
		if g.SizeCap != 0 {
			path += fmt.Sprintf("&sizecap=%d", g.SizeCap)
		}
		code, body, err := tgt.do(ctx, http.MethodPost, path, "replay", nil)
		if err != nil {
			return nil, fmt.Errorf("replay: submit %s: %w", g.Spec, err)
		}
		if code != http.StatusCreated {
			return nil, fmt.Errorf("replay: submit %s: HTTP %d: %s", g.Spec, code, bytes.TrimSpace(body))
		}
		var sub struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(body, &sub); err != nil || sub.ID == "" {
			return nil, fmt.Errorf("replay: submit %s: bad response %q", g.Spec, body)
		}
		handles[i] = sub.ID
	}

	samples := make([]sample, len(tr.Requests))
	start := time.Now()
	if sc.Arrival == ArrivalOpen {
		runOpen(ctx, tr, sc, tgt, handles, samples, start)
	} else {
		runClosed(ctx, tr, sc, tgt, handles, samples)
	}
	wall := time.Since(start)
	return buildReport(tr, samples, wall), nil
}

// runClosed replays with a fixed worker pool: sc.Workers goroutines each
// pull the next request index and issue it as soon as the previous answer
// returns.
func runClosed(ctx context.Context, tr *Trace, sc Scenario, tgt target, handles []string, samples []sample) {
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < sc.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				samples[i] = issue(ctx, tgt, handles, tr.Requests[i])
			}
		}()
	}
	for i := range tr.Requests {
		idx <- i
	}
	close(idx)
	wg.Wait()
}

// runOpen replays the Poisson arrival schedule: each request fires at its
// trace offset regardless of completions, with sc.Workers as an in-flight
// backstop so an overwhelmed target degrades the schedule instead of
// spawning unbounded goroutines.
func runOpen(ctx context.Context, tr *Trace, sc Scenario, tgt target, handles []string, samples []sample, start time.Time) {
	sem := make(chan struct{}, sc.Workers)
	var wg sync.WaitGroup
	for i := range tr.Requests {
		due := start.Add(time.Duration(tr.Requests[i].OffsetMS * float64(time.Millisecond)))
		if d := time.Until(due); d > 0 {
			select {
			case <-time.After(d):
			case <-ctx.Done():
			}
		}
		sem <- struct{}{}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			samples[i] = issue(ctx, tgt, handles, tr.Requests[i])
		}(i)
	}
	wg.Wait()
}

// issue executes one trace request and records its sample.
func issue(ctx context.Context, tgt target, handles []string, rq Request) sample {
	body, _ := json.Marshal(map[string]any{
		"rhs":      rq.RHS,
		"seed":     rq.Seed,
		"tol":      rq.Tol,
		"max_iter": rq.MaxIter,
		"method":   rq.Method,
		"wait":     true,
	})
	path := "/v1/graphs/" + handles[rq.Graph] + "/solve"
	begin := time.Now()
	code, resp, err := tgt.do(ctx, http.MethodPost, path, rq.Tenant, body)
	s := sample{code: code, latency: time.Since(begin), err: err}
	if err != nil {
		s.outcome = "transport_error"
		return s
	}
	if code != http.StatusOK {
		s.outcome = outcomeForCode(code)
		return s
	}
	var sw solveWire
	if jerr := json.Unmarshal(resp, &sw); jerr != nil {
		s.outcome = "bad_response"
		s.err = jerr
		return s
	}
	s.degraded = sw.Degraded
	s.cacheHit = sw.CacheHit
	s.queueWaitMS = sw.QueueWaitMS
	if len(sw.Results) == 0 {
		s.outcome = "empty_response"
		return s
	}
	s.converged = true
	s.outcome = "converged"
	for _, r := range sw.Results {
		s.iterations += r.Iterations
		if !r.Converged {
			s.converged = false
			s.outcome = r.Outcome
		}
	}
	return s
}

// outcomeForCode names the failure class of a non-200 answer, mirroring the
// serve layer's status mapping.
func outcomeForCode(code int) string {
	switch code {
	case http.StatusTooManyRequests:
		return "throttled"
	case http.StatusConflict:
		return "building"
	case http.StatusRequestTimeout, http.StatusGatewayTimeout:
		return "deadline"
	case http.StatusServiceUnavailable:
		return "draining"
	default:
		return fmt.Sprintf("http_%d", code)
	}
}
