package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"hcd"
	"hcd/internal/cli"
	"hcd/internal/faultinject"
	"hcd/internal/gio"
	"hcd/internal/graph"
	"hcd/internal/kernel"
	"hcd/internal/obs"
)

// client is a tiny JSON test client against an httptest server.
type client struct {
	t    *testing.T
	base string
	hc   *http.Client
}

func (c *client) do(method, path, tenant string, body any) (int, map[string]any, http.Header) {
	c.t.Helper()
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			c.t.Fatal(err)
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		c.t.Fatal(err)
	}
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	out := map[string]any{}
	raw, _ := io.ReadAll(resp.Body)
	if len(raw) > 0 {
		_ = json.Unmarshal(raw, &out)
	}
	return resp.StatusCode, out, resp.Header
}

func newTestServer(t *testing.T, cfg Config) (*Server, *client) {
	t.Helper()
	srv := New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, &client{t: t, base: ts.URL, hc: ts.Client()}
}

// TestSubmitPollSolveEvict is the core lifecycle: submit a graph, poll until
// the hierarchy is ready, solve against the cache twice (the second must be
// a cache hit with zero build work in its trace), list, and evict.
func TestSubmitPollSolveEvict(t *testing.T) {
	tr := obs.NewTracer()
	srv, c := newTestServer(t, Config{Tracer: tr})

	code, body, _ := c.do("POST", "/v1/graphs?spec=grid3d:8&wait=true", "", nil)
	if code != http.StatusCreated {
		t.Fatalf("submit: code %d body %v", code, body)
	}
	id := body["id"].(string)
	if body["status"] != "ready" {
		t.Fatalf("submit with wait: status %v", body["status"])
	}

	code, body, _ = c.do("GET", "/v1/graphs/"+id, "", nil)
	if code != http.StatusOK || body["status"] != "ready" {
		t.Fatalf("poll: code %d body %v", code, body)
	}
	if lv, ok := body["levels"].([]any); !ok || len(lv) == 0 {
		t.Fatalf("poll: no hierarchy levels in %v", body)
	}

	solve := map[string]any{"rhs": 2, "seed": 5}
	code, body, _ = c.do("POST", "/v1/graphs/"+id+"/solve", "", solve)
	if code != http.StatusOK {
		t.Fatalf("solve: code %d body %v", code, body)
	}
	results := body["results"].([]any)
	if len(results) != 2 {
		t.Fatalf("solve: want 2 results, got %d", len(results))
	}
	for i, r := range results {
		if r.(map[string]any)["converged"] != true {
			t.Fatalf("solve: rhs %d did not converge: %v", i, r)
		}
	}

	hits := srv.Registry().Counter(metricCacheHits).Value()
	code, body, _ = c.do("POST", "/v1/graphs/"+id+"/solve", "", solve)
	if code != http.StatusOK || body["cache_hit"] != true {
		t.Fatalf("second solve: code %d body %v", code, body)
	}
	if after := srv.Registry().Counter(metricCacheHits).Value(); after <= hits {
		t.Fatalf("cache hit counter did not advance: %d -> %d", hits, after)
	}
	if builds := srv.Registry().Counter(`serve_builds_total{outcome="ok"}`).Value(); builds != 1 {
		t.Fatalf("want exactly 1 hierarchy build, got %d", builds)
	}
	assertNoBuildUnderSolves(t, tr)

	code, body, _ = c.do("GET", "/v1/graphs", "", nil)
	if code != http.StatusOK {
		t.Fatalf("list: code %d", code)
	}

	code, _, _ = c.do("DELETE", "/v1/graphs/"+id, "", nil)
	if code != http.StatusNoContent {
		t.Fatalf("delete: code %d", code)
	}
	code, _, _ = c.do("GET", "/v1/graphs/"+id, "", nil)
	if code != http.StatusNotFound {
		t.Fatalf("poll after delete: code %d, want 404", code)
	}
	if code, body, _ = c.do("POST", "/v1/graphs/"+id+"/solve", "", solve); code != http.StatusNotFound {
		t.Fatalf("solve after delete: code %d body %v, want 404", code, body)
	}
}

// assertNoBuildUnderSolves walks the span forest: no solve-request span may
// have hierarchy-build work in its subtree — all builds happen under
// root-level serve/build spans, asynchronously from requests.
func assertNoBuildUnderSolves(t *testing.T, tr *obs.Tracer) {
	t.Helper()
	spans := tr.Spans()
	children := map[uint64][]obs.SpanInfo{}
	var solveRoots []obs.SpanInfo
	builds := 0
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
		if s.Name == "serve/solve" {
			solveRoots = append(solveRoots, s)
		}
		if s.Name == "serve/build" {
			builds++
			if s.Parent != 0 {
				t.Errorf("serve/build parented at span %d, want trace root", s.Parent)
			}
		}
	}
	if len(solveRoots) == 0 {
		t.Fatal("no serve/solve spans recorded")
	}
	if builds == 0 {
		t.Fatal("no serve/build span recorded")
	}
	var walk func(id uint64) []string
	walk = func(id uint64) []string {
		var names []string
		for _, ch := range children[id] {
			names = append(names, ch.Name)
			names = append(names, walk(ch.ID)...)
		}
		return names
	}
	for _, root := range solveRoots {
		for _, name := range walk(root.ID) {
			if strings.Contains(name, "build") {
				t.Errorf("solve request span %d contains build-stage span %q", root.ID, name)
			}
		}
	}
}

// TestSolveWhileBuilding covers the 409-vs-wait choice on a handle whose
// hierarchy is still building.
func TestSolveWhileBuilding(t *testing.T) {
	_, c := newTestServer(t, Config{})
	// A grid large enough that the async build is observably in flight.
	code, body, _ := c.do("POST", "/v1/graphs?spec=grid3d:16", "", nil)
	if code != http.StatusCreated {
		t.Fatalf("submit: code %d body %v", code, body)
	}
	id := body["id"].(string)

	// Fail-fast path: while the build runs a bare solve answers 409 with
	// the building status. The build may win the race, so accept 200 too —
	// but 409 must carry the status marker.
	code, body, _ = c.do("POST", "/v1/graphs/"+id+"/solve", "", map[string]any{"rhs": 1})
	switch code {
	case http.StatusConflict:
		if body["status"] != "building" {
			t.Fatalf("409 without building status: %v", body)
		}
	case http.StatusOK:
		// build finished first; fine
	default:
		t.Fatalf("solve while building: code %d body %v", code, body)
	}

	// Wait path: always succeeds once the build lands.
	code, body, _ = c.do("POST", "/v1/graphs/"+id+"/solve", "", map[string]any{"rhs": 1, "wait": true})
	if code != http.StatusOK {
		t.Fatalf("solve with wait: code %d body %v", code, body)
	}
}

// TestLRUEviction: a 2-handle store drops the least recently used handle on
// the third submit.
func TestLRUEviction(t *testing.T) {
	srv, c := newTestServer(t, Config{MaxHandles: 2})
	var ids []string
	for i := 0; i < 3; i++ {
		code, body, _ := c.do("POST", fmt.Sprintf("/v1/graphs?spec=grid2d:%d&wait=true", 8+i), "", nil)
		if code != http.StatusCreated {
			t.Fatalf("submit %d: code %d body %v", i, code, body)
		}
		ids = append(ids, body["id"].(string))
	}
	if code, _, _ := c.do("GET", "/v1/graphs/"+ids[0], "", nil); code != http.StatusNotFound {
		t.Fatalf("oldest handle not evicted: code %d", code)
	}
	for _, id := range ids[1:] {
		if code, _, _ := c.do("GET", "/v1/graphs/"+id, "", nil); code != http.StatusOK {
			t.Fatalf("handle %s evicted unexpectedly: code %d", id, code)
		}
	}
	if ev := srv.Registry().Counter(metricEvictions).Value(); ev != 1 {
		t.Fatalf("want 1 eviction, got %d", ev)
	}
}

// TestConcurrentClients hammers one cached handle from many goroutines —
// engines come from the warm pool, and under -race this doubles as the
// serving stack's data-race check. Every response's x must solve that
// request's own right-hand side: two requests sharing a pooled engine's
// buffers would hand back a converged solution for another seed.
func TestConcurrentClients(t *testing.T) {
	srv, c := newTestServer(t, Config{PoolSize: 2})
	code, body, _ := c.do("POST", "/v1/graphs?spec=grid3d:6&wait=true", "", nil)
	if code != http.StatusCreated {
		t.Fatalf("submit: code %d body %v", code, body)
	}
	id := body["id"].(string)
	h, release, err := srv.store.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	_, g, _, _, _ := srv.store.solveState(h)
	release()

	const workers, per = 8, 4
	var wg sync.WaitGroup
	errs := make(chan error, workers*per)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl := &client{t: t, base: c.base, hc: c.hc}
			for i := 0; i < per; i++ {
				seed := w*100 + i + 1
				code, body, _ := cl.do("POST", "/v1/graphs/"+id+"/solve", fmt.Sprintf("w%d", w),
					map[string]any{"rhs": 1, "seed": seed, "include_x": true})
				if code != http.StatusOK {
					errs <- fmt.Errorf("worker %d solve %d: code %d body %v", w, i, code, body)
					return
				}
				res := body["results"].([]any)[0].(map[string]any)
				if res["converged"] != true {
					errs <- fmt.Errorf("worker %d solve %d did not converge", w, i)
					return
				}
				xs := res["x"].([]any)
				x := make([]float64, len(xs))
				for j, v := range xs {
					x[j] = v.(float64)
				}
				if rel := relResidual(g, x, cli.MeanFreeRHS(g.N(), int64(seed))); rel > 1e-6 {
					errs <- fmt.Errorf("worker %d solve %d: relative residual %v against its own rhs", w, i, rel)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// relResidual is ‖b − Ax‖/‖b‖ for the graph Laplacian A.
func relResidual(g *hcd.Graph, x, b []float64) float64 {
	ax := make([]float64, g.N())
	g.LapMul(ax, x)
	var rn, bn float64
	for v := range ax {
		rn += (ax[v] - b[v]) * (ax[v] - b[v])
		bn += b[v] * b[v]
	}
	return math.Sqrt(rn / bn)
}

// TestAdmissionOverloadHTTP asserts the 429 contract: a tenant that burns
// its burst gets 429 with a Retry-After header, and a different tenant on
// the same server is untouched.
func TestAdmissionOverloadHTTP(t *testing.T) {
	_, c := newTestServer(t, Config{
		Admission: AdmissionConfig{Rate: 1e-9, Burst: 2, MaxQueue: 0},
	})
	code, body, _ := c.do("POST", "/v1/graphs?spec=grid2d:8&wait=true", "", nil)
	if code != http.StatusCreated {
		t.Fatalf("submit: code %d body %v", code, body)
	}
	id := body["id"].(string)
	solve := map[string]any{"rhs": 1}

	for i := 0; i < 2; i++ {
		if code, body, _ = c.do("POST", "/v1/graphs/"+id+"/solve", "noisy", solve); code != http.StatusOK {
			t.Fatalf("noisy solve %d: code %d body %v", i, code, body)
		}
	}
	code, body, hdr := c.do("POST", "/v1/graphs/"+id+"/solve", "noisy", solve)
	if code != http.StatusTooManyRequests {
		t.Fatalf("saturated tenant: code %d body %v, want 429", code, body)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After header")
	}
	if code, body, _ = c.do("POST", "/v1/graphs/"+id+"/solve", "quiet", solve); code != http.StatusOK {
		t.Fatalf("quiet tenant degraded: code %d body %v", code, body)
	}
}

// TestDrainRefusesNewWork: a draining server 503s fresh requests.
func TestDrainRefuses(t *testing.T) {
	srv, c := newTestServer(t, Config{})
	if err := srv.Drain(t.Context()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	code, body, _ := c.do("GET", "/v1/graphs", "", nil)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("request on draining server: code %d body %v, want 503", code, body)
	}
}

// TestSubmitBodyFormats round-trips an edge-list body (the gio format path,
// no server-side generator involved).
func TestSubmitBodyFormats(t *testing.T) {
	_, c := newTestServer(t, Config{})
	edges := "0 1 1.0\n1 2 2.0\n2 3 1.0\n3 0 1.5\n"
	req, err := http.NewRequest("POST", c.base+"/v1/graphs?format=edgelist&wait=true", strings.NewReader(edges))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit edgelist: code %d body %v", resp.StatusCode, body)
	}
	if n := body["n"].(float64); n != 4 {
		t.Fatalf("edgelist graph: n=%v, want 4", n)
	}
	id := body["id"].(string)
	code, body, _ := c.do("POST", "/v1/graphs/"+id+"/solve", "", map[string]any{"rhs": 1, "include_x": true})
	if code != http.StatusOK {
		t.Fatalf("solve: code %d body %v", code, body)
	}
	x := body["results"].([]any)[0].(map[string]any)["x"].([]any)
	if len(x) != 4 {
		t.Fatalf("include_x: len %d, want 4", len(x))
	}
}

// TestBuildInfoOnMetrics: /metrics says what this process runs — the
// architecture and which form, AVX2 or Go, the leaf kernels run — as the
// labels of a constant-1 gauge, so a latency gap between two hosts is read
// off their scrapes.
func TestBuildInfoOnMetrics(t *testing.T) {
	_, c := newTestServer(t, Config{})
	resp, err := c.hc.Get(c.base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("hcd_build_info{goarch=%q,kernel=%q} 1\n", runtime.GOARCH, kernel.Name())
	if !strings.Contains(string(body), want) {
		t.Errorf("/metrics lacks %q", want)
	}
}

// TestSolveMethods posts each non-PCG method to the solve route: the
// resilient ladder, and a method the route does not know.
func TestSolveMethods(t *testing.T) {
	_, c := newTestServer(t, Config{})
	code, body, _ := c.do("POST", "/v1/graphs?spec=grid2d:48&wait=true", "", nil)
	if code != http.StatusCreated {
		t.Fatalf("submit: code %d body %v", code, body)
	}
	path := "/v1/graphs/" + body["id"].(string) + "/solve"
	for _, tc := range []struct {
		name string
		req  map[string]any
		code int
	}{
		{"resilient", map[string]any{"method": "resilient", "rhs": 2}, http.StatusOK},
		{"unknown", map[string]any{"method": "gmres"}, http.StatusBadRequest},
	} {
		code, body, _ := c.do("POST", path, "", tc.req)
		if code != tc.code {
			t.Errorf("%s: code %d, want %d (body %v)", tc.name, code, tc.code, body)
			continue
		}
		if code != http.StatusOK {
			continue
		}
		results, _ := body["results"].([]any)
		if len(results) == 0 {
			t.Errorf("%s: no results in %v", tc.name, body)
		}
		for i, r := range results {
			r := r.(map[string]any)
			if r["converged"] != true {
				t.Errorf("%s: rhs %d did not converge: %v", tc.name, i, r)
			}
			if rung, _ := r["rung"].(string); tc.req["method"] == "resilient" && rung == "" {
				t.Errorf("%s: rhs %d names no rung: %v", tc.name, i, r)
			}
		}
	}
}

// TestResilientMethodRestartsInRung: the resilient method restarts a broken-
// down PCG attempt in place, as SolveResilient does, before it rebuilds the
// hierarchy under another seed: one forced breakdown is absorbed by rung 1.
func TestResilientMethodRestartsInRung(t *testing.T) {
	_, c := newTestServer(t, Config{})
	code, body, _ := c.do("POST", "/v1/graphs?spec=grid2d:48&wait=true", "", nil)
	if code != http.StatusCreated {
		t.Fatalf("submit: code %d body %v", code, body)
	}
	restore := faultinject.Activate(map[string]faultinject.Spec{
		faultinject.ForceBreakdown: {OnHit: 4, Count: 1},
	})
	code, body, _ = c.do("POST", "/v1/graphs/"+body["id"].(string)+"/solve", "", map[string]any{"method": "resilient"})
	restore()
	if code != http.StatusOK {
		t.Fatalf("solve: code %d body %v", code, body)
	}
	r := body["results"].([]any)[0].(map[string]any)
	if r["converged"] != true || r["rung"] != hcd.RungHierarchyPCG || r["recovered"] == true {
		t.Errorf("result %v: want converged on rung %s without a recovery", r, hcd.RungHierarchyPCG)
	}
}

// TestResilientMethodUsesCachedHierarchy: the resilient method's first rung
// solves with the handle's cached hierarchy — built once, at submit, under the
// handle's ?sizecap= — so a clean two-column request starts no hierarchy
// build of its own.
func TestResilientMethodUsesCachedHierarchy(t *testing.T) {
	tr := obs.NewTracer()
	_, c := newTestServer(t, Config{Tracer: tr})
	builds := func() int {
		n := 0
		for _, s := range tr.Spans() {
			if s.Name == "hierarchy/build" {
				n++
			}
		}
		return n
	}
	code, body, _ := c.do("POST", "/v1/graphs?spec=grid2d:48&sizecap=8&wait=true", "", nil)
	if code != http.StatusCreated {
		t.Fatalf("submit: code %d body %v", code, body)
	}
	before := builds()
	if before != 1 {
		t.Fatalf("submit started %d hierarchy builds, want 1", before)
	}
	code, body, _ = c.do("POST", "/v1/graphs/"+body["id"].(string)+"/solve", "", map[string]any{"method": "resilient", "rhs": 2})
	if code != http.StatusOK {
		t.Fatalf("solve: code %d body %v", code, body)
	}
	results, _ := body["results"].([]any)
	if len(results) != 2 {
		t.Fatalf("%d results, want 2: %v", len(results), body)
	}
	for i, r := range results {
		r := r.(map[string]any)
		if r["converged"] != true || r["rung"] != hcd.RungHierarchyPCG {
			t.Errorf("rhs %d: %v, want converged on rung %s", i, r, hcd.RungHierarchyPCG)
		}
	}
	if n := builds() - before; n != 0 {
		t.Errorf("the resilient solve started %d hierarchy builds, want 0", n)
	}
}

// buildDigest hashes what a hierarchy build decides: the graph and every
// level's assignment (its snapshot, from which Rebuild reproduces the build),
// the cycle's level scales and its entries per apply.
func buildDigest(t *testing.T, g *hcd.Graph, h *hcd.Hierarchy) uint64 {
	t.Helper()
	d := fnv.New64a()
	if err := gio.WriteHierarchySnapshot(d, g, h); err != nil {
		t.Fatal(err)
	}
	for _, s := range h.LevelScales() {
		fmt.Fprintf(d, "%x %x %d;", math.Float64bits(s.Gamma), math.Float64bits(s.Alpha), s.Visits)
	}
	fmt.Fprintf(d, "%d", h.CycleEntries())
	return d.Sum64()
}

// TestSubmitBuildGOMAXPROCSInvariant: a submitted graph gets the facade's
// default single-pass build whatever the worker count. grid3d:59 has 205 379
// vertices, above the size from which the server once sharded a build by its
// worker count. Run it under -cpu 1,2.
func TestSubmitBuildGOMAXPROCSInvariant(t *testing.T) {
	srv, c := newTestServer(t, Config{})
	code, body, _ := c.do("POST", "/v1/graphs?spec=grid3d:59&wait=true", "", nil)
	if code != http.StatusCreated || body["status"] != "ready" {
		t.Fatalf("submit: code %d body %v", code, body)
	}
	h, release, err := srv.store.Get(body["id"].(string))
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	srv.store.mu.Lock()
	gotG, got := h.g, h.h
	srv.store.mu.Unlock()

	g, err := cli.BuildGraph("grid3d:59", 1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := hcd.NewHierarchyCtx(context.Background(), g, hcd.DefaultHierarchyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if gs, ws := got.LevelSizes(), want.LevelSizes(); !slices.Equal(gs, ws) {
		t.Fatalf("GOMAXPROCS=%d: served level sizes %v, single-pass build %v", runtime.GOMAXPROCS(0), gs, ws)
	}
	if gd, wd := buildDigest(t, gotG, got), buildDigest(t, g, want); gd != wd {
		t.Fatalf("GOMAXPROCS=%d: served build digest %#x, single-pass build %#x", runtime.GOMAXPROCS(0), gd, wd)
	}
}

// TestSolveScaleInvariant carries TestWeightScaleInvariant (package hcd)
// through the submit and solve routes: a graph submitted with every weight
// times 2^e and right-hand sides sent times 2^f come back in the unscaled
// solve's outcome and iteration count with x exactly 2^(f−e)·x, or, where
// |f − e| reaches 900, as a breakdown. Weights, b and x cross the wire as
// decimal text at magnitudes down to 1e-181 and up to 1e272.
func TestSolveScaleInvariant(t *testing.T) {
	_, c := newTestServer(t, Config{})
	g, err := cli.BuildGraph("grid3d:10", 3)
	if err != nil {
		t.Fatal(err)
	}
	B := make([][]float64, 4)
	for j := range B {
		B[j] = cli.MeanFreeRHS(g.N(), int64(5+j))
	}
	type result struct {
		outcome    string
		iterations int
		x          []float64
	}
	solves := func(e, f int) map[string][]result {
		off, adj, w := g.CompactCSR()
		sw := make([]float64, len(w))
		for i, x := range w {
			sw[i] = math.Ldexp(x, e)
		}
		sg, err := graph.NewFromCSR(off, adj, sw)
		if err != nil {
			t.Fatal(err)
		}
		var edges bytes.Buffer
		if err := gio.WriteEdgeList(&edges, sg); err != nil {
			t.Fatal(err)
		}
		resp, err := c.hc.Post(c.base+"/v1/graphs?format=edgelist&wait=true", "text/plain", &edges)
		if err != nil {
			t.Fatal(err)
		}
		var sub submitResponse
		err = json.NewDecoder(resp.Body).Decode(&sub)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusCreated || sub.Status != StatusReady {
			t.Fatalf("e=%d: submit: code %d %+v %v", e, resp.StatusCode, sub, err)
		}
		sB := make([][]float64, len(B))
		for j, b := range B {
			sB[j] = make([]float64, len(b))
			for v, x := range b {
				sB[j][v] = math.Ldexp(x, f)
			}
		}
		out := map[string][]result{}
		for name, req := range map[string]map[string]any{
			"pcg k=1": {"b": sB[:1], "include_x": true},
			"pcg k=4": {"b": sB, "include_x": true},
		} {
			code, body, _ := c.do("POST", "/v1/graphs/"+sub.ID+"/solve", "", req)
			if code != http.StatusOK {
				t.Fatalf("e=%d f=%d %s: code %d body %v", e, f, name, code, body)
			}
			for _, r := range body["results"].([]any) {
				r := r.(map[string]any)
				res := result{outcome: r["outcome"].(string), iterations: int(r["iterations"].(float64))}
				xs, _ := r["x"].([]any)
				for _, x := range xs {
					res.x = append(res.x, x.(float64))
				}
				out[name] = append(out[name], res)
			}
		}
		return out
	}
	base := solves(0, 0)
	for name, results := range base {
		for j, res := range results {
			if res.outcome != "converged" || len(res.x) != g.N() {
				t.Fatalf("%s rhs %d unscaled: %s with %d x", name, j, res.outcome, len(res.x))
			}
		}
	}
	for _, e := range []int{-600, -2, 2, 38, 600} {
		for _, f := range []int{-300, 0, 300} {
			for name, results := range solves(e, f) {
				for j, res := range results {
					at, want := fmt.Sprintf("%s e=%d f=%d rhs %d", name, e, f, j), base[name][j]
					switch {
					case f-e <= -900 || f-e >= 900:
						if res.outcome != "breakdown" {
							t.Errorf("%s: %s, want breakdown", at, res.outcome)
						}
					case res.outcome != want.outcome || res.iterations != want.iterations || len(res.x) != len(want.x):
						t.Errorf("%s: %s after %d iterations (%d x), unscaled: %s after %d (%d x)",
							at, res.outcome, res.iterations, len(res.x), want.outcome, want.iterations, len(want.x))
					default:
						for v, x := range res.x {
							if x != math.Ldexp(want.x[v], f-e) {
								t.Errorf("%s: x[%d] = %v, want %v", at, v, x, math.Ldexp(want.x[v], f-e))
								break
							}
						}
					}
				}
			}
		}
	}
}
