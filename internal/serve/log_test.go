package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"hcd/internal/obs"
)

// syncBuffer serializes writes so the slog handler can be read back safely
// while the httptest server's handler goroutines are still winding down.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) lines() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return strings.Split(strings.TrimSpace(b.buf.String()), "\n")
}

// decodeLogLines parses every access-log line as JSON — one object per line,
// no partial writes — and returns the decoded records.
func decodeLogLines(t *testing.T, buf *syncBuffer) []map[string]any {
	t.Helper()
	var recs []map[string]any
	for _, ln := range buf.lines() {
		if ln == "" {
			continue
		}
		m := map[string]any{}
		if err := json.Unmarshal([]byte(ln), &m); err != nil {
			t.Fatalf("access-log line is not valid JSON: %q: %v", ln, err)
		}
		recs = append(recs, m)
	}
	return recs
}

// TestAccessLogJSON is the end-to-end logging contract: with a JSON logger
// and a tracer installed, every request emits exactly one valid JSON record,
// and the solve record carries the handle, aggregate outcome, and trace/span
// IDs that resolve to the request's serve/solve span in the tracer.
func TestAccessLogJSON(t *testing.T) {
	tr := obs.NewTracer()
	buf := &syncBuffer{}
	logger := slog.New(slog.NewJSONHandler(buf, nil))
	_, c := newTestServer(t, Config{Tracer: tr, Logger: logger})

	code, body, _ := c.do("POST", "/v1/graphs?spec=grid2d:8&wait=true", "acme", nil)
	if code != http.StatusCreated {
		t.Fatalf("submit: code %d body %v", code, body)
	}
	id := body["id"].(string)
	if code, body, _ = c.do("POST", "/v1/graphs/"+id+"/solve", "acme", map[string]any{"rhs": 2}); code != http.StatusOK {
		t.Fatalf("solve: code %d body %v", code, body)
	}

	recs := decodeLogLines(t, buf)
	if len(recs) != 2 {
		t.Fatalf("want 2 access-log records, got %d: %v", len(recs), recs)
	}
	var solveRec map[string]any
	for _, m := range recs {
		if m["route"] == "solve" {
			solveRec = m
		}
		if m["tenant"] != "acme" {
			t.Errorf("record missing tenant: %v", m)
		}
		if m["trace_id"] != float64(tr.ID()) {
			t.Errorf("record trace_id %v, want %d", m["trace_id"], tr.ID())
		}
	}
	if solveRec == nil {
		t.Fatalf("no solve record in %v", recs)
	}
	if solveRec["code"] != float64(http.StatusOK) || solveRec["handle"] != id {
		t.Errorf("solve record code/handle wrong: %v", solveRec)
	}
	if solveRec["outcome"] != "converged" {
		t.Errorf("solve record outcome %v, want converged", solveRec["outcome"])
	}
	if solveRec["rhs"] != float64(2) {
		t.Errorf("solve record rhs %v, want 2", solveRec["rhs"])
	}
	if it, ok := solveRec["iterations"].(float64); !ok || it <= 0 {
		t.Errorf("solve record iterations %v, want > 0", solveRec["iterations"])
	}

	// The span_id joins back to the serve/solve span recorded by the tracer.
	spanID, ok := solveRec["span_id"].(float64)
	if !ok || spanID == 0 {
		t.Fatalf("solve record span_id %v, want non-zero", solveRec["span_id"])
	}
	found := false
	for _, sp := range tr.Spans() {
		if sp.ID == uint64(spanID) {
			found = true
			if sp.Name != "serve/solve" {
				t.Errorf("span_id %d resolves to span %q, want serve/solve", sp.ID, sp.Name)
			}
		}
	}
	if !found {
		t.Errorf("span_id %d not found among %d recorded spans", uint64(spanID), len(tr.Spans()))
	}
}

// TestThrottledAccessLog: an admission refusal logs a warn-level 429 record
// with outcome "throttled", and the HTTP response still carries Retry-After.
func TestThrottledAccessLog(t *testing.T) {
	buf := &syncBuffer{}
	logger := slog.New(slog.NewJSONHandler(buf, nil))
	_, c := newTestServer(t, Config{
		Admission: AdmissionConfig{Rate: 1e-9, Burst: 2, MaxQueue: 0},
		Logger:    logger,
	})
	code, body, _ := c.do("POST", "/v1/graphs?spec=grid2d:8&wait=true", "", nil)
	if code != http.StatusCreated {
		t.Fatalf("submit: code %d body %v", code, body)
	}
	id := body["id"].(string)
	solve := map[string]any{"rhs": 1}
	for i := 0; i < 2; i++ {
		if code, body, _ = c.do("POST", "/v1/graphs/"+id+"/solve", "noisy", solve); code != http.StatusOK {
			t.Fatalf("solve %d: code %d body %v", i, code, body)
		}
	}
	code, _, hdr := c.do("POST", "/v1/graphs/"+id+"/solve", "noisy", solve)
	if code != http.StatusTooManyRequests {
		t.Fatalf("saturated tenant: code %d, want 429", code)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After header")
	}

	throttled := false
	for _, m := range decodeLogLines(t, buf) {
		if m["code"] == float64(http.StatusTooManyRequests) {
			throttled = true
			if m["outcome"] != "throttled" {
				t.Errorf("429 record outcome %v, want throttled", m["outcome"])
			}
			if m["level"] != "WARN" {
				t.Errorf("429 record level %v, want WARN", m["level"])
			}
		}
	}
	if !throttled {
		t.Error("no 429 access-log record emitted")
	}
}

// TestDisabledLoggingZeroAlloc pins the disabled path: with no logger
// configured, the annotation helpers and logRequest allocate nothing, so a
// server that doesn't ask for access logs pays nothing per request.
func TestDisabledLoggingZeroAlloc(t *testing.T) {
	srv := New(Config{})
	ctx := context.Background()
	req := httptest.NewRequest("POST", "/v1/graphs/g-1/solve", nil)
	allocs := testing.AllocsPerRun(100, func() {
		lf := logFieldsFrom(ctx)
		lf.setHandle("g-1")
		lf.setSolve("converged", 1, 12, false, 0)
		lf.setOutcome("throttled")
		srv.logRequest(ctx, "solve", req, http.StatusOK, time.Millisecond, lf)
	})
	if allocs != 0 {
		t.Errorf("disabled logging path allocates %v per request, want 0", allocs)
	}
}
