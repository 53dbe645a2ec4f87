package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// handSeeds are request bodies the hand path decodes; fallbackSeeds take
// each way out of it to encoding/json.
var (
	handSeeds = []string{
		`{"b":[[0.5,-1.25,3e-7,1.5e300,-2]],"include_x":true}`,
		`{"rhs":4,"seed":7}`,
		`{"rhs":1,"seed":-3}`,
		` { "b" : [ [ 1 , 2 ] , [ ] ] , "wait" : false } `,
		`{"b":[],"method":"pcg","tol":1e-8,"max_iter":50,"include_x":false,"wait":true,"rhs":0,"seed":0}`,
		`{}`,
		`{"method":"pcg"}`,
		`{"b":[[-0]],"tol":-0}`,
		`{"b":[[1e-400]]}`,
		`{"seed":-9223372036854775808}`,
	}
	fallbackSeeds = []string{
		`{"B":[[1]]}`,
		`{"ſeed":1}`,
		`{"rhs":1,"rhs":2}`,
		`{"b":[[1]],"b":[[2,3]]}`,
		`null`,
		`{"b":null}`,
		`{"b":[null]}`,
		`{"method":"é"}`,
		`{"method":"p\u0063g"}`,
		`{"b":[[1e400]]}`,
		`{"tol":1e400}`,
		`{"rhs":1.0}`,
		`{"rhs":1e2}`,
		`{"rhs":99999999999999999999}`,
		`{"rhs":1}garbage`,
		`{"rhs":1} {"rhs":2}`,
		`{"b":[[1,]]}`,
		`{"b":[[,,,,]]}`,
		`{"b":[[01]]}`,
		`{"b":[[1.]]}`,
		`{"b":[[.5]]}`,
		`{"b":[[+1]]}`,
		`{"b":[[1e]]}`,
		`{"b":[[0x10]]}`,
		`{"b":[["1"]]}`,
		`{"include_x":1}`,
		`{"wait":tru}`,
		`{"rhs":"4"}`,
		`{"unknown":1}`,
		`{"rhs":4`,
		``,
		`[1]`,
	}
	wireSeeds = append(append([]string(nil), handSeeds...), fallbackSeeds...)
)

func decodeStd(data []byte) (solveRequest, error) {
	var req solveRequest
	err := json.NewDecoder(bytes.NewReader(data)).Decode(&req)
	return req, err
}

// checkDecode holds decodeSolveRequest to json.Decoder: the same error, and
// the same value down to every float's bits.
func checkDecode(t *testing.T, data []byte) {
	t.Helper()
	got, gerr := decodeSolveRequest(data)
	want, werr := decodeStd(data)
	if (gerr == nil) != (werr == nil) || gerr != nil && gerr.Error() != werr.Error() {
		t.Fatalf("%q: error %v, encoding/json %v", data, gerr, werr)
	}
	if !reflect.DeepEqual(got, want) || math.Float64bits(got.Tol) != math.Float64bits(want.Tol) {
		t.Fatalf("%q: decoded %+v, encoding/json %+v", data, got, want)
	}
	for j := range got.B {
		for i := range got.B[j] {
			if math.Float64bits(got.B[j][i]) != math.Float64bits(want.B[j][i]) {
				t.Fatalf("%q: b[%d][%d] = %v, encoding/json %v", data, j, i, got.B[j][i], want.B[j][i])
			}
		}
	}
}

// byteSource turns fuzz input into response fields; an exhausted source
// reads as zeros.
type byteSource []byte

func (s *byteSource) byte() byte {
	if len(*s) == 0 {
		return 0
	}
	c := (*s)[0]
	*s = (*s)[1:]
	return c
}

func (s *byteSource) uint64() uint64 {
	var u uint64
	for range 8 {
		u = u<<8 | uint64(s.byte())
	}
	return u
}

func (s *byteSource) float() float64 {
	switch s.byte() % 4 {
	case 0:
		return math.Float64frombits(s.uint64())
	case 1:
		return float64(int8(s.byte())) / 8
	case 2:
		return math.Ldexp(float64(int16(s.uint64())), int(int8(s.byte())))
	}
	return math.Copysign(0, float64(int8(s.byte())))
}

func (s *byteSource) string() string {
	n := min(int(s.byte()%12), len(*s))
	str := string((*s)[:n])
	*s = (*s)[n:]
	return str
}

func fuzzResponse(data []byte) (solveResponse, *string) {
	s := byteSource(data)
	out := solveResponse{GraphID: s.string()}
	if n := int(s.byte() % 5); n > 0 {
		out.Results = make([]solveResult, n-1)
	}
	for i := range out.Results {
		r := &out.Results[i]
		r.Outcome = s.string()
		r.Converged = s.byte()&1 == 1
		r.Iterations = int(int32(s.uint64()))
		r.FinalResidual = s.float()
		if n := int(s.byte() % 6); n > 0 {
			r.X = make([]float64, n-1)
		}
		for j := range r.X {
			r.X[j] = s.float()
		}
		r.Rung = s.string()
		r.Recovered = s.byte()&1 == 1
	}
	flags := s.byte()
	out.CacheHit, out.Degraded = flags&1 != 0, flags&2 != 0
	out.QueueWaitMS = int64(s.uint64())
	if flags&8 != 0 {
		msg := s.string()
		return out, &msg
	}
	return out, nil
}

// stdSolveJSON is what writeJSON answers for out (or, with errMsg, for the
// partial-failure struct the solve route used to encode).
func stdSolveJSON(out solveResponse, errMsg *string) (int, []byte) {
	rec := httptest.NewRecorder()
	if errMsg == nil {
		writeJSON(rec, http.StatusOK, out)
	} else {
		writeJSON(rec, http.StatusOK, struct {
			solveResponse
			Error string `json:"error"`
		}{out, *errMsg})
	}
	return rec.Code, rec.Body.Bytes()
}

// floats calls f on every float of out, by address.
func floats(out *solveResponse, f func(*float64)) {
	for i := range out.Results {
		f(&out.Results[i].FinalResidual)
		for j := range out.Results[i].X {
			f(&out.Results[i].X[j])
		}
	}
}

// checkEncode holds appendSolveResponse to writeJSON: byte-identical on a
// finite response; on any other, identical once every non-finite float is
// swapped for a finite sentinel and the sentinel's text for null.
func checkEncode(t *testing.T, out solveResponse, errMsg *string) {
	t.Helper()
	got := appendSolveResponse(nil, &out, errMsg)
	nonFinite, clash := false, false
	sentinel := math.Float64frombits(0x7fe0123456789abc)
	floats(&out, func(f *float64) {
		nonFinite = nonFinite || math.IsNaN(*f) || math.IsInf(*f, 0)
		clash = clash || math.Abs(*f) == sentinel
	})
	if !nonFinite {
		code, want := stdSolveJSON(out, errMsg)
		if code != http.StatusOK || !bytes.Equal(got, want) {
			t.Fatalf("encoded\n%s\nencoding/json (%d)\n%s", got, code, want)
		}
		return
	}
	if !json.Valid(got) {
		t.Fatalf("non-finite response encoded as invalid JSON: %s", got)
	}
	text := string(appendFloat(nil, sentinel))
	if clash || strings.Contains(string(got), text) {
		return
	}
	sane := out
	sane.Results = slices.Clone(out.Results)
	for i := range sane.Results {
		sane.Results[i].X = slices.Clone(out.Results[i].X)
	}
	floats(&sane, func(f *float64) {
		if math.IsNaN(*f) || math.IsInf(*f, 0) {
			*f = sentinel
		}
	})
	_, want := stdSolveJSON(sane, errMsg)
	if want = bytes.ReplaceAll(want, []byte(text), []byte("null")); !bytes.Equal(got, want) {
		t.Fatalf("encoded\n%s\nwant\n%s", got, want)
	}
}

// FuzzSolveWire is a differential fuzzer of the solve route's wire path
// against encoding/json. Each input is decoded as a request body
// (decodeSolveRequest against json.Decoder: value and error) and read as
// the fields of a response (appendSolveResponse against writeJSON's bytes).
func FuzzSolveWire(f *testing.F) {
	for _, s := range wireSeeds {
		f.Add([]byte(s))
	}
	f.Add([]byte("\x0ag-1<a&b> \xff\x03\x09converged\x01\x00\x00\x00\x07\x00\x00\x00\x2a\x00\x06"))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecode(t, data)
		out, errMsg := fuzzResponse(data)
		checkEncode(t, out, errMsg)
	})
}

// TestSolveWireSeeds runs the fuzzer's checks on its seeds and on a random
// response corpus, so plain go test covers both directions.
func TestSolveWireSeeds(t *testing.T) {
	for _, s := range wireSeeds {
		checkDecode(t, []byte(s))
		out, errMsg := fuzzResponse([]byte(s))
		checkEncode(t, out, errMsg)
	}
	rng := rand.New(rand.NewSource(1))
	buf := make([]byte, 256)
	for range 300 {
		rng.Read(buf)
		out, errMsg := fuzzResponse(buf)
		checkEncode(t, out, errMsg)
	}
}

// TestSolveWireHandPath pins which bodies skip encoding/json: a decoder
// that quietly fell back on everything would pass the differential check.
func TestSolveWireHandPath(t *testing.T) {
	for i, s := range wireSeeds {
		var req solveRequest
		p := wireParser{b: []byte(s)}
		if got, want := p.request(&req), i < len(handSeeds); got != want {
			t.Errorf("%q: hand path %v, want %v", s, got, want)
		}
	}
}

// TestReadSolveRequestLimit: reading the whole body first keeps the stream
// decoder's answers at the size limit — a value complete inside the limit
// decodes, one cut by it fails with the limit's error.
func TestReadSolveRequestLimit(t *testing.T) {
	for _, tc := range []struct {
		body, err string
		rhs       int
	}{
		{body: `{"rhs":3}` + strings.Repeat(" ", 100), rhs: 3},
		{body: `{"rhs":3` + strings.Repeat(" ", 100) + `}`, err: "http: request body too large"},
	} {
		r := httptest.NewRequest(http.MethodPost, "/", strings.NewReader(tc.body))
		req, err := readSolveRequest(httptest.NewRecorder(), r, 32)
		if tc.err == "" && (err != nil || req.RHS != tc.rhs) {
			t.Errorf("%q: rhs %d, error %v; want rhs %d", tc.body, req.RHS, err, tc.rhs)
		}
		if tc.err != "" && (err == nil || err.Error() != tc.err) {
			t.Errorf("%q: error %v, want %q", tc.body, err, tc.err)
		}
	}
}

// TestWriteJSONRefusesNonFinite: a value encoding/json cannot encode
// answers 500 with a decodable apiError, never its status and no body.
func TestWriteJSONRefusesNonFinite(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, solveResult{Outcome: "breakdown", FinalResidual: math.NaN()})
	var e apiError
	if rec.Code != http.StatusInternalServerError || json.Unmarshal(rec.Body.Bytes(), &e) != nil || !strings.Contains(e.Error, "unsupported value") {
		t.Fatalf("code %d body %q", rec.Code, rec.Body.String())
	}
}

// TestSolveOverflowingPayload: entries of 1e200 overflow ‖b‖², so the solve
// breaks down at once with a non-finite final residual; the route still
// answers 200 with a decodable body that names the outcome.
func TestSolveOverflowingPayload(t *testing.T) {
	_, c := newTestServer(t, Config{})
	code, body, _ := c.do("POST", "/v1/graphs?spec=grid2d:8&wait=true", "", nil)
	if code != http.StatusCreated {
		t.Fatalf("submit: code %d body %v", code, body)
	}
	b := make([]float64, int(body["n"].(float64)))
	for i := range b {
		b[i] = 1e200 * float64(1-2*(i%2))
	}
	code, body, _ = c.do("POST", "/v1/graphs/"+body["id"].(string)+"/solve", "",
		map[string]any{"b": [][]float64{b}, "include_x": true})
	if code != http.StatusOK {
		t.Fatalf("solve: code %d body %v", code, body)
	}
	res := body["results"].([]any)[0].(map[string]any)
	if res["outcome"] != "breakdown" || res["converged"] != false || res["final_residual"] != nil {
		t.Fatalf("result %v", res)
	}
}

// wireBench is the benchmark's payload request on a 4 096-vertex graph, and
// a response carrying a solution of that length.
func wireBench() ([]byte, solveResponse) {
	rng := rand.New(rand.NewSource(1))
	b := make([]float64, 4096)
	x := make([]float64, len(b))
	for i := range b {
		b[i], x[i] = rng.NormFloat64(), rng.NormFloat64()*37
	}
	body, _ := json.Marshal(map[string]any{"b": [][]float64{b}, "include_x": true})
	return body, solveResponse{
		GraphID:     "g-3",
		Results:     []solveResult{{Outcome: "converged", Converged: true, Iterations: 17, FinalResidual: 3.2e-9, X: x}},
		CacheHit:    true,
		QueueWaitMS: 0,
	}
}

// discardWriter is a ResponseWriter that keeps only its headers.
type discardWriter http.Header

func (d discardWriter) Header() http.Header         { return http.Header(d) }
func (d discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (d discardWriter) WriteHeader(int)             {}

// BenchmarkSolveWire times the solve route's two wire directions on a
// 4 096-float payload, each against the encoding/json call it replaced:
// decode from the request body through the size limit, encode to the
// ResponseWriter.
func BenchmarkSolveWire(b *testing.B) {
	body, out := wireBench()
	var rd bytes.Reader
	r := &http.Request{Body: io.NopCloser(&rd), ContentLength: int64(len(body))}
	w := discardWriter{}
	b.Run("decode/wire", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for b.Loop() {
			rd.Reset(body)
			if _, err := readSolveRequest(w, r, 256<<20); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode/encoding_json", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for b.Loop() {
			rd.Reset(body)
			var req solveRequest
			if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 256<<20)).Decode(&req); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encode/wire", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			writeSolve(w, http.StatusOK, &out, nil)
		}
	})
	b.Run("encode/encoding_json", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			if err := json.NewEncoder(w).Encode(out); err != nil {
				b.Fatal(err)
			}
		}
	})
}
