package serve

// The solve route's wire path. A solve request's cost on the wire is its
// right-hand side: a 4 096-vertex payload is 4 096 floats in, 4 096 floats
// out, and encoding/json's reflection spends longer on them than the solve
// does. So the route decodes and encodes its two types by hand, for exactly
// the values encoding/json would produce:
//
//   - decodeSolveRequest parses the common request shape — the nine keys
//     spelled exactly, each at most once; strings without escapes; integer
//     literals in the int fields; arrays of number literals in b, each
//     parsed with strconv.ParseFloat(s, 64) as encoding/json does. Any
//     other body (unknown or case-folded keys, null, escapes, out-of-range
//     numbers, malformed JSON, trailing data) is handed to json.Decoder over
//     the same bytes, so its value and its error are encoding/json's.
//   - appendSolveResponse writes solveResponse in encoding/json's field
//     order with its omitempty rules, float format and HTML-safe string
//     escaping, byte for byte what json.Encoder writes, trailing newline
//     included — except that a non-finite float, which json.Encoder refuses,
//     is written as null, so a breakdown still answers with its outcome.
//
// FuzzSolveWire holds both directions to encoding/json.

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"unicode/utf8"
)

// maxPrealloc caps the body buffer sized from a declared Content-Length
// before any byte arrives; a longer body grows it as it is read.
const maxPrealloc = 16 << 20

// wireBufs recycles the body and response buffers of solve requests (a
// 4 096-float payload is ≈ 80 kB each way). Nothing decoded or written keeps
// a reference into one: strings are copied out, and io.Writer may not retain
// what it is given. A buffer past maxPooled goes to the collector instead
// of staying pinned.
var wireBufs sync.Pool // *[]byte

const maxPooled = 1 << 20

// getBuf returns an empty pooled buffer with capacity at least size.
func getBuf(size int) *[]byte {
	bp, _ := wireBufs.Get().(*[]byte)
	if bp == nil {
		bp = new([]byte)
	}
	if cap(*bp) < size {
		*bp = make([]byte, 0, size)
	}
	*bp = (*bp)[:0]
	return bp
}

// putBuf returns b, which grew from *bp, to the pool.
func putBuf(bp *[]byte, b []byte) {
	if cap(b) <= maxPooled {
		*bp = b
		wireBufs.Put(bp)
	}
}

// readSolveRequest reads the body through the server's size limit and
// decodes it. A read error (the limit, a broken connection) is handed to
// json.Decoder after the bytes read before it, so the request fails — or,
// when the value was complete before the error, succeeds — as it would
// decoding from the stream.
func readSolveRequest(w http.ResponseWriter, r *http.Request, limit int64) (solveRequest, error) {
	body := http.MaxBytesReader(w, r.Body, limit)
	size := int64(512)
	if r.ContentLength > 0 {
		size = min(r.ContentLength, limit, maxPrealloc) + 1
	}
	bp := getBuf(int(size))
	buf := *bp
	defer func() { putBuf(bp, buf) }()
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return decodeSolveRequest(buf)
		}
		if err != nil {
			var req solveRequest
			err = json.NewDecoder(io.MultiReader(bytes.NewReader(buf), errReader{err})).Decode(&req)
			return req, err
		}
	}
}

type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// decodeSolveRequest decodes one solve request body: by hand when it has the
// common shape, by json.Decoder otherwise.
func decodeSolveRequest(data []byte) (solveRequest, error) {
	var req solveRequest
	p := wireParser{b: data}
	if p.request(&req) {
		return req, nil
	}
	req = solveRequest{}
	err := json.NewDecoder(bytes.NewReader(data)).Decode(&req)
	return req, err
}

// The solveRequest keys, one bit each in wireParser.request's seen mask.
const (
	keyB = iota
	keyRHS
	keySeed
	keyMethod
	keyTol
	keyMaxIter
	keyIncludeX
	keyWait
)

func requestKey(k []byte) int {
	switch string(k) {
	case "b":
		return keyB
	case "rhs":
		return keyRHS
	case "seed":
		return keySeed
	case "method":
		return keyMethod
	case "tol":
		return keyTol
	case "max_iter":
		return keyMaxIter
	case "include_x":
		return keyIncludeX
	case "wait":
		return keyWait
	}
	return -1
}

// wireParser is a strict parser for the subset of JSON the hand path
// accepts. Every method reports false on anything outside that subset —
// never an error: the caller then decodes the body with encoding/json.
type wireParser struct {
	b []byte
	i int
}

func (p *wireParser) ws() {
	for p.i < len(p.b) {
		switch p.b[p.i] {
		case ' ', '\t', '\n', '\r':
			p.i++
		default:
			return
		}
	}
}

// eat consumes c, and the whitespace after it, when c is next.
func (p *wireParser) eat(c byte) bool {
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		p.ws()
		return true
	}
	return false
}

func (p *wireParser) request(req *solveRequest) bool {
	p.ws()
	if !p.eat('{') {
		return false
	}
	var seen uint16
	for more := !p.eat('}'); more; {
		key, ok := p.plainString()
		if !ok || !p.eat(':') {
			return false
		}
		k := requestKey(key)
		if k < 0 || seen&(1<<k) != 0 {
			return false
		}
		seen |= 1 << k
		switch k {
		case keyB:
			req.B, ok = p.columns()
		case keyRHS:
			req.RHS, ok = p.int()
		case keySeed:
			var v int64
			v, ok = p.int64(64)
			req.Seed = v
		case keyMethod:
			var s []byte
			s, ok = p.plainString()
			req.Method = string(s)
		case keyTol:
			req.Tol, ok = p.float()
		case keyMaxIter:
			req.MaxIter, ok = p.int()
		case keyIncludeX:
			req.IncludeX, ok = p.bool()
		case keyWait:
			req.Wait, ok = p.bool()
		}
		if !ok {
			return false
		}
		switch {
		case p.eat(','):
		case p.eat('}'):
			more = false
		default:
			return false
		}
	}
	return p.i == len(p.b)
}

// plainString returns the contents of a string of printable ASCII with no
// escape, which encoding/json decodes to exactly those bytes.
func (p *wireParser) plainString() ([]byte, bool) {
	if p.i >= len(p.b) || p.b[p.i] != '"' {
		return nil, false
	}
	for j := p.i + 1; j < len(p.b); j++ {
		switch c := p.b[j]; {
		case c == '"':
			s := p.b[p.i+1 : j]
			p.i = j + 1
			p.ws()
			return s, true
		case c < 0x20 || c >= utf8.RuneSelf || c == '\\':
			return nil, false
		}
	}
	return nil, false
}

func (p *wireParser) bool() (bool, bool) {
	switch {
	case bytes.HasPrefix(p.b[p.i:], []byte("true")):
		p.i += 4
		p.ws()
		return true, true
	case bytes.HasPrefix(p.b[p.i:], []byte("false")):
		p.i += 5
		p.ws()
		return false, true
	}
	return false, false
}

// number consumes a JSON number literal and the whitespace after it, and
// returns the literal and whether it is an integer one (no fraction, no
// exponent). The byte after it is the caller's to check.
func (p *wireParser) number() (lit []byte, integral, ok bool) {
	b, i := p.b, p.i
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i)
	default:
		return nil, false, false
	}
	integral = true
	if i < len(b) && b[i] == '.' {
		j := digits(b, i+1)
		if j == i+1 {
			return nil, false, false
		}
		i, integral = j, false
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digits(b, i)
		if j == i {
			return nil, false, false
		}
		i, integral = j, false
	}
	lit = b[p.i:i]
	p.i = i
	p.ws()
	return lit, integral, true
}

func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// int64 parses an integer literal into a bits-wide signed field, as
// encoding/json does (ParseInt, then the field's overflow check).
func (p *wireParser) int64(bits int) (int64, bool) {
	lit, integral, ok := p.number()
	if !ok || !integral {
		return 0, false
	}
	v, err := strconv.ParseInt(string(lit), 10, bits)
	return v, err == nil
}

func (p *wireParser) int() (int, bool) {
	v, ok := p.int64(strconv.IntSize)
	return int(v), ok
}

func (p *wireParser) float() (float64, bool) {
	lit, _, ok := p.number()
	if !ok {
		return 0, false
	}
	v, err := strconv.ParseFloat(string(lit), 64)
	return v, err == nil
}

// columns parses b: an array of arrays of numbers. Empty arrays decode to
// empty, non-nil slices, as encoding/json decodes them.
func (p *wireParser) columns() ([][]float64, bool) {
	if !p.eat('[') {
		return nil, false
	}
	cols := [][]float64{}
	if p.eat(']') {
		return cols, true
	}
	for {
		col, ok := p.column()
		if !ok {
			return nil, false
		}
		cols = append(cols, col)
		switch {
		case p.eat(','):
		case p.eat(']'):
			return cols, true
		default:
			return nil, false
		}
	}
}

// column parses one array of numbers into a slice allocated at its final
// length: the commas before the closing bracket count its values. n values
// take at least 2n−1 bytes, so more commas than that mean a malformed array,
// and the allocation never outgrows what a well-formed body of that length
// would need.
func (p *wireParser) column() ([]float64, bool) {
	if !p.eat('[') {
		return nil, false
	}
	if p.eat(']') {
		return []float64{}, true
	}
	end := bytes.IndexByte(p.b[p.i:], ']')
	if end < 0 {
		return nil, false
	}
	n := bytes.Count(p.b[p.i:p.i+end], []byte{','}) + 1
	if 2*n-1 > end {
		return nil, false
	}
	col := make([]float64, n)
	for k := range col {
		lit, _, ok := p.number()
		if !ok {
			return nil, false
		}
		v, err := strconv.ParseFloat(string(lit), 64)
		if err != nil {
			return nil, false
		}
		col[k] = v
		if k < n-1 && !p.eat(',') {
			return nil, false
		}
	}
	return col, p.eat(']')
}

// writeSolve answers a solve request. errMsg, when not nil, adds the
// partial-failure "error" key after solveResponse's own.
func writeSolve(w http.ResponseWriter, code int, out *solveResponse, errMsg *string) {
	size := 256
	for i := range out.Results {
		size += 128 + 24*len(out.Results[i].X)
	}
	bp := getBuf(size)
	buf := appendSolveResponse(*bp, out, errMsg)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(buf)
	putBuf(bp, buf)
}

// appendSolveResponse appends out as json.Encoder encodes it (or, with
// errMsg, the struct embedding solveResponse beside an "error" string),
// newline included; a non-finite float is written as null.
func appendSolveResponse(dst []byte, out *solveResponse, errMsg *string) []byte {
	dst = append(dst, `{"graph_id":`...)
	dst = appendString(dst, out.GraphID)
	dst = append(dst, `,"results":`...)
	if out.Results == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i := range out.Results {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendSolveResult(dst, &out.Results[i])
		}
		dst = append(dst, ']')
	}
	dst = strconv.AppendBool(append(dst, `,"cache_hit":`...), out.CacheHit)
	if out.Degraded {
		dst = append(dst, `,"degraded":true`...)
	}
	dst = strconv.AppendInt(append(dst, `,"queue_wait_ms":`...), out.QueueWaitMS, 10)
	if errMsg != nil {
		dst = appendString(append(dst, `,"error":`...), *errMsg)
	}
	return append(dst, '}', '\n')
}

func appendSolveResult(dst []byte, r *solveResult) []byte {
	dst = appendString(append(dst, `{"outcome":`...), r.Outcome)
	dst = strconv.AppendBool(append(dst, `,"converged":`...), r.Converged)
	dst = strconv.AppendInt(append(dst, `,"iterations":`...), int64(r.Iterations), 10)
	dst = appendFloat(append(dst, `,"final_residual":`...), r.FinalResidual)
	if len(r.X) > 0 {
		dst = append(dst, `,"x":[`...)
		for i, v := range r.X {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendFloat(dst, v)
		}
		dst = append(dst, ']')
	}
	if r.Rung != "" {
		dst = appendString(append(dst, `,"rung":`...), r.Rung)
	}
	if r.Recovered {
		dst = append(dst, `,"recovered":true`...)
	}
	return append(dst, '}')
}

// appendFloat writes f as encoding/json does: the shortest round-trip
// digits, in exponent form below 1e-6 and from 1e21, with the exponent
// unpadded. NaN and ±Inf, which encoding/json refuses, are null.
func appendFloat(dst []byte, f float64) []byte {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return append(dst, "null"...)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// e-07 → e-7
		if n := len(dst); dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

// appendString writes s as a JSON string with encoding/json's HTML-safe
// escaping: ", \ and control bytes escaped (\b \f \n \r \t by name), <, >
// and & as \u00XX, invalid UTF-8 as \ufffd, U+2028 and U+2029 as \u202X.
func appendString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '"', '\\':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(append(dst, s[start:i]...), `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(append(dst, s[start:i]...), '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
