package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"hcd/internal/solver"
)

// Tracing lives entirely in this package: spans are opened around the calls
// bench makes into each layer (and around the Apply calls the solver makes
// back into the decorated operator and preconditioner), kept in memory, and
// written out as Chrome trace JSON when the run ends. Nothing inside the
// library is instrumented.

// span is one timed interval at a layer boundary.
type span struct {
	name       string
	start, end time.Duration // offsets from the track's origin
	parent     int           // index of the enclosing span in the same track, -1 for a root
	req        int           // operation/request id; a root and its descendants share it
}

func (s span) dur() time.Duration { return s.end - s.start }

// track is the span log of one goroutine. Spans on a track nest strictly, so
// a stack of open spans is all the bookkeeping needed. A nil *track records
// nothing, which is how the untraced pass runs the same code.
type track struct {
	id     int
	origin time.Time
	spans  []span
	open   []int
}

func newTrack(id int, origin time.Time) *track {
	return &track{id: id, origin: origin}
}

// begin opens a root span for operation req.
func (t *track) begin(name string, req int) {
	if t == nil {
		return
	}
	t.push(name, req)
}

// child opens a span under the innermost open span, inheriting its request
// id (or -1 when opened outside any operation).
func (t *track) child(name string) {
	if t == nil {
		return
	}
	req := -1
	if n := len(t.open); n > 0 {
		req = t.spans[t.open[n-1]].req
	}
	t.push(name, req)
}

func (t *track) push(name string, req int) {
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{name: name, start: time.Since(t.origin), parent: parent, req: req})
	t.open = append(t.open, len(t.spans)-1)
}

// end closes the innermost open span.
func (t *track) end() {
	if t == nil {
		return
	}
	n := len(t.open)
	t.spans[t.open[n-1]].end = time.Since(t.origin)
	t.open = t.open[:n-1]
}

// selfTimes returns, for every span of one track, its duration minus the
// part of its interval that its direct children cover. Overlapping or
// out-of-range children are merged and clipped first, so self time is never
// negative.
func selfTimes(spans []span) []time.Duration {
	kids := make(map[int][]int)
	for i, s := range spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] = s.dur() - covered(s, spans, kids[i])
	}
	return self
}

// covered is the length of the union of the children's intervals inside p.
func covered(p span, spans []span, kids []int) time.Duration {
	sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].start < spans[kids[b]].start })
	var total time.Duration
	cursor := p.start
	for _, k := range kids {
		lo, hi := spans[k].start, spans[k].end
		if lo < cursor {
			lo = cursor
		}
		if hi > p.end {
			hi = p.end
		}
		if hi > lo {
			total += hi - lo
			cursor = hi
		}
	}
	return total
}

// layerStat sums one span name over a set of tracks.
type layerStat struct {
	calls int
	total time.Duration // span durations
	self  time.Duration // durations minus children
}

func (l layerStat) msPerCall() float64 {
	if l.calls == 0 {
		return 0
	}
	return ms(l.total) / float64(l.calls)
}

// aggregate sums calls, total and self time by span name.
func aggregate(tracks ...*track) map[string]layerStat {
	out := make(map[string]layerStat)
	for _, t := range tracks {
		if t == nil {
			continue
		}
		self := selfTimes(t.spans)
		for i, s := range t.spans {
			st := out[s.name]
			st.calls++
			st.total += s.dur()
			st.self += self[i]
			out[s.name] = st
		}
	}
	return out
}

// share is part ÷ whole in percent; 0 when the whole is empty.
func share(part, whole time.Duration) float64 {
	if whole <= 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// writeChromeTrace dumps the tracks in the Chrome trace-event format
// (chrome://tracing, Perfetto): one complete ("X") event per span, one tid
// per track, the request id and parent span index in args.
func writeChromeTrace(path string, tracks ...*track) (err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	fmt.Fprint(w, `{"displayTimeUnit":"ms","traceEvents":[`)
	first := true
	for _, t := range tracks {
		if t == nil {
			continue
		}
		for _, s := range t.spans {
			ev, merr := json.Marshal(map[string]any{
				"name": s.name, "ph": "X", "pid": 1, "tid": t.id,
				"ts":   float64(s.start) / float64(time.Microsecond),
				"dur":  float64(s.dur()) / float64(time.Microsecond),
				"args": map[string]int{"req": s.req, "parent": s.parent},
			})
			if merr != nil {
				return merr
			}
			if !first {
				w.WriteByte(',')
			}
			first = false
			w.WriteByte('\n')
			w.Write(ev)
		}
	}
	fmt.Fprint(w, "\n]}\n")
	return w.Flush()
}

// Span names. The first four are opened by the timing decorator below; the
// rest wrap calls bench itself makes.
const (
	spanLapMul      = "graph.lapmul"
	spanLapMulBlock = "graph.lapmul_block"
	spanApply       = "hierarchy.apply"
	spanApplyBlock  = "hierarchy.apply_block"
	spanSolve       = "solver.pcg"      // one Engine.Solve
	spanDo          = "hcd.do"          // one multi-RHS hcd.Do
	spanBuild       = "hierarchy.build" // one hierarchy.NewCtx
	spanRequest     = "serve.request"   // one HTTP solve request, handler entry to return
)

// applier is what the Laplacian operator and the hierarchy have in common:
// a scalar apply and a packed-block apply.
type applier interface {
	Dim() int
	Apply(dst, x []float64)
	ApplyBlock(dst, x []float64, k int)
}

// timed decorates an operator or preconditioner so that every call the
// solver makes into it is a span on tr. It implements solver.Operator,
// solver.Preconditioner and solver.BlockApplier.
type timed struct {
	inner       applier
	tr          *track
	name, block string
}

var (
	_ solver.Operator     = timed{}
	_ solver.BlockApplier = timed{}
)

func (t timed) Dim() int { return t.inner.Dim() }

func (t timed) Apply(dst, x []float64) {
	t.tr.child(t.name)
	t.inner.Apply(dst, x)
	t.tr.end()
}

func (t timed) ApplyBlock(dst, x []float64, k int) {
	t.tr.child(t.block)
	t.inner.ApplyBlock(dst, x, k)
	t.tr.end()
}
