package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry is a process- or run-scoped set of named metrics: monotonic
// counters, last-value gauges, and fixed-bucket histograms. All updates are
// single atomic operations, so publishing from parallel workers is safe and
// — for the integer counters — exactly commutative: aggregated totals are
// identical at any GOMAXPROCS.
//
// Metric names follow the Prometheus convention (`hcd_solve_matvecs_total`)
// and may carry a label suffix in braces (`...{stage="sparsify"}`); the
// registry treats the full string as the key and the encoders group names
// by family (the part before '{').
//
// A nil *Registry is the disabled state: lookups return nil metric handles
// whose update methods are no-ops, so instrumented code never branches on
// enablement.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter is a monotonically increasing atomic count. Nil-safe.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by delta (no-op on nil).
func (c *Counter) Add(delta int64) {
	if c != nil {
		c.v.Add(delta)
	}
}

// Inc increments the counter by one (no-op on nil).
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomically stored last-value float. Nil-safe.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v (no-op on nil).
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Value returns the stored value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into fixed buckets with upper bounds
// Bounds[i] (observations ≤ bound land in the bucket; larger ones in the
// implicit +Inf bucket). The observation sum is accumulated with a CAS loop.
// Nil-safe.
type Histogram struct {
	bounds  []float64
	buckets []atomic.Int64
	count   atomic.Int64
	sumBits atomic.Uint64
}

// defaultResidualBuckets spans the residual-norm range of a Laplacian solve
// from convergence (≤1e-14) to divergence-guard territory, one decade per
// bucket.
func defaultResidualBuckets() []float64 {
	b := make([]float64, 0, 20)
	for e := -14; e <= 4; e++ {
		b = append(b, math.Pow(10, float64(e)))
	}
	return b
}

// Observe records one sample (no-op on nil).
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	if i < len(h.buckets) {
		h.buckets[i].Add(1)
	}
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Quantile estimates the q-quantile (q in [0, 1]) of the observed
// distribution from the bucket counts, interpolating linearly inside the
// containing bucket (the first bucket interpolates up from zero — the
// registry's histograms observe non-negative durations and residuals).
// Observations that landed past the last finite bound clamp to that bound:
// a fixed-bucket histogram cannot see further, and reporting the bound keeps
// the estimate monotone instead of inventing mass at infinity. Returns 0 for
// an empty or nil histogram.
//
// The estimate is deterministic in the bucket counts, so two runs that
// observe the same multiset of samples report bit-identical quantiles — the
// property the replay harness's SLO report relies on.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 || len(h.bounds) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum int64
	for i := range h.buckets {
		n := h.buckets[i].Load()
		if n == 0 {
			continue
		}
		if float64(cum+n) >= rank {
			lower := 0.0
			if i > 0 {
				lower = h.bounds[i-1]
			}
			frac := (rank - float64(cum)) / float64(n)
			if frac < 0 {
				frac = 0
			}
			return lower + frac*(h.bounds[i]-lower)
		}
		cum += n
	}
	// Remaining mass sits in the implicit +Inf bucket.
	return h.bounds[len(h.bounds)-1]
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the observation sum (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Counter returns (creating on first use) the named counter. Nil registries
// return nil handles.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns (creating on first use) the named gauge. Nil registries
// return nil handles.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns (creating on first use) the named histogram. bounds are
// the bucket upper bounds, strictly increasing; they are fixed by the first
// call for a name (nil selects defaultResidualBuckets). Nil registries
// return nil handles.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		if bounds == nil {
			bounds = defaultResidualBuckets()
		}
		h = &Histogram{bounds: append([]float64(nil), bounds...), buckets: make([]atomic.Int64, len(bounds))}
		r.hists[name] = h
	}
	return h
}

// Snapshot flattens every metric to name → value: counters and gauges
// directly, histograms as name_count / name_sum plus one name_bucket_<le>
// entry per bucket. The deterministic flat form is what the
// GOMAXPROCS-invariance tests compare.
func (r *Registry) Snapshot() map[string]float64 {
	out := make(map[string]float64)
	if r == nil {
		return out
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		out[name] = float64(c.Value())
	}
	for name, g := range r.gauges {
		out[name] = g.Value()
	}
	for name, h := range r.hists {
		out[name+"_count"] = float64(h.Count())
		out[name+"_sum"] = h.Sum()
		for i, b := range h.bounds {
			out[fmt.Sprintf("%s_bucket_%g", name, b)] = float64(h.buckets[i].Load())
		}
	}
	return out
}

// family splits a metric key into its family name and label block:
// `a_total{x="y"}` → (`a_total`, `x="y"`).
func family(name string) (string, string) {
	if i := strings.IndexByte(name, '{'); i >= 0 && strings.HasSuffix(name, "}") {
		return name[:i], name[i+1 : len(name)-1]
	}
	return name, ""
}

// WritePrometheus encodes the registry in the Prometheus text exposition
// format (version 0.0.4): one `# TYPE` header per metric family, counters
// and gauges as plain samples, histograms as cumulative `_bucket{le=...}`
// series plus `_sum` and `_count`.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	type sample struct {
		key  string
		kind string
	}
	samples := make([]sample, 0, len(r.counters)+len(r.gauges)+len(r.hists))
	for name := range r.counters {
		samples = append(samples, sample{name, "counter"})
	}
	for name := range r.gauges {
		samples = append(samples, sample{name, "gauge"})
	}
	for name := range r.hists {
		samples = append(samples, sample{name, "histogram"})
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i].key < samples[j].key })

	var b strings.Builder
	typed := make(map[string]bool)
	for _, s := range samples {
		fam, labels := family(s.key)
		if !typed[fam] {
			fmt.Fprintf(&b, "# TYPE %s %s\n", fam, s.kind)
			typed[fam] = true
		}
		switch s.kind {
		case "counter":
			fmt.Fprintf(&b, "%s %d\n", s.key, r.counters[s.key].Value())
		case "gauge":
			fmt.Fprintf(&b, "%s %s\n", s.key, formatFloat(r.gauges[s.key].Value()))
		case "histogram":
			h := r.hists[s.key]
			cum := int64(0)
			for i, bound := range h.bounds {
				cum += h.buckets[i].Load()
				fmt.Fprintf(&b, "%s_bucket{%sle=%q} %d\n", fam, labelPrefix(labels), formatFloat(bound), cum)
			}
			fmt.Fprintf(&b, "%s_bucket{%sle=\"+Inf\"} %d\n", fam, labelPrefix(labels), h.Count())
			fmt.Fprintf(&b, "%s_sum%s %s\n", fam, braced(labels), formatFloat(h.Sum()))
			fmt.Fprintf(&b, "%s_count%s %d\n", fam, braced(labels), h.Count())
		}
	}
	r.mu.Unlock()
	_, err := io.WriteString(w, b.String())
	return err
}

func labelPrefix(labels string) string {
	if labels == "" {
		return ""
	}
	return labels + ","
}

func braced(labels string) string {
	if labels == "" {
		return ""
	}
	return "{" + labels + "}"
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// histogramJSON is the JSON shape of one histogram.
type histogramJSON struct {
	Count   int64            `json:"count"`
	Sum     float64          `json:"sum"`
	Buckets map[string]int64 `json:"buckets"` // upper bound → count (non-cumulative)
}

// WriteJSON encodes the registry as a single JSON document with "counters",
// "gauges" and "histograms" sections (keys sorted, trailing newline) — the
// machine-consumption form behind `hcd-decompose -json` and the
// /metrics.json endpoint.
func (r *Registry) WriteJSON(w io.Writer) error {
	doc := struct {
		Counters   map[string]int64         `json:"counters"`
		Gauges     map[string]float64       `json:"gauges"`
		Histograms map[string]histogramJSON `json:"histograms"`
	}{
		Counters:   map[string]int64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]histogramJSON{},
	}
	if r != nil {
		r.mu.Lock()
		for name, c := range r.counters {
			doc.Counters[name] = c.Value()
		}
		for name, g := range r.gauges {
			doc.Gauges[name] = g.Value()
		}
		for name, h := range r.hists {
			hj := histogramJSON{Count: h.Count(), Sum: h.Sum(), Buckets: map[string]int64{}}
			for i, bound := range h.bounds {
				if n := h.buckets[i].Load(); n > 0 {
					hj.Buckets[formatFloat(bound)] = n
				}
			}
			doc.Histograms[name] = hj
		}
		r.mu.Unlock()
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// quote returns the JSON string encoding of s.
func quote(s string) string {
	b, _ := json.Marshal(s)
	return string(b)
}

// jsonValue renders a span-arg or counter value as a JSON token.
func jsonValue(v any) string {
	switch x := v.(type) {
	case float64:
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return quote(formatFloat(x))
		}
	}
	b, err := json.Marshal(v)
	if err != nil {
		return quote(fmt.Sprint(v))
	}
	return string(b)
}
