package kernel

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// The harness: one table of bodies, each a builder of random operands and a
// call on them, and one test per property — asm == Go on guard-paged
// operands, chunking, bad operands, the -race build — run over body × width ×
// mode.

// args are the operands of one call into a body.
type args struct {
	f            map[string][]float64
	ids          map[string][]int32
	off          []int
	groups       []Group
	k, j0, width int
	mode         int
	omega        float64
}

// arena hands out a call's operands: plain slices, or slices that end flush
// against an inaccessible page.
type arena struct {
	t     testing.TB
	guard bool
}

func alloc[T any](a arena, n int) []T {
	if a.guard {
		return guarded[T](a.t, n)
	}
	return make([]T, n)
}

// value is a random operand word: one in five from Specials.
func value(rng *rand.Rand) float64 {
	if rng.Intn(5) == 0 {
		return Specials[rng.Intn(len(Specials))]
	}
	return rng.NormFloat64()
}

func floats(a arena, rng *rand.Rand, n int) []float64 {
	s := alloc[float64](a, n)
	for i := range s {
		s[i] = value(rng)
	}
	return s
}

func ids(a arena, src []int32) []int32 {
	s := alloc[int32](a, len(src))
	copy(s, src)
	return s
}

// csr returns the offsets of n rows of the given degrees.
func csr(a arena, deg func(v int) int, n int) []int {
	off := alloc[int](a, n+1)
	for v := range n {
		off[v+1] = off[v] + deg(v)
	}
	return off
}

// randomIDs returns m ids in [0, n).
func randomIDs(rng *rand.Rand, m, n int) []int32 {
	s := make([]int32, m)
	for i := range s {
		s[i] = int32(rng.Intn(n))
	}
	return s
}

type body struct {
	name    string
	widths  []int
	modes   int
	outs    []string // the operands the body writes
	checked []string // the operands check holds against the call
	build   func(a arena, rng *rand.Rand, n, k, mode int) *args
	run     func(o *args, lo, hi int)
}

// lapOperands builds the Laplacian bodies' operands over a CSR of n rows:
// dst, x and, by mode, r and dInv.
func lapOperands(a arena, rng *rand.Rand, off []int, n, k, mode int) *args {
	o := &args{off: off, k: k, omega: 2.0 / 3, f: map[string][]float64{}}
	o.ids = map[string][]int32{"adj": ids(a, randomIDs(rng, off[n], n))}
	o.f["w"], o.f["x"], o.f["dst"] = floats(a, rng, off[n]), floats(a, rng, n*k), floats(a, rng, n*k)
	if mode >= 1 {
		o.f["r"] = floats(a, rng, n*k)
	}
	if mode == 2 {
		o.f["dInv"] = floats(a, rng, n)
	}
	return o
}

var bodies = []body{
	{
		name: "lapTile", widths: []int{8, 4}, modes: 3,
		outs: []string{"dst"}, checked: []string{"off", "w", "dst", "x", "r", "dInv"},
		build: func(a arena, rng *rand.Rand, n, k, mode int) *args {
			// Rows of 0–6 entries; the last row's last entry is adj's last.
			deg := func(v int) int { return max(rng.Intn(7), 3*(v/(n-1))) }
			return lapOperands(a, rng, csr(a, deg, n), n, k, mode)
		},
		run: func(o *args, lo, hi int) {
			LapTile(o.width, o.f["dst"], o.f["r"], o.f["x"], o.f["dInv"], o.omega, o.ids["adj"], o.f["w"], o.off, o.k, o.j0, lo, hi)
		},
	},
	{
		// Runs of 1–12 rows of one degree in 0–5, a run of degree ≥ 1 a
		// segment of any length — LapRows clips it to whole groups — or, one
		// time in four, left to the Go loops; then a grouped run of degree 3
		// over the last quarter to half of the rows, whole groups, so the
		// row-group form reaches the last row and one call can take more
		// than one chunk.
		name: "lapRows", widths: []int{1}, modes: 3,
		outs: []string{"dst"}, checked: []string{"off", "w", "dst", "x", "r", "dInv"},
		build: func(a arena, rng *rand.Rand, n, _, mode int) *args {
			var groups []Group
			deg, last := make([]int, n), n-(n/2)&^3
			for lo := 0; lo < n; {
				hi, d := min(lo+1+rng.Intn(12), last), rng.Intn(6)
				if lo == last {
					hi, d = n, 3
				}
				for v := lo; v < hi; v++ {
					deg[v] = d
				}
				if rng.Intn(4) == 0 && hi < n {
					d = 0
				}
				groups = append(groups, Group{int32(lo), int32(hi), int32(d)})
				lo = hi
			}
			o := lapOperands(a, rng, csr(a, func(v int) int { return deg[v] }, n), n, 1, mode)
			o.groups = groups
			return o
		},
		run: func(o *args, lo, hi int) {
			LapRows(o.f["dst"], o.f["r"], o.f["x"], o.f["dInv"], o.omega, o.ids["adj"], o.f["w"], o.off, o.groups, lo, hi)
		},
	},
	{
		name: "dots", widths: []int{8, 4}, modes: 2,
		outs: []string{"acc"}, checked: []string{"a", "b", "acc"},
		build: func(a arena, rng *rand.Rand, n, k, mode int) *args {
			o := &args{k: k, f: map[string][]float64{"a": floats(a, rng, n*k), "acc": floats(a, rng, k)}}
			if mode == 1 {
				o.f["b"] = floats(a, rng, n*k)
			}
			return o
		},
		run: func(o *args, lo, hi int) { Dots(o.width, o.f["a"], o.f["b"], o.k, o.j0, lo, hi, o.f["acc"]) },
	},
	{
		// Mode 1 hands z as r too, as the residual projection (blockSubMeans) does.
		name: "subMeanDot", widths: []int{8, 4}, modes: 2,
		outs: []string{"z", "acc"}, checked: []string{"z", "r", "mean", "acc"},
		build: func(a arena, rng *rand.Rand, n, k, mode int) *args {
			o := &args{k: k, f: map[string][]float64{"z": floats(a, rng, n*k), "mean": floats(a, rng, k), "acc": floats(a, rng, k)}}
			o.f["r"] = o.f["z"]
			if mode == 0 {
				o.f["r"] = floats(a, rng, n*k)
			}
			return o
		},
		run: func(o *args, lo, hi int) {
			SubMeanDot(o.width, o.f["z"], o.f["r"], o.f["mean"], o.k, o.j0, lo, hi, o.f["acc"])
		},
	},
	{
		name: "updateXRSums", widths: []int{8, 4}, modes: 1,
		outs: []string{"x", "r", "acc"}, checked: []string{"x", "r", "p", "ap", "alpha", "acc"},
		build: func(a arena, rng *rand.Rand, n, k, _ int) *args {
			return &args{k: k, f: map[string][]float64{
				"x": floats(a, rng, n*k), "r": floats(a, rng, n*k), "p": floats(a, rng, n*k), "ap": floats(a, rng, n*k),
				"alpha": floats(a, rng, k), "acc": floats(a, rng, k),
			}}
		},
		run: func(o *args, lo, hi int) {
			UpdateXRSums(o.width, o.f["x"], o.f["r"], o.f["p"], o.f["ap"], o.f["alpha"], o.k, o.j0, lo, hi, o.f["acc"])
		},
	},
	{
		name: "xpby", widths: []int{8, 4}, modes: 1,
		outs: []string{"p"}, checked: []string{"p", "z", "beta"},
		build: func(a arena, rng *rand.Rand, n, k, _ int) *args {
			return &args{k: k, f: map[string][]float64{"p": floats(a, rng, n*k), "z": floats(a, rng, n*k), "beta": floats(a, rng, k)}}
		},
		run: func(o *args, lo, hi int) { XPBY(o.width, o.f["p"], o.f["z"], o.f["beta"], o.k, o.j0, lo, hi) },
	},
	{
		// n clusters of 2n+3 vertices, some clusters empty; the last vertex
		// is a member of the last cluster.
		name: "restrict", widths: []int{8, 4}, modes: 1,
		outs: []string{"rq"}, checked: []string{"rq", "start"},
		build: func(a arena, rng *rand.Rand, n, k, _ int) *args {
			nv := 2*n + 3
			assign := randomIDs(rng, nv, n)
			assign[nv-1] = int32(n - 1)
			order := make([]int32, nv)
			for v := range order {
				order[v] = int32(v)
			}
			sort.SliceStable(order, func(i, j int) bool { return assign[order[i]] < assign[order[j]] })
			start := make([]int32, n+1)
			for _, c := range assign {
				start[c+1]++
			}
			for c := range n {
				start[c+1] += start[c]
			}
			return &args{k: k, f: map[string][]float64{"r": floats(a, rng, nv*k), "rq": floats(a, rng, n*k)},
				ids: map[string][]int32{"order": ids(a, order), "start": ids(a, start)}}
		},
		run: func(o *args, lo, hi int) {
			Restrict(o.width, o.f["r"], o.f["rq"], o.ids["order"], o.ids["start"], o.k, o.j0, lo, hi)
		},
	},
	{
		name: "prolongAdd", widths: []int{8, 4}, modes: 1,
		outs: []string{"x"}, checked: []string{"x", "assign"},
		build: func(a arena, rng *rand.Rand, n, k, _ int) *args {
			count := n/3 + 1
			return &args{k: k, omega: value(rng), f: map[string][]float64{"x": floats(a, rng, n*k), "xq": floats(a, rng, count*k)},
				ids: map[string][]int32{"assign": ids(a, randomIDs(rng, n, count))}}
		},
		run: func(o *args, lo, hi int) {
			ProlongAdd(o.width, o.f["x"], o.f["xq"], o.omega, o.ids["assign"], o.k, o.j0, lo, hi)
		},
	},
	{
		name: "jacobiFromZero", widths: []int{8, 4}, modes: 1,
		outs: []string{"x"}, checked: []string{"x", "r", "dInv"},
		build: func(a arena, rng *rand.Rand, n, k, _ int) *args {
			return &args{k: k, omega: 2.0 / 3, f: map[string][]float64{"x": floats(a, rng, n*k), "r": floats(a, rng, n*k), "dInv": floats(a, rng, n)}}
		},
		run: func(o *args, lo, hi int) {
			JacobiFromZero(o.width, o.f["x"], o.f["r"], o.f["dInv"], o.omega, o.k, o.j0, lo, hi)
		},
	},
	{
		// A factor of n columns over n+3 vertices: any vertex ids, columns of
		// 0–6 entries, the last column's last entry rowIdx's last. Mode 0 is
		// the forward scatter, mode 1 the backward gather.
		name: "cholTile", widths: []int{8, 4}, modes: 2,
		outs: []string{"dst"}, checked: []string{"order", "colPtr", "diag", "val"},
		build: func(a arena, rng *rand.Rand, n, k, _ int) *args {
			nv := n + 3
			off := csr(arena{}, func(j int) int { return max(rng.Intn(7), 3*(j/(n-1))) }, n)
			colPtr := make([]int32, n+1)
			for j, o := range off {
				colPtr[j] = int32(o)
			}
			return &args{k: k, f: map[string][]float64{"dst": floats(a, rng, nv*k), "diag": floats(a, rng, n), "val": floats(a, rng, off[n])},
				ids: map[string][]int32{"order": ids(a, randomIDs(rng, n, nv)), "colPtr": ids(a, colPtr), "rowIdx": ids(a, randomIDs(rng, off[n], nv))}}
		},
		run: func(o *args, lo, hi int) {
			CholTile(o.width, o.mode == 1, o.f["dst"], o.f["diag"], o.f["val"], o.ids["order"], o.ids["colPtr"], o.ids["rowIdx"], o.k, o.j0, lo, hi)
		},
	},
}

// forms are the two ways to run a body: its Go form, and the form this
// process picked.
var forms = []struct {
	name string
	run  func(func())
}{{"go", WithGo}, {Name(), func(f func()) { f() }}}

// call builds a body's operands from seed at width, k and column j0.
func (b *body) call(a arena, seed int64, n, k, width, j0, mode int) *args {
	if width == 1 {
		k, j0 = 1, 0
	}
	o := b.build(a, rand.New(rand.NewSource(seed)), n, k, mode)
	o.width, o.j0, o.mode = width, j0, mode
	return o
}

// diff names the first word in which two calls' outputs differ, or is "".
func (b *body) diff(got, want *args) string {
	for _, name := range b.outs {
		for i, g := range got.f[name] {
			if w := want.f[name][i]; !SameWord(g, w) {
				return fmt.Sprintf("%s[%d] = %v, want %v", name, i, g, w)
			}
		}
	}
	return ""
}

// cases calls f on every body × width × mode, at k = width and width + 5 and
// at the column windows that start and end the block (k = 1 for the rows).
func cases(f func(b *body, width, k, j0, mode int)) {
	for i := range bodies {
		b := &bodies[i]
		for _, width := range b.widths {
			for mode := range b.modes {
				f(b, width, width, 0, mode)
				if width > 1 {
					f(b, width, width+5, 0, mode)
					f(b, width, width+5, 5, mode)
				}
			}
		}
	}
}

// TestFormsAgree: both forms of every body write the same words — the same
// bits, or NaN on both sides — to every entry of every output, in the call's
// rows and outside them. Every operand ends flush against a guard page where
// the build has them, so a call through the last row and the block's last
// column that touched a byte past any operand would fault.
func TestFormsAgree(t *testing.T) {
	var inside string
	if WithGo(func() { inside = Name() }); inside != "go" {
		t.Fatalf("Name() = %q inside WithGo", inside)
	}
	defer setPanicOnFault()()
	const n = 68
	a, seed := arena{t: t, guard: guardPages}, int64(0)
	cases(func(b *body, width, k, j0, mode int) {
		seed++
		for _, rows := range [][2]int{{0, n}, {4, n - 8}, {12, 12}} {
			want, got := b.call(a, seed, n, k, width, j0, mode), b.call(a, seed, n, k, width, j0, mode)
			WithGo(func() { b.run(want, rows[0], rows[1]) })
			b.run(got, rows[0], rows[1])
			if d := b.diff(got, want); d != "" {
				t.Fatalf("%s width %d k=%d j0=%d mode %d rows %v: %s form against go: %s", b.name, width, k, j0, mode, rows, Name(), d)
			}
		}
	})
}

// TestCallsAreChunked: no call into a body's form is handed more than
// ChunkRows(k) rows, only a call's last chunk is not whole groups of four, and
// a call split at any multiple of four rows writes what the whole call writes
// — a chunk boundary never moves a bit.
func TestCallsAreChunked(t *testing.T) {
	var chunks []int
	see := func(rows int) { chunks = append(chunks, rows) }
	rng := rand.New(rand.NewSource(1))
	for i := range bodies {
		b := &bodies[i]
		for _, width := range b.widths {
			k := 40
			if width == 1 {
				k = 1
			}
			n := 2*ChunkRows(k) + 36
			for _, form := range forms {
				seed, split := rng.Int63(), 4*(1+rng.Intn(n/4-1))
				whole, parts := b.call(arena{}, seed, n, k, width, k-width, 0), b.call(arena{}, seed, n, k, width, k-width, 0)
				chunks = chunks[:0]
				form.run(func() { ObserveChunks(see, func() { b.run(whole, 0, n) }) })
				if len(chunks) < 2 && (b.name != "lapRows" || form.name != "go") { // the Go rows are one loop
					t.Fatalf("%s width %d %s: %d rows in %d chunks", b.name, width, form.name, n, len(chunks))
				}
				for i, rows := range chunks {
					if rows > ChunkRows(k) || rows%4 != 0 && i < len(chunks)-1 {
						t.Fatalf("%s width %d %s: a chunk of %d rows (ChunkRows(%d) = %d)", b.name, width, form.name, rows, k, ChunkRows(k))
					}
				}
				form.run(func() { b.run(parts, 0, split); b.run(parts, split, n) })
				if d := b.diff(parts, whole); d != "" {
					t.Fatalf("%s width %d %s: split at row %d: %s", b.name, width, form.name, split, d)
				}
			}
		}
	}
}

// mustFail runs f and fails the test unless f panics with an error that wraps
// ErrInvalidInput and names want.
func mustFail(t *testing.T, what, want string, f func()) {
	t.Helper()
	err := func() (err error) {
		defer func() { err, _ = recover().(error) }()
		f()
		return nil
	}()
	if !errors.Is(err, ErrInvalidInput) || !strings.Contains(err.Error(), want) {
		t.Fatalf("%s: panic %v, want an error wrapping ErrInvalidInput that names %q", what, err, want)
	}
}

// TestBadOperands: under either form, an operand one word short of what the
// call reaches, a column window past k and offsets beyond the adjacency array
// panic with an error wrapping ErrInvalidInput that names what failed, before
// anything is stored. An index that leaves its operand — a neighbor, member,
// cluster, vertex or row id, or a cluster's or a factor column's end — and a row-group table the offsets disagree
// with are the assembly's to name (the Go form panics on its bounds check, and
// does not read the table), with the operands ending at a guard page where the
// build has one.
func TestBadOperands(t *testing.T) {
	const n = 64
	for _, form := range forms {
		form.run(func() {
			cases(func(b *body, width, k, j0, mode int) {
				what := fmt.Sprintf("%s %s width %d k=%d j0=%d mode %d", form.name, b.name, width, k, j0, mode)
				fresh := func() *args { return b.call(arena{}, 7, n, k, width, j0, mode) }
				if j0 != k-width {
					return // a coefficient operand is only short at the block's last column
				}
				orig := fresh()
				for _, name := range b.checked {
					o := fresh()
					switch {
					case name == "off":
						o.off = o.off[:len(o.off)-1]
					case o.ids[name] != nil:
						o.ids[name] = o.ids[name][:len(o.ids[name])-1]
					case o.f[name] != nil:
						o.f[name] = o.f[name][:len(o.f[name])-1]
					default:
						continue // nil in this mode
					}
					mustFail(t, what+", short "+name, "len("+name+")", func() { b.run(o, 0, n) })
					if d := b.diff(o, orig); d != "" {
						t.Fatalf("%s, short %s: stored before the panic: %s", what, name, d)
					}
				}
				if width > 1 {
					o := fresh()
					o.j0 = k - width + 1
					mustFail(t, what+", columns past k", "columns [", func() { b.run(o, 0, n) })
				}
			})
			o := bodies[0].call(arena{}, 9, n, 8, 8, 0, 0)
			o.off[n]++
			mustFail(t, form.name+" lapTile, last row beyond adj", "CSR offset", func() { bodies[0].run(o, 0, n) })
		})
	}
	if Name() != "avx2" {
		return
	}
	a := arena{t: t, guard: guardPages}
	defer setPanicOnFault()()
	for _, tc := range []struct {
		body, width int
		names       string
		corrupt     func(o *args)
	}{
		{0, 8, fmt.Sprintf("row %d ", n-1), func(o *args) { o.ids["adj"][len(o.ids["adj"])-1] = n }},
		{0, 4, fmt.Sprintf("row %d ", n-1), func(o *args) { o.ids["adj"][len(o.ids["adj"])-1] = n }},
		{1, 1, fmt.Sprintf("row %d ", n-1), func(o *args) { o.ids["adj"][len(o.ids["adj"])-1] = n }},
		{1, 1, fmt.Sprintf("row %d ", n/2), func(o *args) { o.groups[len(o.groups)-1].Deg = 2 }},
		{1, 1, fmt.Sprintf("row %d ", n-1), func(o *args) { o.off[n]++ }},
		{6, 8, fmt.Sprintf("cluster %d ", n-1), func(o *args) { o.ids["order"][len(o.ids["order"])-1] = 2*n + 3 }},
		{6, 4, fmt.Sprintf("cluster %d ", n-1), func(o *args) { o.ids["start"][n]++ }},
		{7, 8, fmt.Sprintf("vertex %d ", n-1), func(o *args) { o.ids["assign"][n-1] = n/3 + 1 }},
		{7, 4, fmt.Sprintf("vertex %d ", n-1), func(o *args) { o.ids["assign"][n-1] = -1 }},
		{9, 8, fmt.Sprintf("column %d ", n-1), func(o *args) { o.ids["rowIdx"][len(o.ids["rowIdx"])-1] = n + 3 }},
		{9, 4, fmt.Sprintf("column %d ", n-1), func(o *args) { o.ids["order"][n-1] = -1 }},
		{9, 8, fmt.Sprintf("column %d ", n-1), func(o *args) { o.ids["colPtr"][n]++ }},
	} {
		b := &bodies[tc.body]
		o := b.call(a, 10, n, 12, tc.width, 12-tc.width, b.modes-1)
		tc.corrupt(o)
		mustFail(t, fmt.Sprintf("avx2 %s width %d, corrupt index", b.name, tc.width), tc.names, func() { b.run(o, 0, n) })
	}
}

// BenchmarkBodies times one call of every body over 4096 rows of a width-16
// block (width 1 for the row groups) in each form: -bench 'Bodies/.*/go' or
// '/avx2'.
func BenchmarkBodies(b *testing.B) {
	const n = 4096
	for i := range bodies {
		body := &bodies[i]
		width := body.widths[0]
		for _, form := range forms {
			b.Run(fmt.Sprintf("%s/%d/%s", body.name, width, form.name), func(b *testing.B) {
				o := body.call(arena{}, 12, n, 16, width, 0, body.modes-1)
				form.run(func() {
					for b.Loop() {
						body.run(o, 0, n)
					}
				})
			})
		}
	}
}
