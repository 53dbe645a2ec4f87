package hierarchy

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"hcd/internal/graph"
	"hcd/internal/kernel"
	"hcd/internal/par"
	"hcd/internal/workload"
)

// sweepLevel builds a level by hand for the sweeps of apply.go, which read
// only the vertex count, the inverse diagonal, alpha and the restriction
// tables: n vertices on a path, clusters whose sizes cycle through sizes —
// scattered over the vertices when shuffle is set, runs of neighbours
// otherwise — and an inverse diagonal drawn by draw.
func sweepLevel(rng *rand.Rand, n int, sizes []int, shuffle bool, draw func() float64) *Level {
	var es []graph.Edge
	for v := 1; v < n; v++ {
		es = append(es, graph.Edge{U: v - 1, V: v, W: 1})
	}
	l := &Level{g: graph.MustFromEdges(n, es), alpha: 0.8125, dInv: make([]float64, n), assign: make([]int32, n), start: []int32{0}}
	for v := range l.dInv {
		l.dInv[v] = draw()
	}
	members := make([]int32, n)
	for v := range members {
		members[v] = int32(v)
	}
	if shuffle {
		rng.Shuffle(n, func(i, j int) { members[i], members[j] = members[j], members[i] })
	}
	for at := 0; at < n; l.count++ {
		end := min(at+sizes[l.count%len(sizes)], n)
		for _, v := range members[at:end] {
			l.assign[v] = int32(l.count)
		}
		at = end
		l.start = append(l.start, int32(at))
	}
	// order lists each cluster's members by ascending id, as layout.go does.
	l.order = make([]int32, n)
	fill := append([]int32(nil), l.start[:l.count]...)
	for v, c := range l.assign {
		l.order[fill[c]] = int32(v)
		fill[c]++
	}
	return l
}

// applyArgs are the operands of the three sweeps: two vertex blocks and two
// cluster blocks of width k.
type applyArgs struct {
	x, r, xq, rq []float64
	k            int
}

// clone copies the operands into slices whose capacity is their length, so
// that the Go tiles' full-slice expressions are checked against the length.
func (a *applyArgs) clone() *applyArgs {
	c := *a
	for _, f := range []*[]float64{&c.x, &c.r, &c.xq, &c.rq} {
		*f = append(make([]float64, 0, len(*f)), *f...)
	}
	return &c
}

func randomApplyArgs(l *Level, k int, draw func() float64) *applyArgs {
	a := &applyArgs{k: k}
	for _, f := range []struct {
		dst  *[]float64
		rows int
	}{{&a.x, l.g.N()}, {&a.r, l.g.N()}, {&a.xq, l.count}, {&a.rq, l.count}} {
		*f.dst = make([]float64, f.rows*k)
		for i := range *f.dst {
			(*f.dst)[i] = draw()
		}
	}
	return a
}

// applySweeps lists the sweeps of apply.go (all but steinerSweep, which has
// only its whole-row loop, and addSweep) three ways, like the solver's
// blockSweeps: tiled is the sweep's Range; loop its width-1 loop on every
// column (the whole sweep at k = 1, and the reference both forms of the tiles
// are held to); whole the sweep as the cycle runs it, through par.For.
// restrict ranges over clusters and writes rq; the others range over vertices
// and write x.
var applySweeps = []struct {
	name     string
	clusters bool
	tiled    func(l *Level, a *applyArgs, lo, hi int)
	loop     func(l *Level, a *applyArgs, lo, hi int)
	whole    func(l *Level, a *applyArgs)
}{
	{"jacobiFromZero", false,
		func(l *Level, a *applyArgs, lo, hi int) {
			jacobiSweep{a.x, a.r, l.dInv, jacobiOmega, a.k}.Range(lo, hi)
		},
		func(l *Level, a *applyArgs, lo, hi int) {
			for j := 0; j < a.k; j++ {
				jacobiFromZeroCol(a.x, a.r, l.dInv, jacobiOmega, a.k, j, lo, hi)
			}
		},
		func(l *Level, a *applyArgs) {
			par.For(l.g.N(), kernel.ChunkRows(a.k), jacobiSweep{a.x, a.r, l.dInv, jacobiOmega, a.k})
		}},
	{"prolongAdd", false,
		func(l *Level, a *applyArgs, lo, hi int) {
			prolongSweep{a.x, a.xq, l.assign, l.alpha, a.k}.Range(lo, hi)
		},
		func(l *Level, a *applyArgs, lo, hi int) {
			for j := 0; j < a.k; j++ {
				prolongAddCol(a.x, a.xq, l.assign, l.alpha, a.k, j, lo, hi)
			}
		},
		func(l *Level, a *applyArgs) {
			par.For(l.g.N(), kernel.ChunkRows(a.k), prolongSweep{a.x, a.xq, l.assign, l.alpha, a.k})
		}},
	{"restrict", true,
		func(l *Level, a *applyArgs, lo, hi int) {
			restrictSweep{a.r, a.rq, l.order, l.start, a.k}.Range(lo, hi)
		},
		func(l *Level, a *applyArgs, lo, hi int) {
			for j := 0; j < a.k; j++ {
				restrictCol(a.r, a.rq, l.order, l.start, a.k, j, lo, hi)
			}
		},
		func(l *Level, a *applyArgs) {
			par.For(l.count, kernel.ChunkRows(a.k), restrictSweep{a.r, a.rq, l.order, l.start, a.k})
		}},
}

// bodies are the two forms of the kernel bodies: Go, and whichever this
// process runs.
var bodies = []struct {
	name string
	run  func(func())
}{{"go", kernel.WithGo}, {kernel.Name(), func(f func()) { f() }}}

// sweepRows is the range a sweep runs over: the level's clusters for
// restrict, its vertices otherwise.
func sweepRows(l *Level, clusters bool) int {
	if clusters {
		return l.count
	}
	return l.g.N()
}

func diffApply(got, want *applyArgs) string {
	names := []string{"x", "r", "xq", "rq"}
	for f, pair := range [][2][]float64{{got.x, want.x}, {got.r, want.r}, {got.xq, want.xq}, {got.rq, want.rq}} {
		for i := range pair[1] {
			if !kernel.SameWord(pair[0][i], pair[1][i]) {
				return fmt.Sprintf("%s[%d] (row %d, column %d): tiled %v (%#x), width-1 loop %v (%#x)", names[f], i, i/want.k, i%want.k,
					pair[0][i], math.Float64bits(pair[0][i]), pair[1][i], math.Float64bits(pair[1][i]))
			}
		}
	}
	return ""
}

// TestApplySweepTilesMatchReference: every tiled sweep of the cycle leaves the
// words its width-1 loop leaves on every column, with either form of its tiles, at widths
// that combine the tiles every way, on levels below, at and above one parallel
// chunk whose clusters run from single vertices to many times SizeCap, through
// the sweep's entry point, through either form over the whole level and on
// ranges that start and end mid-level, where rows (clusters, for restrict)
// outside the range keep their sentinel; ordinary and special values, in the
// inverse diagonal too.
func TestApplySweepTilesMatchReference(t *testing.T) {
	const sentinel = 12345.678
	sizes := []int{1, 1, 3, 40, 2, 1, 300, 4}
	rng := rand.New(rand.NewSource(26))
	for _, k := range []int{1, 2, 3, 4, 5, 7, 8, 11, 12, 13, 16, 17} {
		grain := kernel.ChunkRows(k)
		for _, special := range []bool{false, true} {
			draw := func() float64 {
				if special && rng.Intn(5) == 0 {
					return kernel.Specials[rng.Intn(len(kernel.Specials))]
				}
				return rng.NormFloat64()
			}
			// The entry point and both bodies against the loop over the
			// whole level.
			for _, n := range []int{1, 37, grain - 1, grain, grain + 1, 2*grain + 37} {
				l := sweepLevel(rng, n, sizes, true, draw)
				base := randomApplyArgs(l, k, draw)
				for _, sw := range applySweeps {
					m := sweepRows(l, sw.clusters)
					want := base.clone()
					sw.loop(l, want, 0, m)
					got := base.clone()
					sw.whole(l, got)
					if d := diffApply(got, want); d != "" {
						t.Fatalf("%s entry point k=%d n=%d special=%v: %s", sw.name, k, n, special, d)
					}
					for _, body := range bodies {
						got := base.clone()
						body.run(func() { sw.tiled(l, got, 0, m) })
						if d := diffApply(got, want); d != "" {
							t.Fatalf("%s %s tiles k=%d n=%d special=%v: %s", sw.name, body.name, k, n, special, d)
						}
					}
				}
			}
			// The range body mid-level: what lies outside keeps its sentinel.
			l := sweepLevel(rng, 101, sizes, true, draw)
			base := randomApplyArgs(l, k, draw)
			for _, sw := range applySweeps {
				m := sweepRows(l, sw.clusters)
				for _, rg := range [][2]int{{0, m}, {m / 3, m/3 + 1}, {m / 2, m / 2}, {1, m - 1}} {
					start := base.clone()
					out := start.x
					if sw.clusters {
						out = start.rq
					}
					outside := func(i int) bool { return i/k < rg[0] || i/k >= rg[1] }
					for i := range out {
						if outside(i) {
							out[i] = sentinel
						}
					}
					want := start.clone()
					sw.loop(l, want, rg[0], rg[1])
					for _, body := range bodies {
						got := start.clone()
						body.run(func() { sw.tiled(l, got, rg[0], rg[1]) })
						if d := diffApply(got, want); d != "" {
							t.Fatalf("%s %s tiles k=%d special=%v range [%d,%d): %s", sw.name, body.name, k, special, rg[0], rg[1], d)
						}
						out := got.x
						if sw.clusters {
							out = got.rq
						}
						for i := range out {
							if outside(i) && out[i] != sentinel {
								t.Fatalf("%s %s tiles k=%d range [%d,%d): row %d outside the range was written", sw.name, body.name, k, rg[0], rg[1], i/k)
							}
						}
					}
				}
			}
		}
	}
}

// FuzzApplySweeps holds restrict, prolongAdd and jacobiFromZero, with either
// form of their tiles, to their width-1 loops on a level, width, range and
// operands decoded from the fuzzer's bytes: vertex count, cluster sizes,
// whether clusters are scattered, and the values of the blocks and of the
// inverse diagonal, specials included.
func FuzzApplySweeps(f *testing.F) {
	f.Add([]byte{6, 20, 0, 3, 1, 2, 250, 3, 130, 7})
	f.Add([]byte{11, 63, 1, 40, 255, 0, 241, 100, 9, 4})
	f.Add([]byte{2, 1, 0, 1, 0})
	f.Add([]byte{15, 33, 1, 30, 3, 120, 245, 121})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 5 {
			return
		}
		// Bytes 0–4: width in [2, 24], vertex count in [1, 96], scattered
		// clusters, range start and length (as a share of the range's
		// rows); the rest sets the cluster sizes and seeds the operands.
		k := 2 + int(data[0])%23
		n := 1 + int(data[1])%96
		shuffle := data[2]&1 == 1
		from, length := int(data[3]), int(data[4])
		data = data[5:]
		sizes := []int{1 + len(data)%5}
		for _, b := range data[:min(len(data), 6)] {
			sizes = append(sizes, 1+int(b)%9)
		}
		i := 0
		draw := func() float64 {
			i++
			if len(data) == 0 {
				return float64(i%7) - 3
			}
			b := data[i%len(data)]
			if b >= 240 {
				return kernel.Specials[int(b)%len(kernel.Specials)]
			}
			return (float64(b) - 120) * float64(1+i%5) / 16
		}
		l := sweepLevel(rand.New(rand.NewSource(int64(n*31+k))), n, sizes, shuffle, draw)
		base := randomApplyArgs(l, k, draw)
		for _, sw := range applySweeps {
			m := sweepRows(l, sw.clusters)
			lo := from % (m + 1)
			hi := lo + length%(m+1-lo)
			want := base.clone()
			sw.loop(l, want, lo, hi)
			for _, body := range bodies {
				got := base.clone()
				body.run(func() { sw.tiled(l, got, lo, hi) })
				if d := diffApply(got, want); d != "" {
					t.Fatalf("%s %s tiles k=%d n=%d range [%d,%d): %s", sw.name, body.name, k, n, lo, hi, d)
				}
			}
		}
	})
}

// TestApplySweepTilesRejectCorruptIndices: a restriction table that names a
// member id n, a cluster that ends beyond the restriction order, or a vertex
// assigned to cluster count — which a built hierarchy never holds — panics
// under either form of the tiles before the offending cluster or row is
// stored; the assembly's index checks panic with an error wrapping
// graph.ErrInvalidInput that names it.
func TestApplySweepTilesRejectCorruptIndices(t *testing.T) {
	const n, bad = 200, 23 // the corrupt cluster, or vertex
	rng := rand.New(rand.NewSource(28))
	for _, k := range []int{4, 8, 12} {
		for _, tc := range []struct {
			name, names string
			restrict    bool
			corrupt     func(l *Level)
		}{
			{"member id n", fmt.Sprintf("cluster %d ", bad), true, func(l *Level) { l.order[l.start[bad]+1] = n }},
			{"cluster end beyond the order", fmt.Sprintf("cluster %d ", bad), true, func(l *Level) {
				l.start[bad+1] = int32(len(l.order) + 1)
			}},
			{"cluster id count", fmt.Sprintf("vertex %d ", bad), false, func(l *Level) { l.assign[bad] = int32(l.count) }},
		} {
			l := sweepLevel(rng, n, []int{3, 4, 2}, false, func() float64 { return 0.5 })
			tc.corrupt(l)
			base := randomApplyArgs(l, k, rng.NormFloat64)
			for _, body := range bodies {
				a := base.clone()
				sw, out, orig := applySweeps[1], a.x, base.x // prolongAdd
				if tc.restrict {
					sw, out, orig = applySweeps[2], a.rq, base.rq
				}
				what := fmt.Sprintf("%s k=%d %s tiles, %s", sw.name, k, body.name, tc.name)
				v := func() (v any) {
					defer func() { v = recover() }()
					body.run(func() { sw.tiled(l, a, 0, sweepRows(l, tc.restrict)) })
					return nil
				}()
				if v == nil {
					t.Fatalf("%s: no panic", what)
				}
				if err, ok := v.(error); body.name == "avx2" && (!ok || !errors.Is(err, graph.ErrInvalidInput) || !strings.Contains(err.Error(), tc.names)) {
					t.Fatalf("%s: panic %v, want an error wrapping ErrInvalidInput that names %q", what, v, tc.names)
				}
				for i := bad * k; i < len(out); i++ {
					if !kernel.SameWord(out[i], orig[i]) {
						t.Fatalf("%s: row %d column %d written at or after the corrupt one", what, i/k, i%k)
					}
				}
				if kernel.SameWord(out[(bad-1)*k], orig[(bad-1)*k]) {
					t.Fatalf("%s: row %d, before the corrupt one, was not written", what, bad-1)
				}
			}
		}
	}
}

// TestApplyBlockRejectsBadOperands: a width below 1 or a dst / r of any other
// length than n·k panics with an error wrapping graph.ErrInvalidInput that
// names the operand, before anything is written — on the smoothed cycle and on
// the pure Steiner recursion, whose last sweep used to stop on an index panic
// with dst half written.
func TestApplyBlockRejectsBadOperands(t *testing.T) {
	g := workload.Grid2D(12, 12, nil, 1)
	n := g.N()
	for _, smooth := range []int{0, 1} {
		opt := DefaultOptions()
		opt.DirectLimit = 20
		h := newSmooth(t, g, opt, smooth)
		for _, tc := range []struct {
			name            string
			dstLen, rLen, k int
			names           string
		}{
			{"zero width", 0, 0, 0, "width k = 0"},
			{"negative width", n, n, -1, "width k = -1"},
			{"short dst", 3*n - 1, 3 * n, 3, "len(dst)"},
			{"long dst", 3*n + 1, 3 * n, 3, "len(dst)"},
			{"short r", 8 * n, 8*n - 8, 8, "len(r)"},
			{"long r", n, n + 1, 1, "len(r)"},
		} {
			const sentinel = 9.75
			dst, r := make([]float64, tc.dstLen), make([]float64, tc.rLen)
			for i := range dst {
				dst[i] = sentinel
			}
			err := func() (err error) {
				defer func() { err, _ = recover().(error) }()
				h.ApplyBlock(dst, r, tc.k)
				return nil
			}()
			if !errors.Is(err, graph.ErrInvalidInput) || !strings.Contains(err.Error(), tc.names) {
				t.Errorf("smooth=%d %s: panic %v, want an error wrapping ErrInvalidInput that names %q", smooth, tc.name, err, tc.names)
			}
			for i := range dst {
				if dst[i] != sentinel {
					t.Fatalf("smooth=%d %s: dst[%d] written before the panic", smooth, tc.name, i)
				}
			}
		}
	}
}
