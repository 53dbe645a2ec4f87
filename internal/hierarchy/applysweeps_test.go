package hierarchy

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"hcd/internal/graph"
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

func (a *applyArgs) clone() *applyArgs {
	c := *a
	for _, f := range []*[]float64{&c.x, &c.r, &c.xq, &c.rq} {
		*f = append([]float64(nil), *f...)
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

// applySweeps lists the tiled k > 1 sweeps of apply.go (all but steinerSum,
// which has only its any-width loop) three ways, like the solver's
// blockSweeps: tiled is the range body the cycle runs, loop its any-width loop
// from column 0 (the tail, and the reference), whole the sweep's entry point.
// restrict ranges over clusters and writes rq; the others range over vertices
// and write x. bytes is what one block entry costs in loads and stores of
// block entries (the gathered cluster rows are counted once per vertex).
var applySweeps = []struct {
	name     string
	bytes    float64
	clusters bool
	tiled    func(l *Level, a *applyArgs, lo, hi int)
	loop     func(l *Level, a *applyArgs, lo, hi int)
	whole    func(l *Level, a *applyArgs)
}{
	{"jacobiFromZero", 16, false,
		func(l *Level, a *applyArgs, lo, hi int) { l.jacobiFromZeroRange(a.x, a.r, jacobiOmega, a.k, lo, hi) },
		func(l *Level, a *applyArgs, lo, hi int) { l.jacobiFromZeroTail(a.x, a.r, jacobiOmega, a.k, 0, lo, hi) },
		func(l *Level, a *applyArgs) { l.jacobiFromZero(a.x, a.r, jacobiOmega, a.k) }},
	{"prolongAdd", 24, false,
		func(l *Level, a *applyArgs, lo, hi int) { l.prolongAddRange(a.x, a.xq, l.alpha, a.k, lo, hi) },
		func(l *Level, a *applyArgs, lo, hi int) { l.prolongAddTail(a.x, a.xq, l.alpha, a.k, 0, lo, hi) },
		func(l *Level, a *applyArgs) { l.prolongAdd(a.x, a.xq, a.k) }},
	{"restrict", 8, true,
		func(l *Level, a *applyArgs, lo, hi int) { l.restrictRange(a.r, a.rq, a.k, lo, hi) },
		func(l *Level, a *applyArgs, lo, hi int) { l.restrictTail(a.r, a.rq, a.k, 0, lo, hi) },
		func(l *Level, a *applyArgs) { l.restrict(a.r, a.rq, a.k) }},
}

// sameWord compares by bit pattern, any NaN matching any NaN.
func sameWord(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
}

func diffApply(got, want *applyArgs) string {
	names := []string{"x", "r", "xq", "rq"}
	for f, pair := range [][2][]float64{{got.x, want.x}, {got.r, want.r}, {got.xq, want.xq}, {got.rq, want.rq}} {
		for i := range pair[1] {
			if !sameWord(pair[0][i], pair[1][i]) {
				return fmt.Sprintf("%s[%d] (row %d, column %d): tiled %v (%#x), any-width loop %v (%#x)", names[f], i, i/want.k, i%want.k,
					pair[0][i], math.Float64bits(pair[0][i]), pair[1][i], math.Float64bits(pair[1][i]))
			}
		}
	}
	return ""
}

// TestApplySweepTilesMatchReference: every tiled sweep of the cycle leaves the
// words its any-width loop leaves, at widths that combine the tiles every way,
// on levels below, at and above one parallel chunk whose clusters run from
// single vertices to many times SizeCap, through the sweep's entry point and on
// ranges that start and end mid-level, where rows (clusters, for restrict)
// outside the range keep their sentinel; ordinary and special values, in the
// inverse diagonal too.
func TestApplySweepTilesMatchReference(t *testing.T) {
	const sentinel = 12345.678
	specials := []float64{
		0, math.Copysign(0, -1), 5e-324, -5e-324, 1e-310, math.SmallestNonzeroFloat64 * (1 << 20),
		math.MaxFloat64, -math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN(),
	}
	sizes := []int{1, 1, 3, 40, 2, 1, 300, 4}
	rng := rand.New(rand.NewSource(26))
	for _, k := range []int{2, 3, 4, 5, 7, 8, 11, 12, 13, 16, 17} {
		grain := rowGrain(k)
		for _, special := range []bool{false, true} {
			draw := func() float64 {
				if special && rng.Intn(5) == 0 {
					return specials[rng.Intn(len(specials))]
				}
				return rng.NormFloat64()
			}
			rows := func(l *Level, clusters bool) int {
				if clusters {
					return l.count
				}
				return l.g.N()
			}
			// The entry point against the loop over the whole level.
			for _, n := range []int{1, 37, grain - 1, grain, grain + 1, 2*grain + 37} {
				l := sweepLevel(rng, n, sizes, true, draw)
				base := randomApplyArgs(l, k, draw)
				for _, sw := range applySweeps {
					got, want := base.clone(), base.clone()
					sw.whole(l, got)
					sw.loop(l, want, 0, rows(l, sw.clusters))
					if d := diffApply(got, want); d != "" {
						t.Fatalf("%s k=%d n=%d special=%v: %s", sw.name, k, n, special, d)
					}
				}
			}
			// The range body mid-level: what lies outside keeps its sentinel.
			l := sweepLevel(rng, 101, sizes, true, draw)
			base := randomApplyArgs(l, k, draw)
			for _, sw := range applySweeps {
				m := rows(l, sw.clusters)
				for _, rg := range [][2]int{{0, m}, {m / 3, m/3 + 1}, {m / 2, m / 2}, {1, m - 1}} {
					got := base.clone()
					out := got.x
					if sw.clusters {
						out = got.rq
					}
					outside := func(i int) bool { return i/k < rg[0] || i/k >= rg[1] }
					for i := range out {
						if outside(i) {
							out[i] = sentinel
						}
					}
					want := got.clone()
					sw.tiled(l, got, rg[0], rg[1])
					sw.loop(l, want, rg[0], rg[1])
					if d := diffApply(got, want); d != "" {
						t.Fatalf("%s k=%d special=%v range [%d,%d): %s", sw.name, k, special, rg[0], rg[1], d)
					}
					for i := range out {
						if outside(i) && out[i] != sentinel {
							t.Fatalf("%s k=%d range [%d,%d): row %d outside the range was written", sw.name, k, rg[0], rg[1], i/k)
						}
					}
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
		opt.Smooth, opt.DirectLimit = smooth, 20
		h, err := New(g, opt)
		if err != nil {
			t.Fatal(err)
		}
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

// BenchmarkApplySweeps times each sweep's tiled body against its any-width
// loop on one goroutine, at the widths with a full tile, on a level that stays
// in L2 (4096 vertices, the judged size) and one that does not, clusters of up
// to SizeCap neighbouring vertices as the stored layout has them. ns/elem is
// per entry of the vertex block; GB/s counts the sweep's loads and stores of
// block entries.
func BenchmarkApplySweeps(b *testing.B) {
	rng := rand.New(rand.NewSource(27))
	for _, n := range []int{4096, 262144} {
		l := sweepLevel(rng, n, []int{4, 3, 4, 2, 4, 4, 1, 4}, false, func() float64 { return 0.1 + rng.Float64() })
		for _, k := range []int{4, 8} {
			args := randomApplyArgs(l, k, rng.NormFloat64)
			for i := range args.xq {
				args.xq[i] *= 1e-3 // repeated prolongations stay finite
			}
			for _, sw := range applySweeps {
				rows := n
				if sw.clusters {
					rows = l.count
				}
				for _, body := range []struct {
					name string
					fn   func(l *Level, a *applyArgs, lo, hi int)
				}{{"tiled", sw.tiled}, {"loop", sw.loop}} {
					b.Run(fmt.Sprintf("%s/n=%d/k=%d/%s", sw.name, n, k, body.name), func(b *testing.B) {
						for i := 0; i < b.N; i++ {
							body.fn(l, args, 0, rows)
						}
						perElem := float64(b.Elapsed().Nanoseconds()) / (float64(b.N) * float64(n*k))
						b.ReportMetric(perElem, "ns/elem")
						b.ReportMetric(sw.bytes/perElem, "GB/s")
					})
				}
			}
		}
	}
}
