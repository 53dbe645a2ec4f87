package solver

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"hcd/internal/kernel"
	"hcd/internal/par"
)

// sweepArgs are the operands of one level-1 block sweep over rows [lo, hi) of
// width-k blocks: four packed blocks, the per-column coefficients (α, β or the
// means) and the reduction's per-column accumulators.
type sweepArgs struct {
	x, r, p, ap []float64
	coef, acc   []float64
	k, lo, hi   int
}

func (a *sweepArgs) clone() *sweepArgs {
	c := *a
	for _, f := range []*[]float64{&c.x, &c.r, &c.p, &c.ap, &c.coef, &c.acc} {
		*f = append([]float64(nil), *f...)
	}
	return &c
}

// blockSweeps lists the kernels of blockkernels.go three ways: tiled is the
// row-range body the solver runs (8-wide tiles, 4-wide tile, the width-1 loop
// on each column left); loop is the width-1 loop on every column — the whole
// sweep at k = 1, and the reference both forms of the tiles are held to;
// whole is the kernel's entry point over rows [0, n).
var blockSweeps = []struct {
	name  string
	tiled func(a *sweepArgs)
	loop  func(a *sweepArgs)
	whole func(s *scratch, a *sweepArgs, n int)
}{
	{"dots",
		func(a *sweepArgs) { blockDotsRange(a.x, a.r, a.k, a.lo, a.hi, a.acc) },
		func(a *sweepArgs) {
			eachColumn(a, func(j int) { a.acc[j] = dotsCol(a.x, a.r, a.k, j, a.lo, a.hi, a.acc[j]) })
		},
		func(s *scratch, a *sweepArgs, n int) { s.blockDots(a.x, a.r, n, a.k, a.acc) }},
	{"normSq",
		func(a *sweepArgs) { blockDotsRange(a.x, a.x, a.k, a.lo, a.hi, a.acc) },
		func(a *sweepArgs) {
			eachColumn(a, func(j int) { a.acc[j] = dotsCol(a.x, a.x, a.k, j, a.lo, a.hi, a.acc[j]) })
		},
		func(s *scratch, a *sweepArgs, n int) { s.blockNormSq(a.x, n, a.k, a.acc) }},
	{"colSums",
		func(a *sweepArgs) { blockDotsRange(a.x, nil, a.k, a.lo, a.hi, a.acc) },
		func(a *sweepArgs) {
			eachColumn(a, func(j int) { a.acc[j] = dotsCol(a.x, nil, a.k, j, a.lo, a.hi, a.acc[j]) })
		},
		func(s *scratch, a *sweepArgs, n int) { s.blockColSums(a.x, n, a.k, a.acc) }},
	{"subMeanDot",
		func(a *sweepArgs) { blockSubMeanDotRange(a.x, a.r, a.coef, a.k, a.lo, a.hi, a.acc) },
		func(a *sweepArgs) {
			eachColumn(a, func(j int) { a.acc[j] = subMeanDotCol(a.x, a.r, a.coef[j], a.k, j, a.lo, a.hi, a.acc[j]) })
		},
		func(s *scratch, a *sweepArgs, n int) { s.blockSubMeanDot(a.x, a.r, n, a.k, a.coef, a.acc) }},
	{"subMeanNormSq",
		func(a *sweepArgs) { blockSubMeanDotRange(a.x, a.x, a.coef, a.k, a.lo, a.hi, a.acc) },
		func(a *sweepArgs) {
			eachColumn(a, func(j int) { a.acc[j] = subMeanDotCol(a.x, a.x, a.coef[j], a.k, j, a.lo, a.hi, a.acc[j]) })
		},
		func(s *scratch, a *sweepArgs, n int) { s.blockSubMeanDot(a.x, a.x, n, a.k, a.coef, a.acc) }},
	{"updateXRSums",
		func(a *sweepArgs) { blockUpdateXRSumsRange(a.x, a.r, a.p, a.ap, a.coef, a.k, a.lo, a.hi, a.acc) },
		func(a *sweepArgs) {
			eachColumn(a, func(j int) {
				a.acc[j] = updateXRSumsCol(a.x, a.r, a.p, a.ap, a.coef[j], a.k, j, a.lo, a.hi, a.acc[j])
			})
		},
		func(s *scratch, a *sweepArgs, n int) { s.blockUpdateXRSums(a.x, a.r, a.p, a.ap, a.coef, n, a.k, a.acc) }},
	{"xpby",
		func(a *sweepArgs) { xpbySweep{a.x, a.r, a.coef, a.k}.Range(a.lo, a.hi) },
		func(a *sweepArgs) { eachColumn(a, func(j int) { xpbyCol(a.x, a.r, a.coef[j], a.k, j, a.lo, a.hi) }) },
		func(_ *scratch, a *sweepArgs, n int) {
			par.For(n, kernel.ChunkRows(a.k), xpbySweep{a.x, a.r, a.coef, a.k})
		}},
}

// eachColumn runs col on every column of a's blocks in turn.
func eachColumn(a *sweepArgs, col func(j int)) {
	for j := 0; j < a.k; j++ {
		col(j)
	}
}

// bodies are the two forms of the kernel bodies: Go, and whichever this
// process runs.
var bodies = []struct {
	name string
	run  func(func())
}{{"go", kernel.WithGo}, {kernel.Name(), func(f func()) { f() }}}

// newSweepArgs fills operands for n rows of width k over rows [lo, hi) from
// draw: the four blocks, then the coefficients, then the accumulators — which
// therefore start non-zero: a body adds to what it finds.
func newSweepArgs(n, k, lo, hi int, draw func() float64) *sweepArgs {
	a := &sweepArgs{k: k, lo: lo, hi: hi}
	for _, f := range []struct {
		dst *[]float64
		len int
	}{{&a.x, n * k}, {&a.r, n * k}, {&a.p, n * k}, {&a.ap, n * k}, {&a.coef, k}, {&a.acc, k}} {
		*f.dst = make([]float64, f.len)
		for i := range *f.dst {
			(*f.dst)[i] = draw()
		}
	}
	return a
}

// randomSweepArgs draws normal deviates for all n rows; with special set,
// every fifth value — coefficients and starting accumulators included — comes
// from kernel.Specials.
func randomSweepArgs(rng *rand.Rand, n, k int, special bool) *sweepArgs {
	return newSweepArgs(n, k, 0, n, func() float64 {
		if special && rng.Intn(5) == 0 {
			return kernel.Specials[rng.Intn(len(kernel.Specials))]
		}
		return rng.NormFloat64()
	})
}

// diffSweep returns the first word in which the two operand sets differ.
func diffSweep(got, want *sweepArgs) string {
	names := []string{"x", "r", "p", "ap", "coef", "acc"}
	for f, pair := range [][2][]float64{{got.x, want.x}, {got.r, want.r}, {got.p, want.p}, {got.ap, want.ap}, {got.coef, want.coef}, {got.acc, want.acc}} {
		for i := range pair[1] {
			if !kernel.SameWord(pair[0][i], pair[1][i]) {
				return fmt.Sprintf("%s[%d] (row %d, column %d): tiled %v (%#x), width-1 loop %v (%#x)", names[f], i, i/want.k, i%want.k,
					pair[0][i], math.Float64bits(pair[0][i]), pair[1][i], math.Float64bits(pair[1][i]))
			}
		}
	}
	return ""
}

var sweepWidths = []int{1, 2, 3, 4, 5, 7, 8, 11, 12, 13, 16, 17}

// TestBlockSweepTilesMatchReference: every tiled sweep leaves the words its
// width-1 loop leaves on every column — reductions and the blocks it updates in place —
// with either form of its tiles, at widths that combine the tiles every way,
// on row counts below, at and above one elementwise chunk (at k = 2 the
// longest spans two reduction chunks), through the kernel's
// entry point and through either body under the same chunking (combined in
// chunk order), and on row ranges that start and end mid-block, where every
// row outside the range keeps its sentinel; ordinary and special values.
func TestBlockSweepTilesMatchReference(t *testing.T) {
	const sentinel = 12345.678
	rng := rand.New(rand.NewSource(26))
	byChunk := func(n int, a *sweepArgs, body func(a *sweepArgs)) {
		zero(a.acc)
		for lo := 0; lo < n; lo += kernelGrain {
			chunk := *a
			chunk.lo, chunk.hi, chunk.acc = lo, min(lo+kernelGrain, n), make([]float64, a.k)
			body(&chunk)
			for j, p := range chunk.acc {
				a.acc[j] += p
			}
		}
	}
	for _, k := range sweepWidths {
		for _, special := range []bool{false, true} {
			// The entry point and both bodies against the loop under the
			// same chunking.
			grain := kernel.ChunkRows(k)
			for _, n := range []int{1, 37, grain - 1, grain, grain + 1, 2*grain + 37} {
				base := randomSweepArgs(rng, n, k, special)
				for _, sw := range blockSweeps {
					want := base.clone()
					byChunk(n, want, sw.loop)
					got := base.clone()
					zero(got.acc) // reduceRows zeroes want's; xpby has none to zero
					var s scratch
					sw.whole(&s, got, n)
					if d := diffSweep(got, want); d != "" {
						t.Fatalf("%s entry point k=%d n=%d special=%v: %s", sw.name, k, n, special, d)
					}
					for _, body := range bodies {
						got := base.clone()
						body.run(func() { byChunk(n, got, sw.tiled) })
						if d := diffSweep(got, want); d != "" {
							t.Fatalf("%s %s tiles k=%d n=%d special=%v: %s", sw.name, body.name, k, n, special, d)
						}
					}
				}
			}
			// The row-range body on top of whatever the accumulators hold.
			const n = 101
			for _, rg := range [][2]int{{0, n}, {n / 3, n/3 + 1}, {n / 2, n / 2}, {7, n - 5}} {
				base := randomSweepArgs(rng, n, k, special)
				base.lo, base.hi = rg[0], rg[1]
				outside := func(i int) bool { return i/k < rg[0] || i/k >= rg[1] }
				for _, f := range [][]float64{base.x, base.r, base.p, base.ap} {
					for i := range f {
						if outside(i) {
							f[i] = sentinel
						}
					}
				}
				for _, sw := range blockSweeps {
					want := base.clone()
					sw.loop(want)
					for _, body := range bodies {
						got := base.clone()
						body.run(func() { sw.tiled(got) })
						if d := diffSweep(got, want); d != "" {
							t.Fatalf("%s %s tiles k=%d special=%v rows [%d,%d): %s", sw.name, body.name, k, special, rg[0], rg[1], d)
						}
						for _, f := range [][]float64{got.x, got.r, got.p, got.ap} {
							for i := range f {
								if outside(i) && f[i] != sentinel {
									t.Fatalf("%s %s tiles k=%d rows [%d,%d): row %d outside the range was written", sw.name, body.name, k, rg[0], rg[1], i/k)
								}
							}
						}
					}
				}
			}
		}
	}
}

// column returns column j of the packed width-k block b as a vector.
func column(b []float64, k, j int) []float64 {
	c := make([]float64, len(b)/k)
	for v := range c {
		c[v] = b[v*k+j]
	}
	return c
}

// TestBlockReductionWidthInvariant: every reduction of a width-k block sums
// column j as the plain loop over that column alone sums it over the
// kernelGrain partition, combined in chunk order (chunked) — and every sweep
// leaves column j as the plain loop leaves it, bit for bit: on row counts
// that span two and three chunks, at widths that take every tile shape, at
// one worker and at two, with either form of the tiles.
func TestBlockReductionWidthInvariant(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	rng := rand.New(rand.NewSource(27))
	for _, n := range []int{kernelGrain + 1, 2*kernelGrain + 37} {
		for _, k := range []int{1, 3, 5, 8, 12} {
			base := randomSweepArgs(rng, n, k, false)
			// What each plain loop returns and leaves for column j alone.
			type solo struct {
				dot, sum, shiftDot, updateXR float64
				z, x, r, p                   []float64
			}
			want := make([]solo, k)
			for j := range want {
				w, x, r, c := &want[j], column(base.x, k, j), column(base.r, k, j), base.coef[j]
				w.dot, w.sum = dot(x, r), sum(x)
				w.z = append([]float64(nil), x...)
				w.shiftDot = chunked(n, func(i int) float64 {
					w.z[i] -= c
					return r[i] * w.z[i]
				})
				w.x, w.r = append([]float64(nil), x...), append([]float64(nil), r...)
				p, ap := column(base.p, k, j), column(base.ap, k, j)
				w.updateXR = chunked(n, func(i int) float64 {
					w.x[i] += c * p[i]
					w.r[i] -= c * ap[i]
					return w.r[i]
				})
				w.p = p
				xpby(w.p, r, c)
			}
			for _, procs := range []int{1, 2} {
				runtime.GOMAXPROCS(procs)
				for _, body := range bodies {
					what := fmt.Sprintf("%s n=%d k=%d procs=%d", body.name, n, k, procs)
					sums := func(name string, out []float64, pick func(*solo) float64) {
						t.Helper()
						for j := range want {
							if w := pick(&want[j]); out[j] != w {
								t.Fatalf("%s %s column %d: block %v, the column alone %v", what, name, j, out[j], w)
							}
						}
					}
					block := func(name string, b []float64, pick func(*solo) []float64) {
						t.Helper()
						for j := range want {
							for v, w := range pick(&want[j]) {
								if b[v*k+j] != w {
									t.Fatalf("%s %s column %d row %d: block %v, the column alone %v", what, name, j, v, b[v*k+j], w)
								}
							}
						}
					}
					var s scratch
					a, out := base.clone(), make([]float64, k)
					body.run(func() { s.blockDots(a.x, a.r, n, k, out) })
					sums("dots", out, func(w *solo) float64 { return w.dot })
					body.run(func() { s.blockColSums(a.x, n, k, out) })
					sums("colSums", out, func(w *solo) float64 { return w.sum })
					body.run(func() { s.blockSubMeanDot(a.x, a.r, n, k, a.coef, out) })
					sums("subMeanDot", out, func(w *solo) float64 { return w.shiftDot })
					block("subMeanDot z", a.x, func(w *solo) []float64 { return w.z })
					a = base.clone()
					body.run(func() { s.blockUpdateXRSums(a.x, a.r, a.p, a.ap, a.coef, n, k, out) })
					sums("updateXRSums", out, func(w *solo) float64 { return w.updateXR })
					block("updateXRSums x", a.x, func(w *solo) []float64 { return w.x })
					block("updateXRSums r", a.r, func(w *solo) []float64 { return w.r })
					body.run(func() { par.For(n, kernel.ChunkRows(k), xpbySweep{a.p, base.r, a.coef, k}) })
					block("xpby p", a.p, func(w *solo) []float64 { return w.p })
				}
			}
		}
	}
}

// FuzzBlockSweeps holds every tiled sweep, with either form of its tiles, to
// its width-1 loop on every column, on operands, width, row count and row range decoded from
// the fuzzer's bytes.
func FuzzBlockSweeps(f *testing.F) {
	f.Add([]byte{6, 20, 0, 20, 1, 2, 250, 3, 130, 7})
	f.Add([]byte{11, 63, 5, 40, 255, 0, 241, 100, 9})
	f.Add([]byte{2, 1, 0, 1})
	f.Add([]byte{15, 33, 30, 3, 120, 245, 121})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		// Bytes 0–3: width in [2, 24], row count in [1, 96], row range; the
		// rest seeds the operands.
		k := 2 + int(data[0])%23
		n := 1 + int(data[1])%96
		lo := int(data[2]) % (n + 1)
		hi := lo + int(data[3])%(n+1-lo)
		data = data[4:]
		i := 0
		base := newSweepArgs(n, k, lo, hi, func() float64 {
			i++
			if len(data) == 0 {
				return float64(i%7) - 3
			}
			b := data[i%len(data)]
			if b >= 240 {
				return kernel.Specials[int(b)%len(kernel.Specials)]
			}
			return (float64(b) - 120) * float64(1+i%5) / 16
		})
		for _, sw := range blockSweeps {
			want := base.clone()
			sw.loop(want)
			for _, body := range bodies {
				got := base.clone()
				body.run(func() { sw.tiled(got) })
				if d := diffSweep(got, want); d != "" {
					t.Fatalf("%s %s tiles k=%d n=%d rows [%d,%d): %s", sw.name, body.name, k, n, lo, hi, d)
				}
			}
		}
	})
}

// TestSweepTilesRejectBadOperands: handed a block, coefficient vector or
// accumulator one entry short, a sweep panics with an error wrapping
// kernel.ErrInvalidInput that names the operand, before it stores anything —
// under either form of its tiles.
func TestSweepTilesRejectBadOperands(t *testing.T) {
	// Which field of sweepArgs each sweep hands over as which operand.
	operands := map[string][][2]string{
		"dots":          {{"x", "a"}, {"r", "b"}, {"acc", "acc"}},
		"normSq":        {{"x", "a"}, {"acc", "acc"}},
		"colSums":       {{"x", "a"}, {"acc", "acc"}},
		"subMeanDot":    {{"x", "z"}, {"r", "r"}, {"coef", "mean"}, {"acc", "acc"}},
		"subMeanNormSq": {{"x", "z"}, {"coef", "mean"}, {"acc", "acc"}},
		"updateXRSums":  {{"x", "x"}, {"r", "r"}, {"p", "p"}, {"ap", "ap"}, {"coef", "alpha"}, {"acc", "acc"}},
		"xpby":          {{"x", "p"}, {"r", "z"}, {"coef", "beta"}},
	}
	const n, k = 50, 8
	base := randomSweepArgs(rand.New(rand.NewSource(32)), n, k, false)
	for _, body := range bodies {
		for _, sw := range blockSweeps {
			for _, op := range operands[sw.name] {
				args := base.clone()
				field := map[string]*[]float64{"x": &args.x, "r": &args.r, "p": &args.p, "ap": &args.ap, "coef": &args.coef, "acc": &args.acc}[op[0]]
				*field = (*field)[:len(*field)-1]
				what := fmt.Sprintf("%s %s with len(%s) one short", body.name, sw.name, op[1])
				err := func() (err error) {
					defer func() { err, _ = recover().(error) }()
					body.run(func() { sw.tiled(args) })
					return nil
				}()
				if !errors.Is(err, kernel.ErrInvalidInput) || !strings.Contains(err.Error(), "len("+op[1]+")") {
					t.Errorf("%s: panic %v, want an error wrapping ErrInvalidInput that names the operand", what, err)
				}
				*field = (*field)[:len(*field)+1]
				if d := diffSweep(args, base); d != "" {
					t.Errorf("%s: written before the panic: %s", what, d)
				}
			}
		}
	}
}
