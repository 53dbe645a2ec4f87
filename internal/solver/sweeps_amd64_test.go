//go:build !race

package solver

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"hcd/internal/graph"
)

// recordSweepCalls routes every assembly sweep tile through a wrapper that
// appends the rows each call is handed to the returned list, until the test
// ends.
func recordSweepCalls(t *testing.T) *[]int {
	rows := new([]int)
	d8, d4, s8, s4, u8, u4, x8, x4 := dots8Asm, dots4Asm, subMeanDot8Asm, subMeanDot4Asm, updateXRSums8Asm, updateXRSums4Asm, xpby8Asm, xpby4Asm
	t.Cleanup(func() {
		dots8Asm, dots4Asm, subMeanDot8Asm, subMeanDot4Asm = d8, d4, s8, s4
		updateXRSums8Asm, updateXRSums4Asm, xpby8Asm, xpby4Asm = u8, u4, x8, x4
	})
	dots := func(tile func(a, b, acc *float64, n, stride int)) func(a, b, acc *float64, n, stride int) {
		return func(a, b, acc *float64, n, stride int) { *rows = append(*rows, n); tile(a, b, acc, n, stride) }
	}
	subMean := func(tile func(z, r, mean, acc *float64, n, stride int)) func(z, r, mean, acc *float64, n, stride int) {
		return func(z, r, mean, acc *float64, n, stride int) {
			*rows = append(*rows, n)
			tile(z, r, mean, acc, n, stride)
		}
	}
	update := func(tile func(x, r, p, ap, alpha, acc *float64, n, stride int)) func(x, r, p, ap, alpha, acc *float64, n, stride int) {
		return func(x, r, p, ap, alpha, acc *float64, n, stride int) {
			*rows = append(*rows, n)
			tile(x, r, p, ap, alpha, acc, n, stride)
		}
	}
	xpby := func(tile func(p, z, beta *float64, n, stride int)) func(p, z, beta *float64, n, stride int) {
		return func(p, z, beta *float64, n, stride int) { *rows = append(*rows, n); tile(p, z, beta, n, stride) }
	}
	dots8Asm, dots4Asm, subMeanDot8Asm, subMeanDot4Asm = dots(d8), dots(d4), subMean(s8), subMean(s4)
	updateXRSums8Asm, updateXRSums4Asm, xpby8Asm, xpby4Asm = update(u8), update(u4), xpby(x8), xpby(x4)
	return rows
}

// TestSweepsRunTheBlockKernel: as the process starts, every sweep's entry
// point runs the assembly tiles exactly when graph.BlockKernel() reports
// "avx2" — one CPUID probe, one name, for the block row kernels and the
// sweeps alike.
func TestSweepsRunTheBlockKernel(t *testing.T) {
	rows := recordSweepCalls(t)
	const n, k = 100, 12
	base := randomSweepArgs(rand.New(rand.NewSource(30)), n, k, false)
	for _, sw := range blockSweeps {
		*rows = (*rows)[:0]
		var s scratch
		sw.whole(&s, base.clone(), n)
		if ran := len(*rows) > 0; ran != (graph.BlockKernel() == "avx2") {
			t.Errorf("%s: the assembly tiles ran: %v; graph.BlockKernel() = %q", sw.name, ran, graph.BlockKernel())
		}
	}
}

// TestSweepTileCallsAreChunked: the runtime cannot preempt a goroutine inside
// assembly, so no call into the sweep tiles is handed more than blockGrain(k)
// rows — even when a range function gets the whole block at once, as
// blockXPBY's serial path hands it — and the calls cover every row of every
// tile exactly once, with the Go tiles' result.
func TestSweepTileCallsAreChunked(t *testing.T) {
	if !graph.BlockAVX2() {
		t.Skip("the AVX2 sweep tiles are not in use on this host")
	}
	rows := recordSweepCalls(t)
	rng := rand.New(rand.NewSource(31))
	for _, k := range []int{4, 8, 13, 16} {
		n := 3*blockGrain(k) + 37
		base := randomSweepArgs(rng, n, k, false)
		for _, sw := range blockSweeps {
			*rows = (*rows)[:0]
			got, want := base.clone(), base.clone()
			sw.tiled(true, got)
			sw.tiled(false, want)
			total, most := 0, 0
			for _, r := range *rows {
				total, most = total+r, max(most, r)
			}
			if tiles := k/8 + k%8/4; most > blockGrain(k) || total != tiles*n {
				t.Errorf("%s k=%d: the largest assembly call got %d rows (grain %d), all calls %d rows, want %d tiles × %d", sw.name, k, most, blockGrain(k), total, tiles, n)
			}
			if d := diffSweep(got, want); d != "" {
				t.Fatalf("%s k=%d: through the recording wrapper: %s", sw.name, k, d)
			}
		}
	}
}

// TestSweepTilesRejectBadOperands: handed a block, coefficient vector or
// accumulator one entry short, an assembly sweep tile panics with an error
// wrapping graph.ErrInvalidInput that names the operand, before it stores
// anything.
func TestSweepTilesRejectBadOperands(t *testing.T) {
	if !graph.BlockAVX2() {
		t.Skip("the AVX2 sweep tiles are not in use on this host")
	}
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
	for _, sw := range blockSweeps {
		for _, op := range operands[sw.name] {
			args := base.clone()
			field := map[string]*[]float64{"x": &args.x, "r": &args.r, "p": &args.p, "ap": &args.ap, "coef": &args.coef, "acc": &args.acc}[op[0]]
			*field = (*field)[:len(*field)-1]
			what := fmt.Sprintf("%s with len(%s) one short", sw.name, op[1])
			err := func() (err error) {
				defer func() { err, _ = recover().(error) }()
				sw.tiled(true, args)
				return nil
			}()
			if !errors.Is(err, graph.ErrInvalidInput) || !strings.Contains(err.Error(), "len("+op[1]+")") {
				t.Errorf("%s: panic %v, want an error wrapping ErrInvalidInput that names the operand", what, err)
			}
			*field = (*field)[:len(*field)+1]
			if d := diffSweep(args, base); d != "" {
				t.Errorf("%s: written before the panic: %s", what, d)
			}
		}
	}
}
