//go:build !race

package hierarchy

import (
	"math/rand"
	"testing"

	"hcd/internal/graph"
)

// recordSweepCalls routes every assembly sweep tile through a wrapper that
// appends the rows (clusters, for restrict) each call is handed to the
// returned list, until the test ends.
func recordSweepCalls(t *testing.T) *[]int {
	rows := new([]int)
	r8, r4, p8, p4, j8, j4 := restrict8Asm, restrict4Asm, prolongAdd8Asm, prolongAdd4Asm, jacobiFromZero8Asm, jacobiFromZero4Asm
	t.Cleanup(func() {
		restrict8Asm, restrict4Asm, prolongAdd8Asm, prolongAdd4Asm, jacobiFromZero8Asm, jacobiFromZero4Asm = r8, r4, p8, p4, j8, j4
	})
	restrict := func(tile func(r, rq *float64, order, start *int32, lo, hi, stride, n, norder int) int) func(r, rq *float64, order, start *int32, lo, hi, stride, n, norder int) int {
		return func(r, rq *float64, order, start *int32, lo, hi, stride, n, norder int) int {
			*rows = append(*rows, hi-lo)
			return tile(r, rq, order, start, lo, hi, stride, n, norder)
		}
	}
	prolong := func(tile func(x, xq *float64, alpha float64, assign *int32, n, stride, count int) int) func(x, xq *float64, alpha float64, assign *int32, n, stride, count int) int {
		return func(x, xq *float64, alpha float64, assign *int32, n, stride, count int) int {
			*rows = append(*rows, n)
			return tile(x, xq, alpha, assign, n, stride, count)
		}
	}
	jacobi := func(tile func(x, r, dInv *float64, omega float64, n, stride int)) func(x, r, dInv *float64, omega float64, n, stride int) {
		return func(x, r, dInv *float64, omega float64, n, stride int) {
			*rows = append(*rows, n)
			tile(x, r, dInv, omega, n, stride)
		}
	}
	restrict8Asm, restrict4Asm = restrict(r8), restrict(r4)
	prolongAdd8Asm, prolongAdd4Asm = prolong(p8), prolong(p4)
	jacobiFromZero8Asm, jacobiFromZero4Asm = jacobi(j8), jacobi(j4)
	return rows
}

// TestSweepsRunTheBlockKernel: as the process starts, every sweep's entry
// point runs the assembly tiles exactly when graph.BlockKernel() reports
// "avx2" — one CPUID probe, one name, for the block row kernels and the
// sweeps alike.
func TestSweepsRunTheBlockKernel(t *testing.T) {
	rows := recordSweepCalls(t)
	rng := rand.New(rand.NewSource(32))
	l := sweepLevel(rng, 100, []int{4, 3}, true, rng.Float64)
	base := randomApplyArgs(l, 12, rng.NormFloat64)
	for _, sw := range applySweeps {
		*rows = (*rows)[:0]
		sw.whole(l, base.clone())
		if ran := len(*rows) > 0; ran != (graph.BlockKernel() == "avx2") {
			t.Errorf("%s: the assembly tiles ran: %v; graph.BlockKernel() = %q", sw.name, ran, graph.BlockKernel())
		}
	}
}

// TestSweepTileCallsAreChunked: the runtime cannot preempt a goroutine inside
// assembly, so no call into the sweep tiles is handed more than rowGrain(k)
// rows or clusters — even when a range function gets the whole level at once,
// as the serial path of par.For hands it — and the calls cover every row or
// cluster of every tile exactly once, with the Go tiles' result.
func TestSweepTileCallsAreChunked(t *testing.T) {
	if !graph.BlockAVX2() {
		t.Skip("the AVX2 sweep tiles are not in use on this host")
	}
	rows := recordSweepCalls(t)
	rng := rand.New(rand.NewSource(33))
	for _, k := range []int{4, 8, 13, 16} {
		// Clusters of one vertex, so that restrict has as many clusters as
		// the level has rows and is chunked too.
		l := sweepLevel(rng, 3*rowGrain(k)+37, []int{1}, true, rng.Float64)
		base := randomApplyArgs(l, k, rng.NormFloat64)
		for _, sw := range applySweeps {
			*rows = (*rows)[:0]
			m := sweepRows(l, sw.clusters)
			got, want := base.clone(), base.clone()
			sw.tiled(true, l, got, 0, m)
			sw.tiled(false, l, want, 0, m)
			total, most := 0, 0
			for _, r := range *rows {
				total, most = total+r, max(most, r)
			}
			if tiles := k/8 + k%8/4; most > rowGrain(k) || total != tiles*m {
				t.Errorf("%s k=%d: the largest assembly call got %d rows (grain %d), all calls %d, want %d tiles × %d", sw.name, k, most, rowGrain(k), total, tiles, m)
			}
			if d := diffApply(got, want); d != "" {
				t.Fatalf("%s k=%d: through the recording wrapper: %s", sw.name, k, d)
			}
		}
	}
}
