package hierarchy

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"hcd/internal/graph"
	"hcd/internal/kernel"
)

// The cycle's side of the kernel layer: the sweeps between a level's vertices
// and its clusters hand the tile bodies chunks no longer than
// kernel.ChunkRows, and over a level's own restriction tables stay inside
// every operand in both forms. The bodies' own guard-page, chunking and
// bad-operand checks are internal/kernel's.

// TestSweepTileCallsAreChunked: the runtime cannot preempt a goroutine inside
// assembly, so no call into a sweep tile is handed more than
// kernel.ChunkRows(k) rows or clusters — even when a range function gets the
// whole level at once, as the serial path of par.For hands it — and the calls
// cover every row or cluster of every tile exactly once, in either form, with
// the same result.
func TestSweepTileCallsAreChunked(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for _, k := range []int{4, 8, 13, 16} {
		// Clusters of one vertex, so that restrict has as many clusters as
		// the level has rows and is chunked too.
		l := sweepLevel(rng, 3*kernel.ChunkRows(k)+37, []int{1}, true, rng.Float64)
		base := randomApplyArgs(l, k, rng.NormFloat64)
		for _, sw := range applySweeps {
			m := sweepRows(l, sw.clusters)
			var out []*applyArgs
			for _, body := range bodies {
				rows, most, got := 0, 0, base.clone()
				see := func(r int) { rows, most = rows+r, max(most, r) }
				body.run(func() { kernel.ObserveChunks(see, func() { sw.tiled(l, got, 0, m) }) })
				if tiles := k/8 + k%8/4; most > kernel.ChunkRows(k) || rows != tiles*m {
					t.Errorf("%s k=%d %s: the largest call got %d rows (at most %d), all calls %d, want %d tiles × %d", sw.name, k, body.name, most, kernel.ChunkRows(k), rows, tiles, m)
				}
				out = append(out, got)
			}
			if d := diffApply(out[1], out[0]); d != "" {
				t.Fatalf("%s k=%d: %s form against go: %s", sw.name, k, kernel.Name(), d)
			}
		}
	}
}

// fenced copies src to the front of a buffer that continues with canaries,
// and returns the copy — its capacity is its length, so the Go forms' bounds
// checks stop at its end — and a report of whether every canary is intact.
func fenced[T comparable](src []T, canary T) ([]T, func() bool) {
	buf := make([]T, len(src)+16)
	copy(buf, src)
	for i := len(src); i < len(buf); i++ {
		buf[i] = canary
	}
	return buf[:len(src):len(src)], func() bool {
		for _, v := range buf[len(src):] {
			if v != canary {
				return false
			}
		}
		return true
	}
}

// TestSweepTilesStayInsideOperands: with every block, the inverse diagonal and
// the restriction tables fenced — the last vertex in the last cluster and at
// the widths whose last tile ends at the last column, so a row's last load or
// store is the operand's last word — every sweep runs in either form without
// writing past any operand, and the forms leave the same words; and a corrupt
// last entry of order, start or assign panics — under the assembly naming the
// cluster or vertex — before the gather or load that would have left the
// operand.
func TestSweepTilesStayInsideOperands(t *testing.T) {
	const n, canary, idCanary = 300, 1e300, 1 << 30
	rng := rand.New(rand.NewSource(34))
	built := sweepLevel(rng, n, []int{4, 1, 3}, true, func() float64 { return 0.1 + rng.Float64() })
	l := *built
	fences := make([]func() bool, 8)
	l.dInv, fences[0] = fenced(built.dInv, canary)
	l.assign, fences[1] = fenced(built.assign, idCanary)
	l.order, fences[2] = fenced(built.order, idCanary)
	l.start, fences[3] = fenced(built.start, idCanary)
	for _, k := range []int{4, 8, 12, 13} {
		base := randomApplyArgs(&l, k, rng.NormFloat64)
		for _, sw := range applySweeps {
			got, want := base.clone(), base.clone()
			got.x, fences[4] = fenced(base.x, canary)
			got.r, fences[5] = fenced(base.r, canary)
			got.xq, fences[6] = fenced(base.xq, canary)
			got.rq, fences[7] = fenced(base.rq, canary)
			sw.tiled(&l, got, 0, sweepRows(&l, sw.clusters))
			kernel.WithGo(func() { sw.tiled(&l, want, 0, sweepRows(&l, sw.clusters)) })
			if d := diffApply(got, want); d != "" {
				t.Fatalf("%s k=%d: %s form against go: %s", sw.name, k, kernel.Name(), d)
			}
			for f, intact := range fences {
				if !intact() {
					t.Fatalf("%s k=%d: written past operand %d", sw.name, k, f)
				}
			}
		}
		last, lastVertex := l.count-1, n-1
		for _, tc := range []struct {
			name, names string
			sweep       int
			corrupt     func(l *Level)
		}{
			{"member id n", fmt.Sprintf("cluster %d ", last), 2, func(l *Level) { l.order[len(l.order)-1] = n }},
			{"last cluster ends beyond the order", fmt.Sprintf("cluster %d ", last), 2, func(l *Level) { l.start[last+1]++ }},
			{"cluster id count", fmt.Sprintf("vertex %d ", lastVertex), 1, func(l *Level) { l.assign[lastVertex] = int32(l.count) }},
		} {
			bad := l
			bad.order, _ = fenced(l.order, idCanary)
			bad.start, _ = fenced(l.start, idCanary)
			bad.assign, _ = fenced(l.assign, idCanary)
			tc.corrupt(&bad)
			sw, a := applySweeps[tc.sweep], base.clone()
			v := func() (v any) {
				defer func() { v = recover() }()
				sw.tiled(&bad, a, 0, sweepRows(&bad, sw.clusters))
				return nil
			}()
			if v == nil {
				t.Fatalf("%s k=%d, %s: no panic", sw.name, k, tc.name)
			}
			if err, ok := v.(error); kernel.Name() == "avx2" && (!ok || !errors.Is(err, graph.ErrInvalidInput) || !strings.Contains(err.Error(), tc.names)) {
				t.Fatalf("%s k=%d, %s: panic %v, want an error wrapping ErrInvalidInput that names %q", sw.name, k, tc.name, v, tc.names)
			}
		}
	}
}
