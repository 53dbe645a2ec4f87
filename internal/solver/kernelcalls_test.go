package solver

import (
	"math/rand"
	"testing"

	"hcd/internal/kernel"
)

// The solver's side of the kernel layer: the level-1 sweeps hand the tile
// bodies chunks no longer than kernel.ChunkRows, and stay inside every
// operand in both forms. The bodies' own guard-page, chunking and bad-operand
// checks are internal/kernel's.

// TestSweepTileCallsAreChunked: the runtime cannot preempt a goroutine inside
// assembly, so no call into a sweep tile is handed more than
// kernel.ChunkRows(k) rows — even when a range function gets the whole block
// at once, as par.For's serial path hands it — and the calls cover every row
// of every tile exactly once, in either form, with the same result.
func TestSweepTileCallsAreChunked(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, k := range []int{4, 8, 13, 16} {
		n := 3*kernel.ChunkRows(k) + 37
		base := randomSweepArgs(rng, n, k, false)
		for _, sw := range blockSweeps {
			var out []*sweepArgs
			for _, body := range bodies {
				rows, most, got := 0, 0, base.clone()
				see := func(r int) { rows, most = rows+r, max(most, r) }
				body.run(func() { kernel.ObserveChunks(see, func() { sw.tiled(got) }) })
				if tiles := k/8 + k%8/4; most > kernel.ChunkRows(k) || rows != tiles*n {
					t.Errorf("%s k=%d %s: the largest call got %d rows (at most %d), all calls %d rows, want %d tiles × %d", sw.name, k, body.name, most, kernel.ChunkRows(k), rows, tiles, n)
				}
				out = append(out, got)
			}
			if d := diffSweep(out[1], out[0]); d != "" {
				t.Fatalf("%s k=%d: %s form against go: %s", sw.name, k, kernel.Name(), d)
			}
		}
	}
}

// TestSweepTilesStayInsideOperands: with every block, coefficient vector and
// accumulator fenced — its capacity its length, canaries after it — at widths
// whose last tile ends at the last column, so a row's last load or store is
// the operand's last word, every sweep runs in either form without writing
// past any operand, and the forms leave the same words.
func TestSweepTilesStayInsideOperands(t *testing.T) {
	const n, canary = 300, 1e300
	for _, k := range []int{4, 8, 12, 13} {
		base := newSweepArgs(n, k, 0, n, func() float64 { return 0 })
		for i := range base.x {
			base.x[i], base.r[i], base.p[i], base.ap[i] = float64(i%17)-8, float64(i%5), float64(i%7)-3, float64(i%3)
		}
		for j := range base.coef {
			base.coef[j], base.acc[j] = 0.25*float64(j+1), float64(j)
		}
		for _, sw := range blockSweeps {
			got := base.clone()
			var bufs [][]float64
			for _, f := range []*[]float64{&got.x, &got.r, &got.p, &got.ap, &got.coef, &got.acc} {
				buf := append(*f, canary, canary, canary, canary, canary, canary, canary, canary)
				*f, bufs = buf[:len(*f):len(*f)], append(bufs, buf)
			}
			want := base.clone()
			sw.tiled(got)
			kernel.WithGo(func() { sw.tiled(want) })
			if d := diffSweep(got, want); d != "" {
				t.Fatalf("%s k=%d: %s form against go: %s", sw.name, k, kernel.Name(), d)
			}
			for f, buf := range bufs {
				for i := len(buf) - 8; i < len(buf); i++ {
					if buf[i] != canary {
						t.Fatalf("%s k=%d: written %d words past operand %d", sw.name, k, i-len(buf)+9, f)
					}
				}
			}
		}
	}
}
