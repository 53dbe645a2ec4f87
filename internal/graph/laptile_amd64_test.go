//go:build !race

package graph

import (
	"math/rand"
	"testing"
)

// TestBlockTileCallsAreChunked: the runtime cannot preempt a goroutine inside
// assembly, so no call into the AVX2 tiles is handed more than
// blockRowGrain(k) rows — even when lapMulBlockRange gets the whole graph at
// once, as it does on the serial path — and the calls cover every row of
// every tile exactly once.
func TestBlockTileCallsAreChunked(t *testing.T) {
	if !blockAVX2 {
		t.Skip("the AVX2 tiles are not in use on this host")
	}
	type tileFunc = func(dst, r, x, dInv *float64, omega float64, adj *int32, w *float64, off *int, lo, hi, k, n, nadj int) int
	var rows, most int
	record := func(tile tileFunc) tileFunc {
		return func(dst, r, x, dInv *float64, omega float64, adj *int32, w *float64, off *int, lo, hi, k, n, nadj int) int {
			rows += hi - lo
			most = max(most, hi-lo)
			return tile(dst, r, x, dInv, omega, adj, w, off, lo, hi, k, n, nadj)
		}
	}
	defer func(t8, t4 tileFunc) { lapTile8Asm, lapTile4Asm = t8, t4 }(lapTile8Asm, lapTile4Asm)
	lapTile8Asm, lapTile4Asm = record(lapTile8Asm), record(lapTile4Asm)

	g := blockTestGraph(t, 5000, 15)
	n := g.N()
	rng := rand.New(rand.NewSource(16))
	for _, k := range []int{4, 8, 13, 16, 40} {
		x, dst := make([]float64, n*k), make([]float64, n*k)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		rows, most = 0, 0
		g.lapMulBlockRange(true, dst, nil, x, nil, 0, k, 0, n)
		tiles := k/8 + k%8/4
		if most > blockRowGrain(k) || rows != tiles*n {
			t.Errorf("k=%d: the largest assembly call got %d rows (grain %d), all calls %d rows, want %d tiles × %d", k, most, blockRowGrain(k), rows, tiles, n)
		}
		want := make([]float64, n*k)
		g.lapMulBlockRange(false, want, nil, x, nil, 0, k, 0, n)
		for i := range want {
			if dst[i] != want[i] {
				t.Fatalf("k=%d: entry %d differs from the Go tiles through the recording wrapper", k, i)
			}
		}
	}
}
