//go:build !race

package graph

import (
	"math/rand"
	"testing"
)

// TestRowGroupCallsAreChunked: the runtime cannot preempt a goroutine inside
// assembly, so no call into the row-group kernel is handed more than rowGrain
// rows — even when lapRange gets a whole regular graph, one group, at once,
// as it does on the serial path — every call is a multiple of four rows, and
// together the calls cover every grouped row of the range exactly once.
func TestRowGroupCallsAreChunked(t *testing.T) {
	if !rowAVX2 {
		t.Skip("the AVX2 row-group kernel is not in use on this host")
	}
	var rows, most, calls int
	defer func(asm func(dst, r, x, dInv *float64, omega float64, adj *int32, w *float64, lo, hi, d, n int) int) {
		lapRows4Asm = asm
	}(lapRows4Asm)
	asm := lapRows4Asm
	lapRows4Asm = func(dst, r, x, dInv *float64, omega float64, adj *int32, w *float64, lo, hi, d, n int) int {
		if (hi-lo)%4 != 0 {
			t.Errorf("the assembly was handed rows [%d, %d)", lo, hi)
		}
		calls++
		rows += hi - lo
		most = max(most, hi-lo)
		return asm(dst, r, x, dInv, omega, adj, w, lo, hi, d, n)
	}

	// A ring with chords to the vertices 2 and 3 ahead: every row has six
	// entries, the whole graph is one group.
	const n = 2*rowGrain + rowGrain/2 + 8
	var edges []Edge
	rng := rand.New(rand.NewSource(24))
	for v := 0; v < n; v++ {
		for step := 1; step <= 3; step++ {
			edges = append(edges, Edge{U: v, V: (v + step) % n, W: 0.5 + rng.Float64()})
		}
	}
	g := MustFromEdges(n, edges)
	if len(g.groups) != 1 || g.groups[0] != (rowSeg{0, n, 6}) {
		t.Fatalf("row-group table %v, want one group of all %d rows", g.groups, n)
	}
	x, got, want := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	for _, rg := range [][2]int{{0, n}, {5, n - 2}} {
		rows, most, calls = 0, 0, 0
		g.lapRange(true, got, nil, x, nil, 0, rg[0], rg[1])
		grouped := (rg[1] - rg[0]) &^ 3
		if most > rowGrain || rows != grouped || calls != (grouped+rowGrain-1)/rowGrain {
			t.Errorf("rows [%d, %d): %d assembly calls, the largest of %d rows (grain %d), %d rows in all, want %d", rg[0], rg[1], calls, most, rowGrain, rows, grouped)
		}
		g.lapRange(false, want, nil, x, nil, 0, rg[0], rg[1])
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("rows [%d, %d): row %d differs from the Go loop through the recording wrapper", rg[0], rg[1], v)
			}
		}
	}
}
