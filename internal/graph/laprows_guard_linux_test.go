//go:build amd64 && !race

package graph

import (
	"errors"
	"fmt"
	"math"
	"runtime/debug"
	"strings"
	"testing"
	"unsafe"
)

// guardedInt32s is guardedFloats for neighbor ids.
func guardedInt32s(t *testing.T, src []int32) []int32 {
	t.Helper()
	mem := guardedFloats(t, (len(src)+1)/2)
	ids := unsafe.Slice((*int32)(unsafe.Pointer(unsafe.SliceData(mem))), 2*len(mem))[2*len(mem)-len(src):]
	copy(ids, src)
	return ids
}

// TestRowGroupKernelStaysInsideOperands: with the graph's last rows a group —
// so the last group's last entry is the last entry of adj and w, and its last
// row the last word of every vector — and every array ending at a guard page,
// the AVX2 kernel completes every mode without touching a byte past any of
// them and agrees with the Go loops. An id ≥ n in the last group, and a last
// row that ends beyond the adjacency array, panic with an error wrapping
// ErrInvalidInput that names the row, with nothing of that group stored.
func TestRowGroupKernelStaysInsideOperands(t *testing.T) {
	if !rowAVX2 {
		t.Skip("the AVX2 row-group kernel is not in use on this host")
	}
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	// A ring with chords, as in TestRowGroupCallsAreChunked: one group.
	const n = 700
	var edges []Edge
	for v := 0; v < n; v++ {
		for step := 1; step <= 3; step++ {
			edges = append(edges, Edge{U: v, V: (v + step) % n, W: 1 + float64((v*step)%7)})
		}
	}
	built := MustFromEdges(n, edges)
	g := *built
	g.adj = guardedInt32s(t, built.adj)
	g.w = guardedFloats(t, len(built.w))
	copy(g.w, built.w)
	if last := g.groups[len(g.groups)-1]; last.deg == 0 || int(last.hi) != n {
		t.Fatalf("the last segment of the table is %v, want a group ending at row %d", last, n)
	}
	x, r, dInv, dst := guardedFloats(t, n), guardedFloats(t, n), guardedFloats(t, n), guardedFloats(t, n)
	for v := range x {
		x[v], r[v], dInv[v] = float64(v%17)-8, float64(v%5), 1/g.Vol(v)
	}
	want := make([]float64, n)
	for mode, ops := range [][2][]float64{{nil, nil}, {r, nil}, {r, dInv}} {
		g.lapRange(true, dst, ops[0], x, ops[1], 0.5, 0, n)
		g.lapRange(false, want, ops[0], x, ops[1], 0.5, 0, n)
		for v := range want {
			if dst[v] != want[v] {
				t.Fatalf("mode %d: row %d: AVX2 kernel %v, Go loop %v", mode, v, dst[v], want[v])
			}
		}
	}

	const canary = 424242.5
	corrupt := func(what string, bad *Graph, row int) {
		t.Helper()
		for v := range dst {
			dst[v] = canary
		}
		v := mustPanic(t, what, func() { bad.lapRange(true, dst, nil, x, nil, 0, n-8, n) })
		if err, ok := v.(error); !ok || !errors.Is(err, ErrInvalidInput) || !strings.Contains(err.Error(), fmt.Sprintf("row %d ", row)) {
			t.Fatalf("%s: panic %v, want an error wrapping ErrInvalidInput that names row %d", what, v, row)
		}
		for v := row &^ 3; v < n; v++ {
			if dst[v] != canary {
				t.Fatalf("%s: row %d, in or after the group of the corrupt row %d, was stored", what, v, row)
			}
		}
	}
	bad := g
	bad.adj = guardedInt32s(t, g.adj)
	bad.adj[len(bad.adj)-1] = int32(n)
	corrupt("id n", &bad, n-1)
	if dst[n-5] == canary {
		t.Fatalf("id n: row %d, in the group before the corrupt one, was not computed", n-5)
	}
	bad.adj[len(bad.adj)-1] = math.MinInt32
	corrupt("negative id", &bad, n-1)
	bad = g
	bad.off = append([]int(nil), g.off...)
	bad.off[n]++
	corrupt("row end beyond adj", &bad, n-1)
}
