package graph

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"hcd/internal/kernel"
)

// The graph's side of the kernel layer: the wrappers over kernel.LapTile and
// kernel.LapRows hand the bodies chunks no longer than kernel.ChunkRows, and
// over a graph's own CSR arrays — the last row's last entry the last of adj
// and w — they stay inside every operand in both forms. The bodies' own
// guard-page, chunking and bad-operand checks are internal/kernel's.

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

// fencedGraph is g with its CSR arrays fenced, and the fences' reports.
func fencedGraph(g *Graph) (*Graph, []func() bool) {
	f := *g
	var adj, w, off func() bool
	f.adj, adj = fenced(g.adj, math.MaxInt32)
	f.w, w = fenced(g.w, 1e300)
	f.off, off = fenced(g.off, math.MaxInt)
	return &f, []func() bool{adj, w, off}
}

// chordRing is a ring with chords to the vertices 2 and 3 ahead: every row has
// six entries, so the whole graph is one row group.
func chordRing(t *testing.T, n int, weight func(v, step int) float64) *Graph {
	t.Helper()
	var edges []Edge
	for v := 0; v < n; v++ {
		for step := 1; step <= 3; step++ {
			edges = append(edges, Edge{U: v, V: (v + step) % n, W: weight(v, step)})
		}
	}
	g := MustFromEdges(n, edges)
	if len(g.groups) != 1 || g.groups[0] != (kernel.Group{Lo: 0, Hi: int32(n), Deg: 6}) {
		t.Fatalf("row-group table %v, want one group of all %d rows", g.groups, n)
	}
	return g
}

// sameWords returns the first index at which got and want differ, or -1.
func sameWords(got, want []float64) int {
	for i := range want {
		if !kernel.SameWord(got[i], want[i]) {
			return i
		}
	}
	return -1
}

// TestBlockTileCallsAreChunked: the runtime cannot preempt a goroutine inside
// assembly, so no call into a tile body is handed more than
// kernel.ChunkRows(k) rows — even when lapSweep.Range gets the whole graph
// at once, as it does on the serial path — and the calls cover every row of
// every tile exactly once, in either form, with the same result.
func TestBlockTileCallsAreChunked(t *testing.T) {
	g := blockTestGraph(t, 5000, 15)
	n := g.N()
	rng := rand.New(rand.NewSource(16))
	for _, k := range []int{4, 8, 13, 16, 40} {
		x := make([]float64, n*k)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		var out [][]float64
		withBodies(func() {
			rows, most, dst := 0, 0, make([]float64, n*k)
			see := func(r int) { rows, most = rows+r, max(most, r) }
			kernel.ObserveChunks(see, func() { g.BlockRange(dst, nil, x, nil, 0, k, 0, n) })
			if tiles := k/8 + k%8/4; most > kernel.ChunkRows(k) || rows != tiles*n {
				t.Errorf("k=%d %s: the largest call got %d rows (at most %d), all calls %d rows, want %d tiles × %d", k, kernel.Name(), most, kernel.ChunkRows(k), rows, tiles, n)
			}
			out = append(out, dst)
		})
		if i := sameWords(out[0], out[1]); i >= 0 {
			t.Fatalf("k=%d: entry %d: %s form %v, go form %v", k, i, kernel.Name(), out[0][i], out[1][i])
		}
	}
}

// TestRowGroupCallsAreChunked: the runtime cannot preempt a goroutine inside
// assembly, so no call into the row-group body is handed more than
// kernel.ChunkRows(1) rows — even when a whole regular graph, one group, is
// handed over at once, as it is on the serial path — every call is a multiple
// of four rows, and together the calls cover every grouped row of the range
// exactly once, with the Go loop's result. The Go form runs a range as one
// loop, without calls to chunk.
func TestRowGroupCallsAreChunked(t *testing.T) {
	grain := kernel.ChunkRows(1)
	n := 2*grain + grain/2 + 8
	rng := rand.New(rand.NewSource(24))
	g := chordRing(t, n, func(int, int) float64 { return 0.5 + rng.Float64() })
	x, got, want := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	for _, rg := range [][2]int{{0, n}, {5, n - 2}} {
		var calls []int
		kernel.ObserveChunks(func(r int) { calls = append(calls, r) }, func() { g.RowRange(got, nil, x, nil, 0, rg[0], rg[1]) })
		kernel.WithGo(func() { g.RowRange(want, nil, x, nil, 0, rg[0], rg[1]) })
		if kernel.Name() == "avx2" {
			grouped, rows := (rg[1]-rg[0])&^3, 0
			for _, r := range calls {
				if rows += r; r > grain || r%4 != 0 {
					t.Errorf("rows [%d, %d): a call of %d rows (at most %d, whole groups of four)", rg[0], rg[1], r, grain)
				}
			}
			if rows != grouped || len(calls) != (grouped+grain-1)/grain {
				t.Errorf("rows [%d, %d): %d calls of %d rows in all, want %d rows in %d calls", rg[0], rg[1], len(calls), rows, grouped, (grouped+grain-1)/grain)
			}
		} else if len(calls) != 0 {
			t.Errorf("rows [%d, %d): the Go form made %d chunked calls", rg[0], rg[1], len(calls))
		}
		if v := sameWords(got, want); v >= 0 {
			t.Fatalf("rows [%d, %d): row %d: %s form %v, go form %v", rg[0], rg[1], v, kernel.Name(), got[v], want[v])
		}
	}
}

// mustFailNaming runs f under the process's form and fails the test unless it
// panics — under the assembly form with an error that wraps ErrInvalidInput
// and names want. The Go form stops on its own bounds check.
func mustFailNaming(t *testing.T, what, want string, f func()) {
	t.Helper()
	v := mustPanic(t, what, f)
	if err, ok := v.(error); kernel.Name() == "avx2" && (!ok || !errors.Is(err, ErrInvalidInput) || !strings.Contains(err.Error(), want)) {
		t.Fatalf("%s: panic %v, want an error wrapping ErrInvalidInput that names %q", what, v, want)
	}
}

// TestBlockTilesStayInsideOperands: over a graph whose CSR arrays and every
// vector are fenced — each slice's capacity its length, canaries after it —
// the tiles complete every mode in either form without writing past any
// operand, and the forms agree; and when the adjacency holds the id n, the
// call panics, naming the row, before the gather that would have read past x.
func TestBlockTilesStayInsideOperands(t *testing.T) {
	built := blockTestGraph(t, 700, 17)
	g, fences := fencedGraph(built)
	n := g.N()
	for _, k := range []int{4, 8, 12, 13} {
		x, fx := fenced(make([]float64, n*k), 1e300)
		r, fr := fenced(make([]float64, n*k), 1e300)
		dInv, fd := fenced(make([]float64, n), 1e300)
		dst, fdst := fenced(make([]float64, n*k), 1e300)
		for i := range x {
			x[i], r[i] = float64(i%17)-8, float64(i%5)
		}
		for v := range dInv {
			dInv[v] = 1 / g.Vol(v)
		}
		want := make([]float64, n*k)
		for mode, ops := range [][2][]float64{{nil, nil}, {r, nil}, {r, dInv}} {
			g.BlockRange(dst, ops[0], x, ops[1], 0.5, k, 0, n)
			kernel.WithGo(func() { g.BlockRange(want, ops[0], x, ops[1], 0.5, k, 0, n) })
			if i := sameWords(dst, want); i >= 0 {
				t.Fatalf("k=%d mode %d: entry %d: %s form %v, go form %v", k, mode, i, kernel.Name(), dst[i], want[i])
			}
			for f, intact := range append([]func() bool{fx, fr, fd, fdst}, fences...) {
				if !intact() {
					t.Fatalf("k=%d mode %d: written past operand %d", k, mode, f)
				}
			}
		}
		bad, _ := fencedGraph(g)
		bad.adj[len(bad.adj)-1] = int32(n)
		mustFailNaming(t, fmt.Sprintf("k=%d, corrupt adjacency", k), fmt.Sprintf("row %d ", n-1), func() {
			bad.BlockRange(dst, nil, x, nil, 0, k, 0, n)
		})
	}
}

// TestRowGroupKernelStaysInsideOperands: with the graph's last rows a group —
// so the last group's last entry is the last entry of adj and w, and its last
// row the last word of every vector — and every array fenced, the row-group
// body completes every mode in either form without writing past any of them,
// and the forms agree. An id ≥ n in the last group, and a last row that ends
// beyond the adjacency array, panic — under the assembly with an error
// wrapping ErrInvalidInput that names the row, with nothing of that group
// stored.
func TestRowGroupKernelStaysInsideOperands(t *testing.T) {
	const n = 700
	g, fences := fencedGraph(chordRing(t, n, func(v, step int) float64 { return 1 + float64((v*step)%7) }))
	x, fx := fenced(make([]float64, n), 1e300)
	r, fr := fenced(make([]float64, n), 1e300)
	dInv, fd := fenced(make([]float64, n), 1e300)
	dst, fdst := fenced(make([]float64, n), 1e300)
	for v := range x {
		x[v], r[v], dInv[v] = float64(v%17)-8, float64(v%5), 1/g.Vol(v)
	}
	want := make([]float64, n)
	for mode, ops := range [][2][]float64{{nil, nil}, {r, nil}, {r, dInv}} {
		g.RowRange(dst, ops[0], x, ops[1], 0.5, 0, n)
		kernel.WithGo(func() { g.RowRange(want, ops[0], x, ops[1], 0.5, 0, n) })
		if v := sameWords(dst, want); v >= 0 {
			t.Fatalf("mode %d: row %d: %s form %v, go form %v", mode, v, kernel.Name(), dst[v], want[v])
		}
		for f, intact := range append([]func() bool{fx, fr, fd, fdst}, fences...) {
			if !intact() {
				t.Fatalf("mode %d: written past operand %d", mode, f)
			}
		}
	}

	const canary = 424242.5
	corrupt := func(what string, bad *Graph, row int) {
		t.Helper()
		for v := range dst {
			dst[v] = canary
		}
		mustFailNaming(t, what, fmt.Sprintf("row %d ", row), func() { bad.RowRange(dst, nil, x, nil, 0, n-8, n) })
		if kernel.Name() != "avx2" {
			return
		}
		for v := row &^ 3; v < n; v++ {
			if dst[v] != canary {
				t.Fatalf("%s: row %d, in or after the group of the corrupt row %d, was stored", what, v, row)
			}
		}
	}
	bad, _ := fencedGraph(g)
	bad.adj[len(bad.adj)-1] = int32(n)
	corrupt("id n", bad, n-1)
	if kernel.Name() == "avx2" && dst[n-5] == canary {
		t.Fatalf("id n: row %d, in the group before the corrupt one, was not computed", n-5)
	}
	bad.adj[len(bad.adj)-1] = math.MinInt32
	corrupt("negative id", bad, n-1)
	bad, _ = fencedGraph(g)
	bad.off[n]++
	corrupt("row end beyond adj", bad, n-1)
}
