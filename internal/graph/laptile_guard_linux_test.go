//go:build amd64 && !race

package graph

import (
	"errors"
	"fmt"
	"runtime/debug"
	"strings"
	"syscall"
	"testing"
	"unsafe"
)

// guardedFloats returns n float64s that end flush against an inaccessible
// page: the first byte read or written past the slice faults.
func guardedFloats(t *testing.T, n int) []float64 {
	t.Helper()
	page := syscall.Getpagesize()
	size := (8*n + page - 1) / page * page
	mem, err := syscall.Mmap(-1, 0, size+page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = syscall.Munmap(mem) }) // test memory; nothing to do about a failed unmap
	if err := syscall.Mprotect(mem[size:], syscall.PROT_NONE); err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		return nil
	}
	return unsafe.Slice((*float64)(unsafe.Pointer(&mem[size-8*n])), n)
}

// TestBlockTilesStayInsideOperands: with every operand ending at a guard page
// the AVX2 tiles — whose loads and stores are 32 bytes wide and unchecked —
// complete every mode without touching a byte past any of them and agree with
// the Go tiles; and when the adjacency holds the id n, the id check panics
// before the gather that would have read past x.
func TestBlockTilesStayInsideOperands(t *testing.T) {
	if !blockAVX2 {
		t.Skip("the AVX2 tiles are not in use on this host")
	}
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	g := blockTestGraph(t, 700, 17)
	n := g.N()
	for _, k := range []int{4, 8, 12, 13} {
		x, r, dInv, dst := guardedFloats(t, n*k), guardedFloats(t, n*k), guardedFloats(t, n), guardedFloats(t, n*k)
		for i := range x {
			x[i], r[i] = float64(i%17)-8, float64(i%5)
		}
		for v := range dInv {
			dInv[v] = 1 / g.Vol(v)
		}
		want := make([]float64, n*k)
		for mode, ops := range [][2][]float64{{nil, nil}, {r, nil}, {r, dInv}} {
			g.lapMulBlockRange(true, dst, ops[0], x, ops[1], 0.5, k, 0, n)
			g.lapMulBlockRange(false, want, ops[0], x, ops[1], 0.5, k, 0, n)
			for i := range want {
				if dst[i] != want[i] {
					t.Fatalf("k=%d mode %d: entry %d: AVX2 tile %v, Go tile %v", k, mode, i, dst[i], want[i])
				}
			}
		}
		bad := *g
		bad.adj = append([]int32(nil), g.adj...)
		bad.adj[len(bad.adj)-1] = int32(n)
		v := mustPanic(t, "corrupt adjacency", func() { bad.lapMulBlockRange(true, dst, nil, x, nil, 0, k, 0, n) })
		if err, ok := v.(error); !ok || !errors.Is(err, ErrInvalidInput) || !strings.Contains(err.Error(), fmt.Sprintf("row %d ", n-1)) {
			t.Fatalf("k=%d: panic %v, want the id check naming row %d", k, v, n-1)
		}
	}
}
