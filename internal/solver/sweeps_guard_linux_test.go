//go:build amd64 && !race

package solver

import (
	"runtime/debug"
	"syscall"
	"testing"
	"unsafe"

	"hcd/internal/graph"
)

// guarded returns n values of type T that end flush against an inaccessible
// page: the first byte read or written past the slice faults.
func guarded[T any](t *testing.T, n int) []T {
	t.Helper()
	size := int(unsafe.Sizeof(*new(T))) * n
	page := syscall.Getpagesize()
	mapped := (size + page - 1) / page * page
	mem, err := syscall.Mmap(-1, 0, mapped+page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = syscall.Munmap(mem) }) // test memory; nothing to do about a failed unmap
	if err := syscall.Mprotect(mem[mapped:], syscall.PROT_NONE); err != nil {
		t.Fatal(err)
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&mem[mapped-size])), n)
}

// TestSweepTilesStayInsideOperands: with every block, coefficient vector and
// accumulator ending at a guard page — at widths whose last tile ends at the
// last column, so a row's last 32-byte load or store is the operand's last
// word — the AVX2 sweep tiles run every sweep without touching a byte past any
// operand and leave the words the Go tiles leave.
func TestSweepTilesStayInsideOperands(t *testing.T) {
	if !graph.BlockAVX2() {
		t.Skip("the AVX2 sweep tiles are not in use on this host")
	}
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	const n = 300
	for _, k := range []int{4, 8, 12, 13} {
		base := newSweepArgs(n, k, 0, n, func() float64 { return 0 })
		for i := range base.x {
			base.x[i], base.r[i], base.p[i], base.ap[i] = float64(i%17)-8, float64(i%5), float64(i%7)-3, float64(i%3)
		}
		for j := range base.coef {
			base.coef[j], base.acc[j] = 0.25*float64(j+1), float64(j)
		}
		got := &sweepArgs{k: k, lo: 0, hi: n}
		for _, f := range []struct {
			dst *[]float64
			src []float64
		}{{&got.x, base.x}, {&got.r, base.r}, {&got.p, base.p}, {&got.ap, base.ap}, {&got.coef, base.coef}, {&got.acc, base.acc}} {
			*f.dst = guarded[float64](t, len(f.src))
		}
		for _, sw := range blockSweeps {
			for _, f := range [][2][]float64{{got.x, base.x}, {got.r, base.r}, {got.p, base.p}, {got.ap, base.ap}, {got.coef, base.coef}, {got.acc, base.acc}} {
				copy(f[0], f[1])
			}
			want := base.clone()
			sw.tiled(true, got)
			sw.tiled(false, want)
			if d := diffSweep(got, want); d != "" {
				t.Fatalf("%s k=%d: AVX2 tiles against Go tiles: %s", sw.name, k, d)
			}
		}
	}
}
