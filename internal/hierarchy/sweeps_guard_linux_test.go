//go:build amd64 && !race

package hierarchy

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime/debug"
	"strings"
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

// guardedCopy is guarded holding a copy of src.
func guardedCopy[T any](t *testing.T, src []T) []T {
	dst := guarded[T](t, len(src))
	copy(dst, src)
	return dst
}

// TestSweepTilesStayInsideOperands: with every block, the inverse diagonal and
// the restriction tables ending at a guard page — the last vertex in the last
// cluster and at the widths whose last tile ends at the last column, so a
// row's last 32-byte load or store is the operand's last word — the AVX2 sweep
// tiles run every sweep without touching a byte past any operand and leave the
// words the Go tiles leave; and a corrupt last entry of order, start or assign
// panics, naming the cluster or vertex, before the gather or load that would
// have left the operand.
func TestSweepTilesStayInsideOperands(t *testing.T) {
	if !graph.BlockAVX2() {
		t.Skip("the AVX2 sweep tiles are not in use on this host")
	}
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	rng := rand.New(rand.NewSource(34))
	const n = 300
	built := sweepLevel(rng, n, []int{4, 1, 3}, true, func() float64 { return 0.1 + rng.Float64() })
	l := *built
	l.dInv, l.assign, l.order, l.start = guardedCopy(t, built.dInv), guardedCopy(t, built.assign), guardedCopy(t, built.order), guardedCopy(t, built.start)
	for _, k := range []int{4, 8, 12, 13} {
		base := randomApplyArgs(&l, k, rng.NormFloat64)
		got := &applyArgs{k: k, x: guarded[float64](t, n*k), r: guarded[float64](t, n*k), xq: guarded[float64](t, l.count*k), rq: guarded[float64](t, l.count*k)}
		for _, sw := range applySweeps {
			for _, f := range [][2][]float64{{got.x, base.x}, {got.r, base.r}, {got.xq, base.xq}, {got.rq, base.rq}} {
				copy(f[0], f[1])
			}
			want := base.clone()
			sw.tiled(true, &l, got, 0, sweepRows(&l, sw.clusters))
			sw.tiled(false, &l, want, 0, sweepRows(&l, sw.clusters))
			if d := diffApply(got, want); d != "" {
				t.Fatalf("%s k=%d: AVX2 tiles against Go tiles: %s", sw.name, k, d)
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
			bad.order, bad.start, bad.assign = guardedCopy(t, l.order), guardedCopy(t, l.start), guardedCopy(t, l.assign)
			tc.corrupt(&bad)
			sw := applySweeps[tc.sweep]
			err := func() (err error) {
				defer func() { err, _ = recover().(error) }()
				sw.tiled(true, &bad, got, 0, sweepRows(&bad, sw.clusters))
				return nil
			}()
			if !errors.Is(err, graph.ErrInvalidInput) || !strings.Contains(err.Error(), tc.names) {
				t.Fatalf("%s k=%d, %s: panic %v, want an error wrapping ErrInvalidInput that names %q", sw.name, k, tc.name, err, tc.names)
			}
		}
	}
}
