package kernel

import (
	"runtime/debug"
	"syscall"
	"testing"
	"unsafe"
)

const guardPages = true

// guarded returns n values of type T that end flush against an inaccessible
// page: the first byte read or written past the slice faults.
func guarded[T any](t testing.TB, n int) []T {
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

// setPanicOnFault turns a fault into a panic the test can report, and returns
// the restore.
func setPanicOnFault() func() {
	prev := debug.SetPanicOnFault(true)
	return func() { debug.SetPanicOnFault(prev) }
}
