//go:build !linux

package kernel

import "testing"

// Guard pages are mapped on Linux only; elsewhere the tests that want them
// skip, or run on plain memory.
const guardPages = false

func guarded[T any](t testing.TB, n int) []T { panic("no guard pages on this platform") }

func setPanicOnFault() func() { return func() {} }
