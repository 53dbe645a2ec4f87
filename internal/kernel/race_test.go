//go:build race

package kernel

import "testing"

// TestRaceBuildRunsGo: the race detector cannot see assembly stores, so a
// -race build runs every body in its Go form, and its stubs of the assembly
// are never reached.
func TestRaceBuildRunsGo(t *testing.T) {
	if avx2 || Name() != "go" {
		t.Fatalf("a -race build runs the %s form", Name())
	}
	cases(func(b *body, width, k, j0, mode int) {
		b.run(b.call(arena{}, 13, 16, k, width, j0, mode), 0, 16)
	})
}
