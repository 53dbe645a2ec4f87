//go:build race

package solver

import (
	"math/rand"
	"testing"

	"hcd/internal/graph"
)

// TestRaceBuildRunsGoSweeps: the race detector cannot see assembly stores, so
// a -race build reports the Go block kernel and every sweep runs its Go tiles
// — the assembly wrappers of such a build panic if reached.
func TestRaceBuildRunsGoSweeps(t *testing.T) {
	if graph.BlockAVX2() || graph.BlockKernel() != "go" {
		t.Fatalf("a -race build reports the %s block kernel", graph.BlockKernel())
	}
	const n, k = 100, 12
	base := randomSweepArgs(rand.New(rand.NewSource(33)), n, k, false)
	for _, sw := range blockSweeps {
		var s scratch
		sw.whole(&s, base.clone(), n)
	}
}
