//go:build race

package hierarchy

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
	rng := rand.New(rand.NewSource(35))
	l := sweepLevel(rng, 100, []int{4, 3}, true, rng.Float64)
	base := randomApplyArgs(l, 12, rng.NormFloat64)
	for _, sw := range applySweeps {
		sw.whole(l, base.clone())
	}
}
