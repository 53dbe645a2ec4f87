//go:build race

package graph

import "testing"

// TestRaceBuildRunsGoTiles: the race detector cannot see assembly stores, so
// a -race build must run the block row kernels' Go tiles whatever the CPU
// offers.
func TestRaceBuildRunsGoTiles(t *testing.T) {
	if blockAVX2 || BlockKernel() != "go" {
		t.Fatalf("a -race build reports the %s block kernel", BlockKernel())
	}
}

// TestRaceBuildRunsGoRows: likewise the k = 1 row kernels run their Go loops.
func TestRaceBuildRunsGoRows(t *testing.T) {
	if rowAVX2 || RowKernel() != "go" {
		t.Fatalf("a -race build reports the %s row kernel", RowKernel())
	}
}
