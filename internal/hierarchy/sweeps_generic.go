//go:build !amd64 || race

package hierarchy

// Builds without the assembly sweep tiles — other architectures, and -race
// builds — never see graph.BlockAVX2() set, so the …Range functions of
// apply.go never get here.

const noSweepAsm = "hierarchy: the AVX2 sweep tiles are not part of this build"

func (l *Level) restrictAVX2(width int, r, rq []float64, k, j0, lo, hi int) {
	panic(noSweepAsm)
}

func (l *Level) prolongAddAVX2(width int, x, xq []float64, alpha float64, k, j0, lo, hi int) {
	panic(noSweepAsm)
}

func (l *Level) jacobiFromZeroAVX2(width int, x, r []float64, omega float64, k, j0, lo, hi int) {
	panic(noSweepAsm)
}
