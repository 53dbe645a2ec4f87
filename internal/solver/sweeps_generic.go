//go:build !amd64 || race

package solver

// Builds without the assembly sweep tiles — other architectures, and -race
// builds — never see graph.BlockAVX2() set, so the …Range functions of
// blockkernels.go never get here.

const noSweepAsm = "solver: the AVX2 sweep tiles are not part of this build"

func dotsAVX2(width int, a, b []float64, k, j0, lo, hi int, acc []float64) {
	panic(noSweepAsm)
}

func subMeanDotAVX2(width int, z, r, mean []float64, k, j0, lo, hi int, acc []float64) {
	panic(noSweepAsm)
}

func updateXRSumsAVX2(width int, x, r, p, ap, alpha []float64, k, j0, lo, hi int, acc []float64) {
	panic(noSweepAsm)
}

func xpbyAVX2(width int, p, z, beta []float64, k, j0, lo, hi int) {
	panic(noSweepAsm)
}
