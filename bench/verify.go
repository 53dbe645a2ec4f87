package main

import (
	"math"

	"hcd/internal/graph"
)

// Answers are checked outside the program: the residual is recomputed from
// the returned x with the serial reference matvec, not read from the
// solver's own bookkeeping.

// solveTol is the relative residual every workload solves to.
const solveTol = 1e-8

// verifyFactor is the slack between the solver's recurrence residual and the
// independently recomputed one; an answer further off than this is a failure.
const verifyFactor = 10

// relResidual returns ‖b − A·x‖₂ / ‖b‖₂ for g's Laplacian A, using scratch
// (length n) for A·x. A wrong-length or non-finite x yields +Inf.
func relResidual(g *graph.Graph, x, b, scratch []float64) float64 {
	if len(x) != g.N() || len(b) != g.N() {
		return math.Inf(1)
	}
	g.LapMulSerial(scratch, x)
	rr, bb := 0.0, 0.0
	for i := range b {
		d := b[i] - scratch[i]
		rr += d * d
		bb += b[i] * b[i]
	}
	res := math.Sqrt(rr / bb)
	if math.IsNaN(res) {
		return math.Inf(1)
	}
	return res
}

// answerOK reports whether x solves A·x = b to within verifyFactor·solveTol,
// and the recomputed relative residual.
func answerOK(g *graph.Graph, x, b, scratch []float64) (float64, bool) {
	res := relResidual(g, x, b, scratch)
	return res, res <= verifyFactor*solveTol
}

// tally counts operations attempted and failed across a run.
type tally struct {
	attempted, failed int
	relresMax         float64
}

func (t *tally) add(ok bool) {
	t.attempted++
	if !ok {
		t.failed++
	}
}

func (t *tally) residual(r float64) {
	if r > t.relresMax {
		t.relresMax = r
	}
}
