// Package kernel holds the leaf bodies of the packed-row kernels: the 8- and
// 4-wide column tiles of the block Laplacian, of the solver's level-1 sweeps,
// of the cycle's sweeps and of the coarse factor's triangular solves, and the
// k = 1 row loops with their four-row groups. Every body has a Go form and, on amd64 hosts with AVX2, an assembly
// form that performs the same IEEE operations in the same order per column —
// no fused multiply-add, ascending rows and entries, accumulators stored once
// — so the two write the same words (DESIGN §12 "Kernel layer").
//
// The package owns what every body shares: the CPUID probe that picks the
// form, the check of a call's operands, the chunking of a call's rows — also
// the grain of the callers' parallel sweeps (ChunkRows) — the 8 → 4 column
// tile schedule (Tiles), and the row blocks the callers' width-1 loops take
// turns over (Columns). What decides the arithmetic stays with the callers in
// internal/graph, internal/solver, internal/hierarchy and internal/sparse:
// the width-1 loop that takes each column no tile takes, and every partition
// of a reduction. kernel imports nothing of theirs.
package kernel

import (
	"errors"
	"fmt"
	"math"
)

// ErrInvalidInput marks caller-supplied arguments that violate an operation's
// documented preconditions. internal/graph, and through it the hcd package,
// re-export this one value.
var ErrInvalidInput = errors.New("invalid input")

// avx2 says whether the bodies run their assembly form: decided once, at
// init, from the CPU and the build — never under -race, whose detector cannot
// see assembly stores, nor off amd64. Only WithGo writes it afterwards.
var avx2 = cpuHasAVX2()

// Name names the form every body runs in this process: "avx2" or "go".
func Name() string {
	if avx2 {
		return "avx2"
	}
	return "go"
}

// WithGo runs f with every body in its Go form — the form of builds without
// the assembly — and restores the probe's choice when f returns. It is the
// one switch the tests of this package and of its callers hold the two forms
// against each other with.
func WithGo(f func()) {
	prev := avx2
	avx2 = false
	defer func() { avx2 = prev }()
	f()
}

// invalid panics with an error wrapping ErrInvalidInput.
func invalid(format string, args ...any) {
	panic(fmt.Errorf("kernel: "+format+": %w", append(args, ErrInvalidInput)...))
}

// A span is one operand of a call: its name, its length, and how many entries
// the call reaches.
type span struct {
	name       string
	have, want int
}

// opt is the span of an operand that nil leaves out of the call.
func opt(name string, s []float64, want int) span {
	if s == nil {
		want = 0
	}
	return span{name, len(s), want}
}

// at is &s[i], or nil for a nil s.
func at(s []float64, i int) *float64 {
	if s == nil {
		return nil
	}
	return &s[i]
}

// check is the one check of a call, made before anything is stored: [lo, hi)
// must be a range, [j0, j0+width) a column window of a width-k block — width 8
// or 4 for a tile, 1 for the k = 1 rows — and every operand must hold the
// entries the call reaches. The assembly indexes raw pointers, so what the Go
// forms' bounds checks catch entry by entry is checked here once; what only a
// pass of its own could check — every gathered index — the assembly holds
// against its bound as it goes, and the body's wrapper names the row, cluster
// or vertex that failed.
func check(body string, width, k, j0, lo, hi int, ops ...span) {
	if lo < 0 || lo > hi || width < 1 || j0 < 0 || j0+width > k {
		invalid("%s: columns [%d, %d) of %d, rows [%d, %d)", body, j0, j0+width, k, lo, hi)
	}
	for _, op := range ops {
		if op.have < op.want {
			invalid("%s: len(%s) = %d, want at least %d", body, op.name, op.have, op.want)
		}
	}
}

// ChunkRows is the most rows of a width-k block one call into a body is
// handed: about 8192 words, at least 256 rows, and a multiple of four, so a
// chunk of four-row groups is whole groups. The runtime cannot preempt a
// goroutine inside assembly; a chunk keeps that stretch in the tens of
// microseconds. Every body stores its accumulators and reloads them exactly,
// so a chunk boundary never moves a bit. It is also the one grain of the
// callers' elementwise sweeps, whose par.For hands a worker ChunkRows(k) rows
// (clusters, for restrict) at a time: a sweep shorter than one chunk runs on
// the calling goroutine.
func ChunkRows(k int) int { return max(8192/k, 256) &^ 3 }

// Tiles calls tile(width, j) for the column tiles of a width-k block — 8 wide
// while eight columns are left, then one 4 wide if four are — and returns the
// first column no tile took, from which Columns hands the rest to the
// caller's width-1 loop. It is the one tile schedule of every sweep.
func Tiles(k int, tile func(width, j int)) int {
	j := 0
	for ; j+8 <= k; j += 8 {
		tile(8, j)
	}
	if j+4 <= k {
		tile(4, j)
		j += 4
	}
	return j
}

// colRows is the row block of Columns: at the widths that leave columns to
// the width-1 loops, a few tens of kilobytes of each operand, which stay in
// cache while the columns take turns over them.
const colRows = 512

// Columns calls col(j, blo, bhi) for every column j in [j0, k) — the columns
// no tile took, each left to the caller's width-1 loop — over rows [lo, hi):
// in blocks of colRows rows, the columns taking turns over each block while
// it is in cache, or in one pass when one column is left, which a block would
// only interrupt. Each column still sees its rows in ascending order, so the
// blocks never move a bit.
func Columns(j0, k, lo, hi int, col func(j, blo, bhi int)) {
	step := colRows
	if k-j0 == 1 {
		step = hi - lo
	}
	for blo := lo; j0 < k && blo < hi; blo += step {
		bhi := min(blo+step, hi)
		for j := j0; j < k; j++ {
			col(j, blo, bhi)
		}
	}
}

// onChunk, when set, sees the rows of every chunk a body is handed.
var onChunk func(rows int)

// ObserveChunks runs f with see handed the rows of every chunk a body is
// handed while f runs: the window the chunking tests of this package and of
// its callers look through. f must call the bodies from one goroutine.
func ObserveChunks(see func(rows int), f func()) {
	defer func(prev func(int)) { onChunk = prev }(onChunk)
	onChunk = see
	f()
}

// next returns the end of the chunk of [lo, hi) that starts at lo.
func next(lo, hi, k int) int {
	end := min(lo+ChunkRows(k), hi)
	if onChunk != nil {
		onChunk(end - lo)
	}
	return end
}

// SameWord reports whether two output words of a body are the same: the same
// bits — which tells −0 from +0 and a denormal from zero — or NaN on both
// sides. Which payload survives an operation on two NaNs is decided by the
// operand order a compiler's register allocation happens to pick, so it is no
// body's contract. Every equality test of a body compares with it.
func SameWord(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
}

// Specials are the values a body that reorders, fuses or flushes anything
// gets wrong: signed zeros, denormals, the extremes, infinities and NaN. The
// equality tests draw operands from them.
var Specials = []float64{
	0, math.Copysign(0, -1), 5e-324, -5e-324, 1e-310, math.SmallestNonzeroFloat64 * (1 << 20),
	math.MaxFloat64, -math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN(),
}
