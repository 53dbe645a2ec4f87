package solver

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"hcd/internal/faultinject"
	"hcd/internal/graph"
	"hcd/internal/kernel"
	"hcd/internal/obs"
	"hcd/internal/par"
)

// The PCG driver: one preconditioned-CG iteration driving k right-hand sides
// at once, behind every PCG entry point of the package — a single right-hand
// side is the k = 1 block. Each column runs its own PCG recurrence — its own
// α, β, rz — but every matvec, preconditioner apply and level-1 kernel walks
// the packed [n][k] block in a single traversal, so the CSR matrix, the
// hierarchy quotients and the work vectors stream through memory once per
// iteration instead of once per column. On bandwidth-bound Laplacian solves
// that amortization is the whole win; the arithmetic is that of k separate
// solves.
//
// Columns converge (or fail) independently: a finished column's iterate is
// copied out and the packed block is left-compacted, so the active width
// shrinks and later iterations do proportionally less work (deflation). What
// depends on the width is chosen by the width observed at each call, never by
// the entry point: a width-1 block is a plain vector, applied through the
// operator's Apply and swept by the vector kernels (kernels.go).
//
// Every solve is one attempt from x = 0: a column that breaks down or
// diverges keeps the iterate it reached and reports why, and a caller that
// wants another preconditioner (the facade's resilient ladder) solves again.

// BlockApplier is the optional fast path an Operator or Preconditioner can
// implement to apply itself to k packed row-major columns in one traversal
// (dst[v*k+j] = (A·x_j)[v]). Operators that don't implement it are applied
// column by column through staging vectors.
type BlockApplier interface {
	ApplyBlock(dst, x []float64, k int)
}

// applier is the shape Operator and Preconditioner share; the driver treats
// both uniformly.
type applier interface {
	Apply(dst, x []float64)
}

// spaced is the optional interface of a preconditioner that knows a faster
// numbering for a solve of g's Laplacian — the hierarchy's level-0 layout
// view, whose rows come sorted by length: in the groups the k = 1 row kernels
// want, and in long runs of one loop length for the block tiles. SolveSpace
// returns the permutation (vertex i of the space is vertex perm[i] of g), g
// renumbered by it and the preconditioner in that numbering, or a nil perm
// for none. A wrapper that embeds the hierarchy inherits its SolveSpace, and
// the solve then runs on the view's preconditioner, around the wrapper's own
// Apply and ApplyBlock: a wrapper that must see every apply forwards Dim,
// Apply and ApplyBlock by hand instead of embedding.
type spaced interface {
	SolveSpace(g *graph.Graph) (perm []int32, gs *graph.Graph, ms interface {
		Dim() int
		Apply(dst, x []float64)
	})
}

// scratch owns the work buffers of one solve. A fresh scratch per call gives
// allocate-per-solve behavior; an Engine keeps one alive so repeated solves
// reuse every buffer. The packed buffers are sized n·k and never shrink, so a
// warmed scratch allocates nothing for any solve with the same or smaller n·k.
type scratch struct {
	x, r, z, p, ap []float64 // packed row-major [n][kActive]
	colIn, colOut  []float64 // column staging for non-block Apply fallback
	partial        []float64 // chunked-reduction partial table, [chunks][k]

	// Per-active-position state, compacted alongside the packed buffers.
	rz, rzNew, refNorm         []float64
	pap, alpha, beta, mean, rn []float64
	rawNorm                    []float64
	active                     []int // active position -> original column
	dead                       []bool
	keep                       []int

	// Per original column, reused across solves on one Engine.
	results []Result
	cols    []int // the columns of the right length
	src     [][]float64
	xcols   [][]float64
	resid   [][]float64
	alphas  [][]float64
	betas   [][]float64
	// one is the column list of a single right-hand side, so Engine.Solve
	// builds none per call.
	one [1][]float64
	// perm is the current solve's space (spaced): nil for the caller's
	// numbering, else the packing copy gathers b through it and the unpacking
	// copy scatters x through it.
	perm []int32

	allocs int
}

// vec returns *buf resized to n, reusing capacity when possible.
func (s *scratch) vec(buf *[]float64, n int) []float64 {
	if cap(*buf) < n {
		*buf = make([]float64, n)
		s.allocs++
	}
	*buf = (*buf)[:n]
	return *buf
}

// col returns the j-th per-column buffer resized to n.
func (s *scratch) col(bufs *[][]float64, j, n int) []float64 {
	for len(*bufs) <= j {
		*bufs = append(*bufs, nil)
	}
	if cap((*bufs)[j]) < n {
		(*bufs)[j] = make([]float64, n)
		s.allocs++
	}
	(*bufs)[j] = (*bufs)[j][:n]
	return (*bufs)[j]
}

// resize returns *buf with length n, reusing capacity; the small index and
// per-column buffers go through it.
func resize[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

func zero(x []float64) {
	for i := range x {
		x[i] = 0
	}
}

// applyBlock applies op to the packed [n][kA] block: one fused traversal
// when op implements BlockApplier, otherwise column by column through the
// staging vectors. A width-1 block is a plain vector, so it goes straight
// through Apply.
func (s *scratch) applyBlock(op applier, dst, x []float64, n, kA int) {
	if kA == 1 {
		op.Apply(dst[:n], x[:n])
		return
	}
	if ba, ok := op.(BlockApplier); ok {
		ba.ApplyBlock(dst[:n*kA], x[:n*kA], kA)
		return
	}
	in := s.vec(&s.colIn, n)
	out := s.vec(&s.colOut, n)
	for j := 0; j < kA; j++ {
		for v := 0; v < n; v++ {
			in[v] = x[v*kA+j]
		}
		op.Apply(out, in)
		for v := 0; v < n; v++ {
			dst[v*kA+j] = out[v]
		}
	}
}

// BlockPCGCtx solves A·x_j = b_j for all columns of bs with fresh work
// buffers, returning one Result per column (same order). A column whose
// length is not the operator's dimension is that column's failure: its Result
// stays the zero value, the other columns are solved, and the returned error
// joins one error wrapping graph.ErrBadDimension per such column. See
// Engine.SolveBlock for the buffer-reusing form.
func BlockPCGCtx(ctx context.Context, a Operator, m Preconditioner, bs [][]float64, opt Options) ([]Result, error) {
	var s scratch
	return s.solve(ctx, a, m, bs, opt)
}

// single unwraps a one-column solve.
func single(results []Result, err error) (Result, error) {
	if err != nil {
		return Result{}, err
	}
	return results[0], nil
}

// solve is the driver behind every entry point: the columns of the right
// length form one block, solved in one attempt. Result slices alias the
// scratch buffers. A panic during the solve — including worker panics
// surfaced by internal/par — is returned as an error carrying the panicking
// goroutine's stack.
func (s *scratch) solve(ctx context.Context, a Operator, m Preconditioner, bs [][]float64, opt Options) (results []Result, err error) {
	ctx, sp := obs.StartSpan(ctx, "solve/pcg")
	defer func() {
		if v := recover(); v != nil {
			results, err = nil, fmt.Errorf("solver: panic during solve: %w", par.AsError(v))
		}
		annotatePCGSpan(sp, results)
		sp.End()
		if reg := obs.RegistryFrom(ctx); reg != nil {
			for i := range results {
				if results[i].Outcome != OutcomeUnknown {
					results[i].Metrics.Publish(reg)
					publishOutcome(reg, results[i].Outcome)
				}
			}
		}
	}()
	n, k := a.Dim(), len(bs)
	if k == 0 {
		return nil, fmt.Errorf("solver: solve with no right-hand sides: %w", graph.ErrBadDimension)
	}
	if m == nil {
		m = Identity(n)
	}
	if m.Dim() != n {
		return nil, fmt.Errorf("solver: preconditioner dimension %d vs operator dimension %d: %w", m.Dim(), n, graph.ErrBadDimension)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if opt.Tol <= 0 {
		opt.Tol = 1e-8
	}
	if opt.MaxIter <= 0 {
		opt.MaxIter = 10*n + 50
	}

	results = resize(&s.results, k)
	cols := resize(&s.cols, k)[:0]
	var errs []error
	for j, b := range bs {
		if len(b) != n {
			results[j] = Result{}
			errs = append(errs, fmt.Errorf("solver: rhs %d length %d vs operator dimension %d: %w", j, len(b), n, graph.ErrBadDimension))
			continue
		}
		cols = append(cols, j)
	}
	s.perm = nil
	if len(cols) > 0 {
		a, m = s.space(a, m)
		s.attempt(ctx, a, m, bs, cols, opt, results)
	}
	return results, errors.Join(errs...)
}

// space moves a solve of a graph Laplacian, of any width, into its
// preconditioner's solve space, when it has one: it returns the operator on
// the renumbered graph and the preconditioner in that numbering, and sets
// s.perm. The attempt packs, deflates and unpacks through s.perm.
func (s *scratch) space(a Operator, m Preconditioner) (Operator, Preconditioner) {
	lap, ok := a.(lapOperator)
	if !ok {
		return a, m
	}
	sp, ok := m.(spaced)
	if !ok {
		return a, m
	}
	perm, gs, ms := sp.SolveSpace(lap.g)
	if perm == nil {
		return a, m
	}
	s.perm = perm
	return lapOperator{gs}, ms
}

// attempt runs one PCG attempt from x = 0 on the columns cols of bs — the
// same guard sequence and breakdown checks for every column, k columns wide,
// deflating columns as they finish — and fills their results.
func (s *scratch) attempt(ctx context.Context, a Operator, m Preconditioner, bs [][]float64, cols []int, opt Options, results []Result) {
	start := time.Now()
	_, sp := obs.StartSpan(ctx, "solve/attempt")
	defer sp.End()
	n, k := a.Dim(), len(cols)
	startAllocs := s.allocs
	nk := n * k
	x := s.vec(&s.x, nk)
	r := s.vec(&s.r, nk)
	z := s.vec(&s.z, nk)
	p := s.vec(&s.p, nk)
	ap := s.vec(&s.ap, nk)

	rawNorm := s.vec(&s.rawNorm, k)
	refNorm := s.vec(&s.refNorm, k)
	rz := s.vec(&s.rz, k)
	rzNew := s.vec(&s.rzNew, k)
	papv := s.vec(&s.pap, k)
	alpha := s.vec(&s.alpha, k)
	beta := s.vec(&s.beta, k)
	mean := s.vec(&s.mean, k)
	rn := s.vec(&s.rn, k)
	dead := resize(&s.dead, k)
	s.active = append(s.active[:0], cols...)

	src := resize(&s.src, k)
	for pos, j := range cols {
		results[j] = Result{
			X:         s.col(&s.xcols, j, n),
			Residuals: s.col(&s.resid, j, 0),
			Alphas:    s.col(&s.alphas, j, 0),
			Betas:     s.col(&s.betas, j, 0),
		}
		src[pos] = bs[j]
	}
	zero(x)
	packColumns(src, s.perm, r, n, k)
	for pos := range src {
		src[pos] = nil // the scratch outlives the caller's vectors
	}

	// ‖r‖ before projection, then project and measure again: a right-hand
	// side that is (numerically) all null-space component has nothing left to
	// solve after projection.
	s.blockNormSq(r, n, k, rawNorm)
	for pos := range rawNorm {
		rawNorm[pos] = math.Sqrt(rawNorm[pos])
	}
	s.blockColSums(r, n, k, mean)
	s.blockSubMeans(r, r, n, k, mean, rn)
	for pos := range rn {
		rn[pos] = math.Sqrt(rn[pos])
	}
	anyDead := false
	for pos, j := range cols {
		res := &results[j]
		normB := rn[pos]
		refNorm[pos] = normB
		res.Residuals = append(res.Residuals, normB)
		res.Outcome = OutcomeMaxIter
		switch {
		case math.IsNaN(normB) || math.IsInf(normB, 0):
			// ‖b‖² overflowed (entries ≳ 1e154): with rawNorm +Inf too,
			// the null-space test below would read it as solved.
			res.Outcome = OutcomeBreakdown
			res.Reason = fmt.Sprintf("non-finite initial residual ‖r₀‖ = %g", normB)
			dead[pos] = true
		case normB == 0 || normB <= 1e-13*rawNorm[pos] || normB <= opt.Tol*refNorm[pos]:
			res.Outcome = OutcomeConverged
			dead[pos] = true
		default:
			dead[pos] = false
		}
		anyDead = anyDead || dead[pos]
	}
	kA := k
	if anyDead {
		kA = s.deflate(results, n, kA, dead)
	}
	iterStart := time.Time{}
	iters := 0

	if kA > 0 {
		s.applyBlock(m, z, r, n, kA)
		for _, j := range s.active {
			results[j].Metrics.PrecondApplies++
		}
		s.blockColSums(z, n, kA, mean)
		s.blockSubMeans(z, r, n, kA, mean, rz)
		copy(p[:n*kA], z[:n*kA])
		iterStart = time.Now()

		for iter := 0; iter < opt.MaxIter && kA > 0; iter++ {
			if ctx.Err() != nil {
				for _, j := range s.active {
					results[j].Outcome = OutcomeCancelled
				}
				break
			}
			s.applyBlock(a, ap, p, n, kA)
			for _, j := range s.active {
				results[j].Metrics.MatVecs++
			}
			if faultinject.Enabled() && faultinject.Fire(faultinject.MatvecNaN) {
				ap[0] = math.NaN()
			}
			s.blockDots(p, ap, n, kA, papv)
			if faultinject.Enabled() && faultinject.Fire(faultinject.ForceBreakdown) {
				papv[0] = -1
			}
			anyDead = false
			for pos := 0; pos < kA; pos++ {
				// Numerical breakdown (or exact solution already reached).
				dead[pos] = papv[pos] <= 0 || math.IsNaN(papv[pos])
				if dead[pos] {
					res := &results[s.active[pos]]
					res.Outcome = OutcomeBreakdown
					res.Reason = fmt.Sprintf("non-positive curvature pᵀAp = %g at iteration %d", papv[pos], iter+1)
					anyDead = true
				}
			}
			if anyDead {
				kA = s.deflate(results, n, kA, dead, papv)
				if kA == 0 {
					break
				}
			}
			for pos := 0; pos < kA; pos++ {
				alpha[pos] = rz[pos] / papv[pos]
				res := &results[s.active[pos]]
				res.Alphas = append(res.Alphas, alpha[pos])
			}
			// Fused update: x += α∘p, r −= α∘ap, with the projection sums
			// accumulated in the same sweep.
			s.blockUpdateXRSums(x, r, p, ap, alpha, n, kA, mean)
			s.blockSubMeans(r, r, n, kA, mean, rn)
			iters = iter + 1
			maxRn := 0.0
			for pos := 0; pos < kA; pos++ {
				rn[pos] = math.Sqrt(rn[pos])
				if rn[pos] > maxRn || math.IsNaN(rn[pos]) {
					maxRn = rn[pos]
				}
			}
			anyDead = false
			for pos := 0; pos < kA; pos++ {
				res := &results[s.active[pos]]
				res.Residuals = append(res.Residuals, rn[pos])
				res.Iterations = iters
				dead[pos] = true
				// Guards, in severity order. The non-finite check comes first:
				// NaN compares false against every threshold, so the
				// convergence and divergence tests would both silently pass
				// over it.
				switch v := rn[pos]; {
				case math.IsNaN(v) || math.IsInf(v, 0):
					res.Outcome = OutcomeBreakdown
					res.Reason = fmt.Sprintf("non-finite residual ‖r‖ = %g at iteration %d", v, iters)
				case v <= opt.Tol*refNorm[pos]:
					res.Outcome = OutcomeConverged
				case v > divergenceTol*refNorm[pos]:
					res.Outcome = OutcomeDiverged
					res.Reason = fmt.Sprintf("residual ‖r‖ = %g exceeded %g·‖r₀‖ = %g at iteration %d",
						v, divergenceTol, divergenceTol*refNorm[pos], iters)
				default:
					dead[pos] = false
				}
				anyDead = anyDead || dead[pos]
			}
			if opt.Observer != nil {
				opt.Observer.ObserveIteration(iters, maxRn)
			}
			if anyDead {
				kA = s.deflate(results, n, kA, dead)
				if kA == 0 {
					break
				}
			}
			if iters == opt.MaxIter {
				// The budget is spent: no next direction, so no apply of M
				// and no β.
				break
			}
			s.applyBlock(m, z, r, n, kA)
			for _, j := range s.active {
				results[j].Metrics.PrecondApplies++
			}
			s.blockColSums(z, n, kA, mean)
			s.blockSubMeans(z, r, n, kA, mean, rzNew)
			anyDead = false
			for pos := 0; pos < kA; pos++ {
				dead[pos] = rzNew[pos] <= 0 || math.IsNaN(rzNew[pos])
				if dead[pos] {
					res := &results[s.active[pos]]
					res.Outcome = OutcomeBreakdown
					res.Reason = fmt.Sprintf("non-positive rᵀz = %g at iteration %d", rzNew[pos], iters)
					anyDead = true
				}
			}
			if anyDead {
				kA = s.deflate(results, n, kA, dead, rzNew)
				if kA == 0 {
					break
				}
			}
			for pos := 0; pos < kA; pos++ {
				beta[pos] = rzNew[pos] / rz[pos]
				res := &results[s.active[pos]]
				res.Betas = append(res.Betas, beta[pos])
			}
			blockXPBY(p, z, beta, n, kA)
			copy(rz[:kA], rzNew[:kA])
		}
	}

	// Columns still active (budget exhausted or cancelled) keep their current
	// iterate.
	for pos := 0; pos < kA; pos++ {
		dead[pos] = true
	}
	s.deflate(results, n, kA, dead)

	now := time.Now()
	for _, j := range cols {
		res := &results[j]
		res.Converged = res.Outcome == OutcomeConverged
		res.Metrics.Iterations = res.Iterations
		res.Metrics.FinalResidual = res.Residuals[len(res.Residuals)-1]
		// Timing and scratch growth are properties of the shared block
		// traversal; every column reports the block-level values.
		if !iterStart.IsZero() {
			res.Metrics.IterTime = now.Sub(iterStart)
		}
		res.Metrics.TotalTime = now.Sub(start)
		res.Metrics.SetupTime = res.Metrics.TotalTime - res.Metrics.IterTime
		res.Metrics.ScratchAllocs = s.allocs - startAllocs
		// Hand the (possibly grown) history buffers back for reuse.
		s.resid[j], s.alphas[j], s.betas[j] = res.Residuals, res.Alphas, res.Betas
	}
	if sp != nil {
		sp.Arg("k", k)
		sp.Arg("iterations", iters)
		sp.Arg("kernel", kernel.Name())
		if s.perm != nil {
			sp.Arg("space", "layout")
		} else {
			sp.Arg("space", "natural")
		}
	}
}

// deflate copies every dead column's iterate into its per-column solution
// buffer and left-compacts the packed block, the persistent per-position
// state (refNorm, rz) and any extra per-position arrays the caller is about
// to read (extras), then shrinks the active set. Returns the new width.
func (s *scratch) deflate(results []Result, n, kA int, dead []bool, extras ...[]float64) int {
	keep := s.keep[:0]
	for pos := 0; pos < kA; pos++ {
		if dead[pos] {
			xc := results[s.active[pos]].X
			if s.perm != nil {
				for v, u := range s.perm {
					xc[u] = s.x[v*kA+pos]
				}
			} else {
				for v := 0; v < n; v++ {
					xc[v] = s.x[v*kA+pos]
				}
			}
		} else {
			keep = append(keep, pos)
		}
	}
	s.keep = keep
	newK := len(keep)
	if newK == kA {
		return kA
	}
	if newK > 0 {
		compactPacked(s.x, n, kA, keep)
		compactPacked(s.r, n, kA, keep)
		compactPacked(s.z, n, kA, keep)
		compactPacked(s.p, n, kA, keep)
		compactPacked(s.ap, n, kA, keep)
		compactFlat(s.refNorm, keep)
		compactFlat(s.rz, keep)
		for _, ex := range extras {
			compactFlat(ex, keep)
		}
	}
	act := s.active
	for idx, pos := range keep {
		act[idx] = act[pos]
	}
	s.active = act[:newK]
	return newK
}

// compactFlat left-compacts a per-position array to the kept positions.
func compactFlat(buf []float64, keep []int) {
	for idx, pos := range keep {
		buf[idx] = buf[pos]
	}
}

// annotatePCGSpan stamps a PCG solve span with its width and what its columns
// did: a single column's termination summary, or the longest iteration count
// and how many converged. The nil-span fast path keeps the disabled-tracing
// case free of the boxing allocations the Arg calls would otherwise perform.
func annotatePCGSpan(sp *obs.Span, results []Result) {
	if sp == nil {
		return
	}
	sp.Arg("k", len(results))
	if len(results) == 1 {
		annotateSolveSpan(sp, &results[0])
		return
	}
	iterations, converged := 0, 0
	for i := range results {
		if results[i].Iterations > iterations {
			iterations = results[i].Iterations
		}
		if results[i].Converged {
			converged++
		}
	}
	sp.Arg("iterations", iterations)
	sp.Arg("converged", converged)
}
