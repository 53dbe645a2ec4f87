// Package sparse holds LapFactor, the minimum-degree sparse pinned Cholesky
// behind every exact Laplacian solve of the library: the coarsest level of a
// hierarchy (a Steiner preconditioner's quotient among them) and the subgraph
// preconditioner of Figure 6.
package sparse

import (
	"fmt"
	"math"

	"hcd/internal/graph"
	"hcd/internal/kernel"
)

// LapFactor is a sparse direct solver for a (singular) graph Laplacian, sized
// for the coarsest graph of a hierarchy, Steiner quotients and subgraph
// preconditioners: a few hundred to a few thousand vertices of a contracted
// mesh, or a spanning tree with a few off-tree edges, whose small separators
// keep the Cholesky factor sparse.
//
// The first (lowest-id) vertex of every connected component is pinned to
// zero; the remaining principal submatrix is SPD and factored as L·Lᵀ after
// a minimum-degree ordering. For right-hand sides orthogonal to the all-ones
// vector on every component, Solve returns exactly the pseudo-inverse
// solution A⁺b: the pinned solve followed by per-component de-meaning.
//
// L is stored column-compressed with its row indices in *original* vertex
// numbering, so the triangular solves run in place in the caller's vector —
// forward as a column scatter, backward as a column gather — and the pinned
// rows, which no column of L references, serve as the per-component
// accumulators of the de-meaning. A LapFactor is immutable after
// construction: Solve and SolveBlock keep no state and are safe for
// concurrent use.
type LapFactor struct {
	n      int
	order  []int32   // free vertices in elimination order; column j of L belongs to order[j]
	colPtr []int32   // column j occupies rowIdx/val[colPtr[j]:colPtr[j+1]]
	rowIdx []int32   // below-diagonal rows of each column, as original vertex ids
	val    []float64 // parallel to rowIdx
	diag   []float64 // L[j][j]
	pin    []int32   // per vertex: the pinned vertex of its component (itself when pinned)
	pins   []int32   // the pinned vertices, ascending: one per component
	csize  []float64 // component sizes, parallel to pins
	nnzA   int       // stored lower-triangle entries of the matrix that was factored
}

// NewLapFactor orders and factors the Laplacian of g. Every pivot is a sum of
// non-negative terms and lies in (0, vol(v)] in exact arithmetic, so no
// weight spread cancels one to zero; only an underflow can (a ground weight
// below 2⁻¹⁰⁷⁴ carried through a heavy column), and that pivot is an error
// wrapping graph.ErrInvalidInput.
func NewLapFactor(g *graph.Graph) (*LapFactor, error) {
	n := g.N()
	// Components labels components in order of their lowest vertex, so the
	// c-th pinned vertex is the first one carrying label c.
	comp, ncomp := g.Components()
	f := &LapFactor{
		n:     n,
		pin:   make([]int32, n),
		pins:  make([]int32, 0, ncomp),
		csize: make([]float64, ncomp),
	}
	for v, c := range comp {
		if c == len(f.pins) {
			f.pins = append(f.pins, int32(v))
		}
		f.pin[v] = f.pins[c]
		f.csize[c]++
	}
	pos := f.eliminate(g)
	if err := f.factorize(g, pos); err != nil {
		return nil, err
	}
	return f, nil
}

// eliminate chooses the elimination order and records the structure of L in
// one pass: minimum degree on the elimination graph, ties to the smallest
// vertex id, the pivot popped from a pivotHeap. It fills order, colPtr,
// rowIdx (each column in discovery order) and nnzA, and returns each
// vertex's elimination position (−1 if pinned).
//
// The elimination graph is kept as a quotient graph: a vertex's list holds
// its uneliminated neighbours (u ≥ 0) and the eliminated pivots it is
// adjacent to (^e < 0), each standing for the clique on that pivot's column
// structure. Eliminating v absorbs every pivot in v's list into v, so a
// rewritten list never outgrows the slot it started in and the whole
// ordering runs in the O(m) arrays allocated up front plus the recorded
// structure. Degrees are exact and the heap's key (degree, id) is a total
// order, so the pivot it pops is the one a scan of all degrees would pick and
// the order is a function of the graph alone — the determinism contract
// (bit-identical rebuilds, snapshot round trips) rests on that, and is why
// ties break by id rather than by whatever a bucket structure would pop
// first.
func (f *LapFactor) eliminate(g *graph.Graph) (pos []int32) {
	n := f.n
	nf := n - len(f.pins)
	lptr := make([]int32, n)
	llen := make([]int32, n)
	pos = make([]int32, n)
	total := 0
	for v := 0; v < n; v++ {
		lptr[v] = int32(total)
		total += g.Degree(v)
	}
	list := make([]int32, total)
	f.nnzA = nf
	for v := 0; v < n; v++ {
		pos[v] = -1
		if f.pin[v] == int32(v) {
			continue
		}
		nbr, _ := g.Neighbors(v)
		k := lptr[v]
		for _, u := range nbr {
			if f.pin[u] != u {
				list[k] = u
				k++
				if int(u) > v {
					f.nnzA++
				}
			}
		}
		llen[v] = k - lptr[v]
	}

	f.order = make([]int32, 0, nf)
	f.colPtr = make([]int32, 1, nf+1)
	f.rowIdx = make([]int32, 0, total)
	// tag stamps vertices: during pivot j's step, tag == stamp marks the
	// pivot, its column structure and the pivots it absorbs; the stamps above
	// it mark what has been counted into one neighbour's degree.
	tag := make([]int32, n)
	var stamp int32
	column := func(e int32) []int32 { return f.rowIdx[f.colPtr[pos[e]]:f.colPtr[pos[e]+1]] }
	// The pivot queue starts from every free vertex's degree: its list.
	q := pivotHeap{keys: make([]uint64, 0, nf), at: make([]int32, n)}
	for v := 0; v < n; v++ {
		if f.pin[v] != int32(v) {
			q.keys = append(q.keys, pivotKey(llen[v], int32(v)))
		}
	}
	q.init()
	for j := 0; j < nf; j++ {
		v := int(q.pop())
		// Column structure of v: its neighbours, directly or through a pivot.
		stamp++
		tag[v] = stamp
		start := len(f.rowIdx)
		for _, x := range list[lptr[v] : lptr[v]+llen[v]] {
			if x >= 0 {
				if tag[x] != stamp {
					tag[x] = stamp
					f.rowIdx = append(f.rowIdx, x)
				}
				continue
			}
			tag[^x] = stamp
			for _, w := range column(^x) {
				if tag[w] != stamp {
					tag[w] = stamp
					f.rowIdx = append(f.rowIdx, w)
				}
			}
		}
		pos[v] = int32(j)
		f.order = append(f.order, int32(v))
		f.colPtr = append(f.colPtr, int32(len(f.rowIdx)))
		s := f.rowIdx[start:]
		counted := stamp
		for _, u := range s {
			// u now reaches v, the rest of s and every absorbed pivot through
			// the new pivot v: drop those entries (at least one goes, which
			// makes room) and append ^v.
			base := lptr[u]
			k := base
			for _, x := range list[base : base+llen[u]] {
				y := x
				if y < 0 {
					y = ^y
				}
				if tag[y] != stamp {
					list[k] = x
					k++
				}
			}
			rest := list[base:k]
			list[k] = ^int32(v)
			llen[u] = k + 1 - base
			// Degree: s without u, plus whatever else the kept entries reach.
			// Nothing in s is ever re-tagged, so one array answers both "in
			// s" and "already counted for u".
			counted++
			d := int32(len(s) - 1)
			for _, x := range rest {
				if x >= 0 {
					if tag[x] != counted {
						tag[x] = counted
						d++
					}
					continue
				}
				for _, w := range column(^x) {
					if t := tag[w]; t != stamp && t != counted {
						tag[w] = counted
						d++
					}
				}
			}
			q.fix(u, d)
		}
		stamp = counted
	}
	return pos
}

// pivotHeap is an indexed binary min-heap of the vertices not yet eliminated
// and not pinned, keyed (degree, id) packed into one uint64: popping it is
// eliminate's pivot choice in O(log n) where a scan of all degrees costs
// O(n), and a key is compared without looking the degree up.
type pivotHeap struct {
	keys []uint64 // pivotKey(degree, v), heap-ordered
	at   []int32  // at[v]: index of v's key in keys
}

func pivotKey(deg, v int32) uint64 { return uint64(uint32(deg))<<32 | uint64(uint32(v)) }

// init heap-orders keys and indexes them.
func (q *pivotHeap) init() {
	for i, k := range q.keys {
		q.at[uint32(k)] = int32(i)
	}
	for i := len(q.keys)/2 - 1; i >= 0; i-- {
		q.down(i, q.keys[i])
	}
}

// up places key k, whose slot i is free, at i or above it.
func (q *pivotHeap) up(i int, k uint64) {
	for i > 0 {
		p := (i - 1) / 2
		if q.keys[p] < k {
			break
		}
		q.put(i, q.keys[p])
		i = p
	}
	q.put(i, k)
}

// down places key k, whose slot i is free, at i or below it.
func (q *pivotHeap) down(i int, k uint64) {
	n := len(q.keys)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && q.keys[c+1] < q.keys[c] {
			c++
		}
		if k < q.keys[c] {
			break
		}
		q.put(i, q.keys[c])
		i = c
	}
	q.put(i, k)
}

func (q *pivotHeap) put(i int, k uint64) {
	q.keys[i] = k
	q.at[uint32(k)] = int32(i)
}

// pop removes and returns the vertex of smallest (degree, id).
func (q *pivotHeap) pop() int32 {
	top, last := q.keys[0], q.keys[len(q.keys)-1]
	q.keys = q.keys[:len(q.keys)-1]
	if len(q.keys) > 0 {
		q.down(0, last)
	}
	return int32(uint32(top))
}

// fix re-keys v, which is in the heap, to degree d.
func (q *pivotHeap) fix(v, d int32) {
	i, k := int(q.at[v]), pivotKey(d, v)
	if k < q.keys[i] {
		q.up(i, k)
	} else {
		q.down(i, k)
	}
}

// factorize sorts every column of the recorded structure by elimination
// position and runs the numeric phase: a left-looking column Cholesky that,
// for column j, applies the columns k < j with L[j][k] ≠ 0 in ascending k —
// the summation order of the dense row-by-row factorization for the entries
// below the diagonal. The pivot is formed without subtraction instead, as in
// the Grassmann–Taksar–Heyman elimination of M-matrices.
func (f *LapFactor) factorize(g *graph.Graph, pos []int32) error {
	nf, nnz := len(f.order), len(f.rowIdx)
	// Row structure of L (for each j the columns k with L[j][k] ≠ 0,
	// ascending), read off the columns; writing the columns back from it in
	// ascending row position sorts them.
	rptr := make([]int32, nf+1)
	for _, r := range f.rowIdx {
		rptr[pos[r]+1]++
	}
	for i := 0; i < nf; i++ {
		rptr[i+1] += rptr[i]
	}
	rcol := make([]int32, nnz)
	next := make([]int32, nf)
	copy(next, rptr)
	for k := 0; k < nf; k++ {
		for _, r := range f.rowIdx[f.colPtr[k]:f.colPtr[k+1]] {
			i := pos[r]
			rcol[next[i]] = int32(k)
			next[i]++
		}
	}
	sorted := make([]int32, nnz) // exact size: the recorded slice carries append's spare capacity
	copy(next, f.colPtr)
	for i, v := range f.order {
		for _, k := range rcol[rptr[i]:rptr[i+1]] {
			sorted[next[k]] = v
			next[k]++
		}
	}
	f.rowIdx = sorted

	f.val = make([]float64, nnz)
	f.diag = make([]float64, nf)
	scratch := make([]float64, f.n+nf)
	x := scratch[:f.n]     // column accumulator by vertex id, zero between columns
	sigma := scratch[f.n:] // sigma[k]: column k's ground weight ÷ L[k][k]
	copy(next, f.colPtr)   // next[k]: column k's entry for the row being factored
	for j, v := range f.order {
		// The Schur complement of the columns before j is again a Laplacian,
		// grounded at the pins, so its diagonal entry for v is v's weight to
		// ground plus its weights to the vertices not yet eliminated. Both
		// are sums of non-negative terms: ground starts as the weight to the
		// pin and gains −L[j][k]·sigma[k] from every column k that reaches
		// v, and the off-diagonals x[r] only decrease.
		nbr, w := g.Neighbors(int(v))
		ground := 0.0
		for i, u := range nbr {
			switch p := pos[u]; {
			case p < 0:
				ground += w[i]
			case p > int32(j):
				x[u] -= w[i]
			}
		}
		for _, k := range rcol[rptr[j]:rptr[j+1]] {
			p := next[k]
			next[k] = p + 1
			ljk := f.val[p]
			ground -= ljk * sigma[k]
			rows := f.rowIdx[p+1 : f.colPtr[k+1]]
			vals := f.val[p+1 : f.colPtr[k+1]]
			for q, r := range rows {
				x[r] -= vals[q] * ljk
			}
		}
		d := ground
		for _, r := range f.rowIdx[f.colPtr[j]:f.colPtr[j+1]] {
			d -= x[r]
		}
		if !(d > 0) {
			return fmt.Errorf("sparse: Laplacian pivot %d (vertex %d) is %v (its ground weight underflowed): %w", j, v, d, graph.ErrInvalidInput)
		}
		l := math.Sqrt(d)
		f.diag[j] = l
		sigma[j] = ground / l
		for q := f.colPtr[j]; q < f.colPtr[j+1]; q++ {
			r := f.rowIdx[q]
			f.val[q] = x[r] / l
			x[r] = 0
		}
	}
	return nil
}

// Dim returns the number of vertices of the factored graph.
func (f *LapFactor) Dim() int { return f.n }

// NNZ returns the number of stored entries of L, diagonal included.
func (f *LapFactor) NNZ() int { return len(f.val) + len(f.diag) }

// Fill returns nnz(L) ÷ nnz(lower triangle of the pinned Laplacian): 1 means
// the factor is as sparse as the matrix.
func (f *LapFactor) Fill() float64 {
	if f.nnzA == 0 {
		return 1
	}
	return float64(f.NNZ()) / float64(f.nnzA)
}

// Bytes returns the resident size of the factor: values, int32 row indices,
// column pointers, order and the pinning tables.
func (f *LapFactor) Bytes() int64 {
	return 8*int64(len(f.val)+len(f.diag)+len(f.csize)) +
		4*int64(len(f.rowIdx)+len(f.colPtr)+len(f.order)+len(f.pin)+len(f.pins))
}

// Solve writes into dst a solution of A·x = b with zero mean on every
// component. b must be orthogonal to the constant vector on each component
// (up to roundoff); this is not checked. dst and b may alias. Operands of any
// other length than the factor's dimension panic, before anything is written,
// with an error wrapping graph.ErrInvalidInput. It is SolveBlock at width 1.
func (f *LapFactor) Solve(dst, b []float64) {
	f.checkOperands("Solve", dst, b, 1)
	f.SolveBlock(dst, b, 1)
}

// checkOperands panics unless k ≥ 1 and dst and b each hold exactly n·k
// entries.
func (f *LapFactor) checkOperands(method string, dst, b []float64, k int) {
	if k < 1 {
		panic(fmt.Errorf("sparse: LapFactor.%s: width k = %d: %w", method, k, graph.ErrInvalidInput))
	}
	check := func(name string, have int) {
		if have != f.n*k {
			panic(fmt.Errorf("sparse: LapFactor.%s: len(%s) = %d, want n·k = %d (n = %d, k = %d): %w", method, name, have, f.n*k, f.n, k, graph.ErrInvalidInput))
		}
	}
	check("dst", len(dst))
	check("b", len(b))
}

// SolveBlock solves A·X = B for k packed right-hand sides (row-major: entry
// (v, j) at b[v*k+j]) with zero mean per component on every column. The
// factor is streamed once per column tile of kernel.Tiles — 8 wide, then 4,
// each through internal/kernel's CholTile (Go or AVX2, as its probe decides)
// — and once for each column no tile takes, by solveCol; per column a tile's
// operation order is solveCol's, so the results are bit-identical to k solves
// of one column. dst and b may alias; they are checked as Solve's are,
// against n·k: an over-long operand panics like a short one.
func (f *LapFactor) SolveBlock(dst, b []float64, k int) {
	f.checkOperands("SolveBlock", dst, b, k)
	copy(dst, b)
	for _, p := range f.pins {
		row := dst[int(p)*k : int(p)*k+k]
		for j := range row {
			row[j] = 0
		}
	}
	for j := kernel.Tiles(k, func(width, j int) { f.solveTile(width, dst, k, j) }); j < k; j++ {
		f.solveCol(dst, k, j)
	}
	f.demean(dst, k)
}

// solveTile runs both triangular solves on columns [j0, j0+width), width 8 or
// 4: the forward scatter over every column of L, then the backward gather.
func (f *LapFactor) solveTile(width int, dst []float64, k, j0 int) {
	nf := len(f.order)
	kernel.CholTile(width, false, dst, f.diag, f.val, f.order, f.colPtr, f.rowIdx, k, j0, 0, nf)
	kernel.CholTile(width, true, dst, f.diag, f.val, f.order, f.colPtr, f.rowIdx, k, j0, 0, nf)
}

// solveCol runs both triangular solves on column j of the packed width-k
// block — at k = 1, the whole solve.
func (f *LapFactor) solveCol(dst []float64, k, j int) {
	// Forward: L·y = b, scattering each finished y down its column.
	for c, v := range f.order {
		o := int(v)*k + j
		y := dst[o] / f.diag[c]
		dst[o] = y
		rows := f.rowIdx[f.colPtr[c]:f.colPtr[c+1]]
		vals := f.val[f.colPtr[c]:f.colPtr[c+1]]
		for q, r := range rows {
			dst[int(r)*k+j] -= vals[q] * y
		}
	}
	// Backward: Lᵀ·x = y, gathering each column against the finished x.
	for c := len(f.order) - 1; c >= 0; c-- {
		o := int(f.order[c])*k + j
		s := dst[o]
		rows := f.rowIdx[f.colPtr[c]:f.colPtr[c+1]]
		vals := f.val[f.colPtr[c]:f.colPtr[c+1]]
		for q, r := range rows {
			s -= vals[q] * dst[int(r)*k+j]
		}
		dst[o] = s / f.diag[c]
	}
}

// demean shifts every column of the pinned solution to zero mean per
// component, so the answer matches the pseudo-inverse: the pinned entries
// (zero so far) accumulate their component's sum, which every member then
// subtracts. It walks whole rows, so the columns' sums into a pinned entry
// are independent chains in flight together.
func (f *LapFactor) demean(dst []float64, k int) {
	for v, p := range f.pin {
		if po, vo := int(p)*k, v*k; int(p) != v {
			for j := 0; j < k; j++ {
				dst[po+j] += dst[vo+j]
			}
		}
	}
	for c, p := range f.pins {
		po := int(p) * k
		for j := 0; j < k; j++ {
			dst[po+j] /= f.csize[c]
		}
	}
	for v, p := range f.pin {
		if po, vo := int(p)*k, v*k; int(p) != v {
			for j := 0; j < k; j++ {
				dst[vo+j] -= dst[po+j]
			}
		}
	}
	for _, p := range f.pins {
		po := int(p) * k
		for j := 0; j < k; j++ {
			dst[po+j] = 0 - dst[po+j]
		}
	}
}
