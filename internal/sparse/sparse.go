// Package sparse provides compressed sparse row (CSR) matrices and the
// kernels the Steiner-preconditioner pipeline needs: parallel SpMV,
// transpose, CSR×CSR products, the RᵀAR triple product that assembles
// quotient Laplacians algebraically (paper Remark 1), Jacobi /
// Gauss–Seidel smoothing sweeps, and the sparse pinned Cholesky (LapFactor)
// behind the direct solves of the hierarchy's coarsest level and the Steiner
// quotient.
package sparse

import (
	"fmt"
	"sort"

	"hcd/internal/graph"
	"hcd/internal/par"
)

// CSR is a sparse matrix in compressed sparse row form.
type CSR struct {
	Rows, Cols int
	RowPtr     []int // len Rows+1
	ColIdx     []int // len nnz
	Val        []float64
}

// Triplet is a single (row, col, value) entry used for assembly.
type Triplet struct {
	Row, Col int
	Val      float64
}

// NewFromTriplets assembles a CSR matrix, summing duplicate coordinates.
func NewFromTriplets(rows, cols int, ts []Triplet) (*CSR, error) {
	for _, t := range ts {
		if t.Row < 0 || t.Row >= rows || t.Col < 0 || t.Col >= cols {
			return nil, fmt.Errorf("sparse: triplet (%d,%d) out of %dx%d", t.Row, t.Col, rows, cols)
		}
	}
	sorted := append([]Triplet(nil), ts...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Row != sorted[j].Row {
			return sorted[i].Row < sorted[j].Row
		}
		return sorted[i].Col < sorted[j].Col
	})
	m := &CSR{Rows: rows, Cols: cols, RowPtr: make([]int, rows+1)}
	for i := 0; i < len(sorted); {
		j := i
		v := 0.0
		for j < len(sorted) && sorted[j].Row == sorted[i].Row && sorted[j].Col == sorted[i].Col {
			v += sorted[j].Val
			j++
		}
		m.ColIdx = append(m.ColIdx, sorted[i].Col)
		m.Val = append(m.Val, v)
		m.RowPtr[sorted[i].Row+1]++
		i = j
	}
	for r := 0; r < rows; r++ {
		m.RowPtr[r+1] += m.RowPtr[r]
	}
	return m, nil
}

// NNZ returns the number of stored entries.
func (m *CSR) NNZ() int { return len(m.Val) }

// At returns entry (i, j), zero if not stored. O(row nnz).
func (m *CSR) At(i, j int) float64 {
	for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
		if m.ColIdx[k] == j {
			return m.Val[k]
		}
	}
	return 0
}

// MulVec computes dst = M·x in parallel over rows.
func (m *CSR) MulVec(dst, x []float64) {
	if len(x) != m.Cols || len(dst) != m.Rows {
		panic("sparse: MulVec shape mismatch")
	}
	par.For(m.Rows, 2048, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			acc := 0.0
			for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
				acc += m.Val[k] * x[m.ColIdx[k]]
			}
			dst[i] = acc
		}
	})
}

// Transpose returns Mᵀ.
func (m *CSR) Transpose() *CSR {
	t := &CSR{Rows: m.Cols, Cols: m.Rows, RowPtr: make([]int, m.Cols+1)}
	t.ColIdx = make([]int, m.NNZ())
	t.Val = make([]float64, m.NNZ())
	for _, c := range m.ColIdx {
		t.RowPtr[c+1]++
	}
	for c := 0; c < m.Cols; c++ {
		t.RowPtr[c+1] += t.RowPtr[c]
	}
	fill := append([]int(nil), t.RowPtr[:m.Cols]...)
	for r := 0; r < m.Rows; r++ {
		for k := m.RowPtr[r]; k < m.RowPtr[r+1]; k++ {
			c := m.ColIdx[k]
			t.ColIdx[fill[c]] = r
			t.Val[fill[c]] = m.Val[k]
			fill[c]++
		}
	}
	return t
}

// Mul returns M·B using a row-wise sparse accumulator. Rows are processed in
// parallel; each worker keeps its own dense scratch of size B.Cols.
func (m *CSR) Mul(b *CSR) *CSR {
	if m.Cols != b.Rows {
		panic("sparse: Mul shape mismatch")
	}
	type rowResult struct {
		cols []int
		vals []float64
	}
	results := make([]rowResult, m.Rows)
	par.For(m.Rows, 256, func(lo, hi int) {
		scratch := make([]float64, b.Cols)
		mark := make([]int, b.Cols)
		for i := range mark {
			mark[i] = -1
		}
		var touched []int
		for i := lo; i < hi; i++ {
			touched = touched[:0]
			for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
				a := m.Val[k]
				r := m.ColIdx[k]
				for kb := b.RowPtr[r]; kb < b.RowPtr[r+1]; kb++ {
					c := b.ColIdx[kb]
					if mark[c] != i {
						mark[c] = i
						scratch[c] = 0
						touched = append(touched, c)
					}
					scratch[c] += a * b.Val[kb]
				}
			}
			sort.Ints(touched)
			cols := make([]int, len(touched))
			vals := make([]float64, len(touched))
			for j, c := range touched {
				cols[j] = c
				vals[j] = scratch[c]
			}
			results[i] = rowResult{cols: cols, vals: vals}
		}
	})
	out := &CSR{Rows: m.Rows, Cols: b.Cols, RowPtr: make([]int, m.Rows+1)}
	for i, r := range results {
		out.RowPtr[i+1] = out.RowPtr[i] + len(r.cols)
	}
	out.ColIdx = make([]int, out.RowPtr[m.Rows])
	out.Val = make([]float64, out.RowPtr[m.Rows])
	for i, r := range results {
		copy(out.ColIdx[out.RowPtr[i]:], r.cols)
		copy(out.Val[out.RowPtr[i]:], r.vals)
	}
	return out
}

// Laplacian returns the Laplacian of g as a CSR matrix (diagonal included).
func Laplacian(g *graph.Graph) *CSR {
	n := g.N()
	ts := make([]Triplet, 0, 2*g.M()+n)
	for v := 0; v < n; v++ {
		nbr, w := g.Neighbors(v)
		for i, u := range nbr {
			ts = append(ts, Triplet{Row: v, Col: int(u), Val: -w[i]})
		}
		ts = append(ts, Triplet{Row: v, Col: v, Val: g.Vol(v)})
	}
	m, err := NewFromTriplets(n, n, ts)
	if err != nil {
		panic(err) // impossible by construction
	}
	return m
}

// Indicator returns the n×m 0-1 cluster membership matrix R with
// R[v, assign[v]] = 1, as in the paper's Remark 1 and Theorem 4.1.
func Indicator(assign []int, m int) *CSR {
	n := len(assign)
	r := &CSR{Rows: n, Cols: m, RowPtr: make([]int, n+1), ColIdx: make([]int, n), Val: make([]float64, n)}
	for v, c := range assign {
		if c < 0 || c >= m {
			panic("sparse: Indicator assignment out of range")
		}
		r.RowPtr[v+1] = v + 1
		r.ColIdx[v] = c
		r.Val[v] = 1
	}
	return r
}

// QuotientLaplacian computes RᵀAR — algebraically the Laplacian of the
// quotient graph Q of Definition 3.1 — via parallel sparse products.
func QuotientLaplacian(a *CSR, r *CSR) *CSR {
	return r.Transpose().Mul(a.Mul(r))
}
