// Package dense provides the small dense linear algebra kernels the rest of
// the library needs: Cholesky factorizations (including kernel-pinned
// factorizations of singular graph Laplacians), a cyclic Jacobi eigensolver
// for symmetric matrices, and a QL-with-implicit-shifts eigensolver for
// symmetric tridiagonal matrices (used by the Lanczos code).
//
// Matrices are dense, row-major, and small by design: they appear only as
// the subgraph preconditioner's core, Schur-complement and spectral
// verifications, and test oracles — the hierarchy's and the Steiner
// preconditioner's direct Laplacian solves are sparse
// (internal/sparse.LapFactor).
package dense

import (
	"fmt"
	"math"
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len Rows*Cols
}

// NewMatrix returns a zero matrix of the given shape.
func NewMatrix(rows, cols int) *Matrix {
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromRowMajor wraps existing row-major data (not copied).
func FromRowMajor(rows, cols int, data []float64) *Matrix {
	if len(data) != rows*cols {
		panic("dense: data length does not match shape")
	}
	return &Matrix{Rows: rows, Cols: cols, Data: data}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Add accumulates into element (i, j).
func (m *Matrix) Add(i, j int, v float64) { m.Data[i*m.Cols+j] += v }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	return &Matrix{Rows: m.Rows, Cols: m.Cols, Data: append([]float64(nil), m.Data...)}
}

// MulVec computes dst = M·x.
func (m *Matrix) MulVec(dst, x []float64) {
	if len(x) != m.Cols || len(dst) != m.Rows {
		panic("dense: MulVec shape mismatch")
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		acc := 0.0
		for j, v := range row {
			acc += v * x[j]
		}
		dst[i] = acc
	}
}

// Cholesky holds the lower-triangular factor L of an SPD matrix A = L·Lᵀ.
type Cholesky struct {
	n int
	l []float64 // row-major lower triangle (full storage for simplicity)
}

// NewCholesky factors the symmetric positive definite matrix a (only the
// lower triangle is read). It returns an error if a pivot is not strictly
// positive, i.e. the matrix is not numerically SPD.
func NewCholesky(a *Matrix) (*Cholesky, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("dense: Cholesky needs square matrix, got %dx%d", a.Rows, a.Cols)
	}
	n := a.Rows
	l := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			sum := a.At(i, j)
			for k := 0; k < j; k++ {
				sum -= l[i*n+k] * l[j*n+k]
			}
			if i == j {
				if sum <= 0 || math.IsNaN(sum) {
					return nil, fmt.Errorf("dense: Cholesky pivot %d is %v (matrix not SPD)", i, sum)
				}
				l[i*n+i] = math.Sqrt(sum)
			} else {
				l[i*n+j] = sum / l[j*n+j]
			}
		}
	}
	return &Cholesky{n: n, l: l}, nil
}

// Solve solves A·x = b in place into dst (dst and b may alias).
func (c *Cholesky) Solve(dst, b []float64) {
	n := c.n
	if len(dst) != n || len(b) != n {
		panic("dense: Cholesky.Solve shape mismatch")
	}
	// Forward: L·y = b.
	for i := 0; i < n; i++ {
		sum := b[i]
		for k := 0; k < i; k++ {
			sum -= c.l[i*n+k] * dst[k]
		}
		dst[i] = sum / c.l[i*n+i]
	}
	// Backward: Lᵀ·x = y.
	for i := n - 1; i >= 0; i-- {
		sum := dst[i]
		for k := i + 1; k < n; k++ {
			sum -= c.l[k*n+i] * dst[k]
		}
		dst[i] = sum / c.l[i*n+i]
	}
}

// N returns the dimension of the factored matrix.
func (c *Cholesky) N() int { return c.n }
