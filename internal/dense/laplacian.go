package dense

import "fmt"

// PinnedLaplacian is a direct solver for a (singular) graph Laplacian: one
// vertex per connected component is "pinned" to zero, the remaining principal
// submatrix is SPD and Cholesky-factored. For right-hand sides orthogonal to
// the all-ones vector on every component, Solve followed by per-component
// de-meaning returns exactly the pseudo-inverse solution A⁺b.
type PinnedLaplacian struct {
	n     int
	free  []int // free vertex ids in factor order
	where []int // vertex -> index in free, or −1 if pinned
	comp  []int // component label per vertex
	ncomp int
	chol  *Cholesky
	buf   []float64
	csize []int // component sizes, for de-meaning
	csum  []float64
}

// NewPinnedLaplacian factors the dense Laplacian a whose connectivity is
// described by comp (component label per vertex, labels in [0, ncomp)). The
// first vertex of each component is pinned.
func NewPinnedLaplacian(a *Matrix, comp []int, ncomp int) (*PinnedLaplacian, error) {
	n := a.Rows
	if a.Cols != n || len(comp) != n {
		return nil, fmt.Errorf("dense: PinnedLaplacian shape mismatch")
	}
	pinned := make([]int, ncomp)
	for i := range pinned {
		pinned[i] = -1
	}
	where := make([]int, n)
	var free []int
	for v := 0; v < n; v++ {
		c := comp[v]
		if c < 0 || c >= ncomp {
			return nil, fmt.Errorf("dense: component label %d out of range", c)
		}
		if pinned[c] < 0 {
			pinned[c] = v
			where[v] = -1
		} else {
			where[v] = len(free)
			free = append(free, v)
		}
	}
	sub := NewMatrix(len(free), len(free))
	for i, vi := range free {
		for j, vj := range free {
			sub.Set(i, j, a.At(vi, vj))
		}
	}
	var chol *Cholesky
	if len(free) > 0 {
		var err error
		chol, err = NewCholesky(sub)
		if err != nil {
			return nil, fmt.Errorf("dense: pinned Laplacian not SPD on free vertices: %w", err)
		}
	}
	csize := make([]int, ncomp)
	for _, c := range comp {
		csize[c]++
	}
	return &PinnedLaplacian{
		n: n, free: free, where: where, comp: comp, ncomp: ncomp,
		chol: chol, buf: make([]float64, len(free)),
		csize: csize, csum: make([]float64, ncomp),
	}, nil
}

// Solve writes into dst a solution of A·x = b with zero mean on every
// component. b must be orthogonal to the constant vector on each component
// (up to roundoff); this is not checked. Not safe for concurrent use
// (internal scratch).
func (p *PinnedLaplacian) Solve(dst, b []float64) {
	if len(dst) != p.n || len(b) != p.n {
		panic("dense: PinnedLaplacian.Solve shape mismatch")
	}
	for i, v := range p.free {
		p.buf[i] = b[v]
	}
	if p.chol != nil {
		p.chol.Solve(p.buf, p.buf)
	}
	for v := 0; v < p.n; v++ {
		if w := p.where[v]; w >= 0 {
			dst[v] = p.buf[w]
		} else {
			dst[v] = 0
		}
	}
	// De-mean per component so the answer matches the pseudo-inverse.
	for c := range p.csum {
		p.csum[c] = 0
	}
	for v := 0; v < p.n; v++ {
		p.csum[p.comp[v]] += dst[v]
	}
	for v := 0; v < p.n; v++ {
		dst[v] -= p.csum[p.comp[v]] / float64(p.csize[p.comp[v]])
	}
}

// N returns the dimension.
func (p *PinnedLaplacian) N() int { return p.n }
