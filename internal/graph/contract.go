package graph

import (
	"fmt"
	"math"
)

// Contract returns the quotient graph of g under the cluster assignment:
// assign[v] ∈ [0, m) names v's cluster, and the quotient has one vertex per
// cluster with w(ri, rj) = cap(Vi, Vj). Intra-cluster edges vanish. This is
// the graph Q of Definition 3.1 and algebraically equals RᵀAR off-diagonal.
//
// The kernel goes CSR to CSR in O(n + m) plus a sort of each (short) quotient
// row: a counting sort groups the vertices by cluster, one walk over each
// cluster's members accumulates its cross-cluster weight through a marker
// array, and a pass over the quotient assembles the rows. Only the upper
// triangle (a < b) is accumulated — members of a in ascending id, their
// neighbours in row order, which is the summation order that defines a
// quotient weight — and each finished value is copied onto its mirror (b, a),
// so the quotient is bitwise symmetric whatever the rounding. Rows come out
// sorted by neighbour id.
//
// An assignment that does not cover g or names a cluster outside [0, m), or
// an m above math.MaxInt32 (the quotient's ids are 32-bit), panics with an
// error wrapping ErrInvalidInput.
func (g *Graph) Contract(assign []int, m int) *Graph {
	n := g.N()
	if len(assign) != n {
		panic(fmt.Errorf("graph: Contract assignment covers %d vertices, graph has %d: %w", len(assign), n, ErrInvalidInput))
	}
	if m < 0 {
		panic(fmt.Errorf("graph: Contract cluster count %d is negative: %w", m, ErrInvalidInput))
	}
	if m > math.MaxInt32 {
		panic(fmt.Errorf("graph: Contract cluster count %d exceeds the 32-bit adjacency ids: %w", m, ErrInvalidInput))
	}
	// Counting sort by cluster. The fill advances end[c] from the start of
	// cluster c to its end, so afterwards cluster c's members are
	// members[end[c-1]:end[c]] (from 0 for c = 0), in ascending vertex id.
	end := make([]int, m+1)
	for v, c := range assign {
		if c < 0 || c >= m {
			panic(fmt.Errorf("graph: Contract assigns vertex %d to cluster %d of %d: %w", v, c, m, ErrInvalidInput))
		}
		end[c+1]++
	}
	for c := 0; c < m; c++ {
		end[c+1] += end[c]
	}
	members := make([]int, n)
	for v, c := range assign {
		members[end[c]] = v
		end[c]++
	}

	// Fine pass: the upper part (b > a) of every quotient row, each run
	// sorted by b, packed back to back into uadj/uw in row order. mark[b] is
	// the slot of entry (a, b), valid for the current row iff it lies at or
	// beyond the row's start. Every entry adds one to the length of row a and
	// one to its mirror's row b; counting the mirror here, not from b's side,
	// keeps the quotient symmetric on any input.
	// At most one entry per cross edge, and per pair of clusters when those
	// are few enough for the product to fit a 32-bit int.
	bound := g.M()
	if m <= 1<<15 && m*(m-1)/2 < bound {
		bound = m * (m - 1) / 2
	}
	uadj := make([]int32, 0, bound)
	uw := make([]float64, 0, bound)
	off := make([]int, m+1)
	mark := make([]int, m)
	for i := range mark {
		mark[i] = -1
	}
	lo := 0
	for a := 0; a < m; a++ {
		rowLo := len(uadj)
		for _, u := range members[lo:end[a]] {
			for i := g.off[u]; i < g.off[u+1]; i++ {
				b := assign[g.adj[i]]
				if b <= a {
					continue
				}
				if p := mark[b]; p >= rowLo {
					uw[p] += g.w[i]
				} else {
					mark[b] = len(uadj)
					uadj = append(uadj, int32(b))
					uw = append(uw, g.w[i])
					off[b+1]++
				}
			}
		}
		lo = end[a]
		sortRun(uadj[rowLo:], uw[rowLo:])
		off[a+1] += len(uadj) - rowLo
	}
	for a := 0; a < m; a++ {
		off[a+1] += off[a]
	}

	// Coarse pass: assemble the rows. cur[b] is the next free slot of row b.
	// Rows are visited in ascending a, so when row a is reached its lower part
	// (mirrors of rows < a, hence already in ascending order) is complete:
	// its upper run goes at cur[a] and fills the rest of the row.
	adj := make([]int32, off[m])
	w := make([]float64, off[m])
	cur := mark
	copy(cur, off[:m])
	lo = 0
	for a := 0; a < m; a++ {
		hi := lo + off[a+1] - cur[a]
		copy(adj[cur[a]:], uadj[lo:hi])
		copy(w[cur[a]:], uw[lo:hi])
		for p := lo; p < hi; p++ {
			b := uadj[p]
			adj[cur[b]], w[cur[b]] = int32(a), uw[p]
			cur[b]++
		}
		lo = hi
	}
	q, err := NewFromCSR(off, adj, w)
	if err != nil {
		panic(err)
	}
	return q
}
