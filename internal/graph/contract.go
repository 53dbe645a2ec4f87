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
// The kernel goes CSR to CSR in O(n + m) with no sort: a counting sort
// groups the vertices by cluster, one branch-free walk over the members
// compacts the half-edges that point to a higher cluster, a merge of each
// cluster's run through a marker array accumulates its cross-cluster weight,
// and two scatters over the quotient assemble the rows in neighbour order.
// Only the upper triangle (a < b) is accumulated — members of a in ascending
// id, their neighbours in row order, which is the summation order that
// defines a quotient weight — and each finished value is copied onto its
// mirror (b, a), so the quotient is bitwise symmetric whatever the rounding.
// Rows come out sorted by neighbour id.
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

	// Fine pass, first stream: the upward half-edges (neighbour in a cluster
	// b > a), in member order and then row order, compacted into uadj/uw.
	// Every half-edge is stored at slot k and k advances by the bit b > a, so
	// which half-edges point up — about a quarter, in no pattern — costs no
	// branch. end[a+1] becomes the end of cluster a's run; an empty cluster
	// keeps 0 and takes the previous run's end below. On a symmetric CSR at
	// most one half-edge per edge points up, and M + Δ leaves room for the
	// stores of any one row, so the capacity check never fires; only an
	// asymmetric CSR (NewFromCSR does not check symmetry) grows the buffer.
	size := g.M() + g.MaxDegree()
	uadj := make([]int32, size)
	uw := make([]float64, size)
	clear(end)
	k := 0
	for _, u := range members {
		a := assign[u]
		lo, hi := g.off[u], g.off[u+1]
		if k+hi-lo > len(uadj) {
			uadj = append(uadj, make([]int32, len(uadj)+hi-lo)...)
			uw = append(uw, make([]float64, len(uw)+hi-lo)...)
		}
		for i := lo; i < hi; i++ {
			b := assign[g.adj[i]]
			uadj[k], uw[k] = int32(b), g.w[i]
			k += int(uint64(a-b) >> 63)
		}
		end[a+1] = k
	}

	// Fine pass, second stream: merge each cluster's run in place into the
	// upper part (b > a) of its quotient row, in order of first appearance,
	// rows packed back to back from the start of uadj/uw. mark[b] is the slot
	// of entry (a, b), valid for the current row iff it lies at or beyond the
	// row's start. The write cursor top never passes the read cursor p, so a
	// merge only overwrites what it has read. Every entry adds one to the
	// length of row a and one to its mirror's row b; counting the mirror
	// here, not from b's side, keeps the quotient symmetric on any input.
	off := make([]int, m+1)
	mark := make([]int, m)
	for i := range mark {
		mark[i] = -1
	}
	lo, top := 0, 0
	for a := 0; a < m; a++ {
		hi := max(end[a+1], lo)
		rowLo := top
		for p := lo; p < hi; p++ {
			b := uadj[p]
			if s := mark[b]; s >= rowLo {
				uw[s] += uw[p]
			} else {
				mark[b] = top
				uadj[top], uw[top] = b, uw[p]
				top++
				off[b+1]++
			}
		}
		lo = hi
		off[a+1] += top - rowLo
	}
	for a := 0; a < m; a++ {
		off[a+1] += off[a]
	}

	// Coarse pass: two scatters, no sort. The first writes each entry (a, b)
	// onto its mirror, the next free slot cur[b] of row b. Rows a come in
	// ascending order, so every row's lower part arrives sorted, and row a's
	// is complete when a is reached: what is left of the row, from cur[a], is
	// its upper run's length, and cur[a] ends at the upper part's start. The
	// second walks the lower parts in ascending b and copies each entry back
	// onto row a's upper part, which so arrives sorted too. Weights are only
	// copied, so both halves carry the bits the merge summed.
	adj := make([]int32, off[m])
	w := make([]float64, off[m])
	cur := mark
	copy(cur, off[:m])
	lo = 0
	for a := 0; a < m; a++ {
		hi := lo + off[a+1] - cur[a]
		for p := lo; p < hi; p++ {
			b := uadj[p]
			adj[cur[b]], w[cur[b]] = int32(a), uw[p]
			cur[b]++
		}
		lo = hi
	}
	for b := 0; b < m; b++ {
		for p, hi := off[b], cur[b]; p < hi; p++ {
			a := adj[p]
			adj[cur[a]], w[cur[a]] = int32(b), w[p]
			cur[a]++
		}
	}
	q, err := NewFromCSR(off, adj, w)
	if err != nil {
		panic(err)
	}
	return q
}
