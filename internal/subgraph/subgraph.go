// Package subgraph implements classical subgraph (Vaidya-style)
// preconditioners: a spanning tree plus a few off-tree edges, applied by
// greedy partial Cholesky elimination of degree-1 and degree-2 vertices down
// to a dense-factored core. This is the baseline the paper compares Steiner
// preconditioners against in Figure 6, and Remark 2's foil: the elimination
// order here is an inherently sequential chain, in contrast to the
// cluster-wise sums of the Steiner apply.
package subgraph

import (
	"fmt"
	"sort"

	"hcd/internal/dense"
	"hcd/internal/graph"
)

type opKind uint8

const (
	opDeg0 opKind = iota // isolated vertex: x = 0
	opDeg1               // leaf elimination
	opDeg2               // series elimination
)

type elimOp struct {
	kind   opKind
	v      int
	u1, u2 int
	w1, w2 float64
}

// Preconditioner applies B⁺ for the subgraph B via partial Cholesky plus a
// dense core factorization.
type Preconditioner struct {
	n        int
	ops      []elimOp
	core     []int // core vertex ids
	coreIdx  []int // vertex -> core index or −1
	pin      *dense.PinnedLaplacian
	comp     []int // component of B per vertex (for de-meaning)
	compSize []int
	// scratch
	work, coreRHS, coreSol, compSum []float64
}

// Stats describes the elimination outcome.
type Stats struct {
	CoreSize   int
	Eliminated int
}

// New builds the preconditioner for the graph b. CoreLimit guards the dense
// factorization: if the remaining core exceeds it, New returns an error
// (choose a sparser b or a bigger limit).
func New(b *graph.Graph, coreLimit int) (*Preconditioner, Stats, error) {
	n := b.N()
	adj := make([]map[int]float64, n)
	for v := 0; v < n; v++ {
		m := make(map[int]float64)
		nbr, w := b.Neighbors(v)
		for i, u := range nbr {
			m[int(u)] = w[i]
		}
		adj[v] = m
	}
	alive := make([]bool, n)
	var queue []int
	for v := 0; v < n; v++ {
		alive[v] = true
		if len(adj[v]) <= 2 {
			queue = append(queue, v)
		}
	}
	p := &Preconditioner{n: n, coreIdx: make([]int, n)}
	for len(queue) > 0 {
		v := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if !alive[v] || len(adj[v]) > 2 {
			continue
		}
		alive[v] = false
		switch len(adj[v]) {
		case 0:
			p.ops = append(p.ops, elimOp{kind: opDeg0, v: v})
		case 1:
			var u int
			var w float64
			for uu, ww := range adj[v] {
				u, w = uu, ww
			}
			delete(adj[u], v)
			p.ops = append(p.ops, elimOp{kind: opDeg1, v: v, u1: u, w1: w})
			if alive[u] && len(adj[u]) <= 2 {
				queue = append(queue, u)
			}
		case 2:
			us := make([]int, 0, 2)
			ws := make([]float64, 0, 2)
			for uu, ww := range adj[v] {
				us = append(us, uu)
				ws = append(ws, ww)
			}
			// Map order must not pick which neighbor is u1: the pair decides
			// the order the neighbors are queued in, hence the elimination
			// order and the rounding of everything after it.
			if us[0] > us[1] {
				us[0], us[1] = us[1], us[0]
				ws[0], ws[1] = ws[1], ws[0]
			}
			u1, u2 := us[0], us[1]
			w1, w2 := ws[0], ws[1]
			delete(adj[u1], v)
			delete(adj[u2], v)
			adj[u1][u2] += w1 * w2 / (w1 + w2)
			adj[u2][u1] += w1 * w2 / (w1 + w2)
			p.ops = append(p.ops, elimOp{kind: opDeg2, v: v, u1: u1, u2: u2, w1: w1, w2: w2})
			if alive[u1] && len(adj[u1]) <= 2 {
				queue = append(queue, u1)
			}
			if alive[u2] && len(adj[u2]) <= 2 {
				queue = append(queue, u2)
			}
		}
	}
	for v := 0; v < n; v++ {
		p.coreIdx[v] = -1
		if alive[v] {
			p.coreIdx[v] = len(p.core)
			p.core = append(p.core, v)
		}
	}
	st := Stats{CoreSize: len(p.core), Eliminated: n - len(p.core)}
	if len(p.core) > coreLimit {
		return nil, st, fmt.Errorf("subgraph: core size %d exceeds limit %d", len(p.core), coreLimit)
	}
	if len(p.core) > 0 {
		m := len(p.core)
		lap := dense.NewMatrix(m, m)
		var nbr []int
		for i, v := range p.core {
			// Sorted neighbor order fixes the summation order of the diagonal.
			nbr = nbr[:0]
			for u := range adj[v] {
				nbr = append(nbr, u)
			}
			sort.Ints(nbr)
			for _, u := range nbr {
				w := adj[v][u]
				lap.Add(i, p.coreIdx[u], -w)
				lap.Add(i, i, w)
			}
		}
		coreGraphComp, nc := coreComponents(adj, p.core, p.coreIdx)
		pin, err := dense.NewPinnedLaplacian(lap, coreGraphComp, nc)
		if err != nil {
			return nil, st, fmt.Errorf("subgraph: core factorization failed: %w", err)
		}
		p.pin = pin
		p.coreRHS = make([]float64, m)
		p.coreSol = make([]float64, m)
	}
	p.comp, _ = b.Components()
	nc := 0
	for _, c := range p.comp {
		if c+1 > nc {
			nc = c + 1
		}
	}
	p.compSize = make([]int, nc)
	for _, c := range p.comp {
		p.compSize[c]++
	}
	p.compSum = make([]float64, nc)
	p.work = make([]float64, n)
	return p, st, nil
}

func coreComponents(adj []map[int]float64, core []int, coreIdx []int) ([]int, int) {
	comp := make([]int, len(core))
	for i := range comp {
		comp[i] = -1
	}
	nc := 0
	for i := range core {
		if comp[i] >= 0 {
			continue
		}
		stack := []int{i}
		comp[i] = nc
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for u := range adj[core[x]] {
				j := coreIdx[u]
				if j >= 0 && comp[j] < 0 {
					comp[j] = nc
					stack = append(stack, j)
				}
			}
		}
		nc++
	}
	return comp, nc
}

// ProbeCoreSize runs only the degree-1/2 elimination (no numerics) and
// returns the size of the remaining core — cheap enough to drive parameter
// searches like the matched-reduction construction of Figure 6.
func ProbeCoreSize(b *graph.Graph) int {
	n := b.N()
	adj := make([]map[int]bool, n)
	for v := 0; v < n; v++ {
		m := make(map[int]bool)
		nbr, _ := b.Neighbors(v)
		for _, u := range nbr {
			m[int(u)] = true
		}
		adj[v] = m
	}
	alive := make([]bool, n)
	var queue []int
	for v := 0; v < n; v++ {
		alive[v] = true
		if len(adj[v]) <= 2 {
			queue = append(queue, v)
		}
	}
	count := n
	for len(queue) > 0 {
		v := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if !alive[v] || len(adj[v]) > 2 {
			continue
		}
		alive[v] = false
		count--
		var us []int
		for u := range adj[v] {
			us = append(us, u)
		}
		for _, u := range us {
			delete(adj[u], v)
		}
		if len(us) == 2 {
			if us[0] > us[1] { // same pair order as New, so both eliminate alike
				us[0], us[1] = us[1], us[0]
			}
			adj[us[0]][us[1]] = true
			adj[us[1]][us[0]] = true
		}
		for _, u := range us {
			if alive[u] && len(adj[u]) <= 2 {
				queue = append(queue, u)
			}
		}
	}
	return count
}

// Dim returns the system dimension.
func (p *Preconditioner) Dim() int { return p.n }

// Apply computes dst = B⁺·r: forward elimination of the recorded ops, a
// dense core solve, and back-substitution, followed by per-component
// de-meaning so the result matches the pseudo-inverse on range(B).
func (p *Preconditioner) Apply(dst, r []float64) {
	copy(p.work, r)
	for _, op := range p.ops {
		switch op.kind {
		case opDeg1:
			p.work[op.u1] += p.work[op.v]
		case opDeg2:
			s := p.work[op.v] / (op.w1 + op.w2)
			p.work[op.u1] += op.w1 * s
			p.work[op.u2] += op.w2 * s
		}
	}
	if p.pin != nil {
		for i, v := range p.core {
			p.coreRHS[i] = p.work[v]
		}
		p.pin.Solve(p.coreSol, p.coreRHS)
		for i, v := range p.core {
			dst[v] = p.coreSol[i]
		}
	}
	for i := len(p.ops) - 1; i >= 0; i-- {
		op := p.ops[i]
		switch op.kind {
		case opDeg0:
			dst[op.v] = 0
		case opDeg1:
			dst[op.v] = dst[op.u1] + p.work[op.v]/op.w1
		case opDeg2:
			dst[op.v] = (p.work[op.v] + op.w1*dst[op.u1] + op.w2*dst[op.u2]) / (op.w1 + op.w2)
		}
	}
	for c := range p.compSum {
		p.compSum[c] = 0
	}
	for v := 0; v < p.n; v++ {
		p.compSum[p.comp[v]] += dst[v]
	}
	for v := 0; v < p.n; v++ {
		dst[v] -= p.compSum[p.comp[v]] / float64(p.compSize[p.comp[v]])
	}
}
