// Package laminar builds and queries laminar decompositions: hierarchies
// G = G₁, …, G_L where G_{i+1} is the contraction of G_i by a [φ, ρ]
// decomposition P_i (the structure of Bienkowski–Korzeniowski–Räcke that the
// paper's introduction discusses, obtained here with the paper's own
// bottom-up clustering and a *guaranteed* per-level reduction factor ≥ 2 —
// the property the top-down constructions lack).
package laminar

import (
	"context"
	"fmt"

	"hcd/internal/decomp"
	"hcd/internal/graph"
)

// Laminar is a hierarchy of decompositions. Levels[i] partitions the level-i
// quotient graph; Levels[0].G is the original graph.
type Laminar struct {
	Levels []*decomp.Decomposition
}

// BuildCtx clusters g recursively with the Section 3.1 algorithm until the
// quotient has at most coarse vertices (or no further reduction happens). The
// context is checked once per level on top of the per-level clustering's own
// polling; cancellation returns an error wrapping decomp.ErrBuildCancelled.
func BuildCtx(ctx context.Context, g *graph.Graph, sizeCap, coarse int, seed int64) (*Laminar, error) {
	if coarse < 1 {
		return nil, fmt.Errorf("laminar: coarse must be ≥ 1")
	}
	l := &Laminar{}
	cur := g
	for level := 0; cur.N() > coarse; level++ {
		if ctx.Err() != nil {
			return nil, decomp.Cancelled(ctx)
		}
		d, err := decomp.FixedDegreeCtx(ctx, cur, sizeCap, seed+int64(level))
		if err != nil {
			return nil, err
		}
		if d.Count >= cur.N() {
			break
		}
		l.Levels = append(l.Levels, d)
		cur = cur.Contract(d.Assign, d.Count)
	}
	return l, nil
}

// Depth returns the number of levels.
func (l *Laminar) Depth() int { return len(l.Levels) }

// Sizes returns the vertex counts of every level graph plus the final
// quotient.
func (l *Laminar) Sizes() []int {
	if len(l.Levels) == 0 {
		return nil
	}
	out := make([]int, 0, len(l.Levels)+1)
	for _, d := range l.Levels {
		out = append(out, d.G.N())
	}
	return append(out, l.Levels[len(l.Levels)-1].Count)
}

// AssignAt returns the composed assignment of original vertices to the
// clusters of level depth (depth ∈ [0, Depth)): the flattening of the
// laminar family at that height.
func (l *Laminar) AssignAt(depth int) ([]int, error) {
	if depth < 0 || depth >= len(l.Levels) {
		return nil, fmt.Errorf("laminar: depth %d out of range [0,%d)", depth, len(l.Levels))
	}
	n := l.Levels[0].G.N()
	assign := make([]int, n)
	for v := range assign {
		assign[v] = v
	}
	for i := 0; i <= depth; i++ {
		lv := l.Levels[i].Assign
		for v := range assign {
			assign[v] = lv[assign[v]]
		}
	}
	return assign, nil
}

// ComposedAt returns the composed partition at the given depth as a
// decomposition of the *original* graph. Composed clusters are connected:
// a level-k cluster is connected in the level-k quotient, quotient edges
// witness fine edges, so the preimage is connected by induction.
func (l *Laminar) ComposedAt(depth int) (*decomp.Decomposition, error) {
	assign, err := l.AssignAt(depth)
	if err != nil {
		return nil, err
	}
	return &decomp.Decomposition{
		G:      l.Levels[0].G,
		Assign: assign,
		Count:  l.Levels[depth].Count,
	}, nil
}

// Refines reports whether the composed partition at depth d1 refines the
// one at depth d2 ≥ d1: every d1-cluster is contained in a single
// d2-cluster. This is the defining laminar-family property.
func (l *Laminar) Refines(d1, d2 int) (bool, error) {
	a1, err := l.AssignAt(d1)
	if err != nil {
		return false, err
	}
	a2, err := l.AssignAt(d2)
	if err != nil {
		return false, err
	}
	parent := make(map[int]int)
	for v := range a1 {
		if p, ok := parent[a1[v]]; ok {
			if p != a2[v] {
				return false, nil
			}
		} else {
			parent[a1[v]] = a2[v]
		}
	}
	return true, nil
}

// LevelReport evaluates the decomposition of one level (φ and ρ are
// measured on that level's quotient graph).
func (l *Laminar) LevelReport(depth int, exactLimit int) (decomp.Report, error) {
	if depth < 0 || depth >= len(l.Levels) {
		return decomp.Report{}, fmt.Errorf("laminar: depth %d out of range", depth)
	}
	return decomp.Evaluate(l.Levels[depth], exactLimit), nil
}

// TotalReduction returns n / (size of the final quotient).
func (l *Laminar) TotalReduction() float64 {
	if len(l.Levels) == 0 {
		return 1
	}
	return float64(l.Levels[0].G.N()) / float64(l.Levels[len(l.Levels)-1].Count)
}
