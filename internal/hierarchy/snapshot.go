package hierarchy

// Structural persistence. A built hierarchy is fully determined by the fine
// graph plus each level's cluster assignment in natural numbering: the
// quotient graphs, their apply layouts, diagonal inverses, restriction arrays
// and the sparse coarse factorization are all cheap, deterministic functions
// of those. DumpLevels
// exports the minimal structure for the snapshot codec (internal/gio);
// Rebuild reconstructs a hierarchy from it without re-running any clustering
// — the expensive Section 3.1 work the snapshot exists to preserve.

import (
	"context"
	"fmt"

	"hcd/internal/decomp"
	"hcd/internal/graph"
	"hcd/internal/par"
)

// LevelAssign is the persisted shape of one level: the vertex-to-cluster
// assignment on that level's graph and the cluster count.
type LevelAssign struct {
	Assign []int
	Count  int
}

// DumpLevels exports the hierarchy's structural state: one LevelAssign per
// clustering level (finest first) and the smoothing sweep count, 1 for the
// smoothed cycle (New) and 0 for the Steiner recursion (NewSteiner). The
// Assign slices are backed by the hierarchy's own storage — callers must
// treat them as read-only.
func (h *Hierarchy) DumpLevels() (levels []LevelAssign, smooth int) {
	levels = make([]LevelAssign, 0, len(h.levels))
	for _, l := range h.levels {
		levels = append(levels, LevelAssign{Assign: l.natAssign, Count: l.count})
		if l.smoothed {
			smooth = 1
		}
	}
	return levels, smooth
}

// Rebuild reconstructs a hierarchy from a fine graph and dumped level
// assignments: each level's quotient is recomputed by contraction, laid out
// for the apply, and the coarse factorization is redone — O(m) per level plus
// one small sparse factorization, no clustering. Assignments are validated
// against the level graphs they apply to — level 0 of an unsmoothed dump may
// keep every vertex its own cluster, as NewSteiner's may — and so is smooth,
// which must be 0 or 1; a mismatch (truncated or corrupted dump) returns an
// error wrapping graph.ErrInvalidInput. The context is only
// polled between levels; rebuilds are fast enough that finer cancellation
// buys nothing.
func Rebuild(ctx context.Context, g *graph.Graph, levels []LevelAssign, smooth int) (h *Hierarchy, err error) {
	defer func() {
		if v := recover(); v != nil {
			h, err = nil, fmt.Errorf("hierarchy: panic during rebuild: %w", par.AsError(v))
		}
	}()
	if ctx == nil {
		ctx = context.Background()
	}
	if smooth != 0 && smooth != 1 {
		return nil, fmt.Errorf("hierarchy: smoothing sweep count %d, want 0 or 1: %w", smooth, graph.ErrInvalidInput)
	}
	a := newAssembler(ctx, smooth == 1)
	cur := g
	for i, la := range levels {
		if cerr := ctx.Err(); cerr != nil {
			return nil, decomp.Cancelled(ctx)
		}
		maxCount := cur.N() - 1
		if i == 0 && smooth == 0 {
			maxCount = cur.N()
		}
		if err := checkLevel(i, la, cur.N(), maxCount); err != nil {
			return nil, err
		}
		cur = a.push(cur, la.Assign, la.Count)
	}
	return a.finish(cur)
}

// checkLevel validates level i's assignment against the n-vertex graph it
// applies to: it covers every vertex, names clusters in [0, Count) only, and
// Count lies in [min(1, n), maxCount]. Errors wrap graph.ErrInvalidInput.
func checkLevel(i int, la LevelAssign, n, maxCount int) error {
	if len(la.Assign) != n {
		return fmt.Errorf("hierarchy: level %d assignment covers %d vertices, graph has %d: %w",
			i, len(la.Assign), n, graph.ErrInvalidInput)
	}
	if la.Count < min(1, n) || la.Count > maxCount {
		return fmt.Errorf("hierarchy: level %d cluster count %d out of range [%d,%d]: %w",
			i, la.Count, min(1, n), maxCount, graph.ErrInvalidInput)
	}
	for v, c := range la.Assign {
		if c < 0 || c >= la.Count {
			return fmt.Errorf("hierarchy: level %d assigns vertex %d to cluster %d of %d: %w",
				i, v, c, la.Count, graph.ErrInvalidInput)
		}
	}
	return nil
}
