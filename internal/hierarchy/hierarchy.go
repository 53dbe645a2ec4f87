// Package hierarchy implements the recursive construction the paper sketches
// at the end of Section 1.1 and Remark 3: applying the Section 3.1
// clustering recursively yields a laminar decomposition and a hierarchy of
// Steiner preconditioners — the precursor of combinatorial multigrid (CMG).
//
// Each level stores its graph and the restriction onto the next, coarser
// one. The apply uses the exact two-level identity B⁺r = D⁻¹r + R·Q⁺(Rᵀr)
// with the quotient solve replaced by the next level's apply; the coarsest
// level is solved directly. That pure recursion is the Steiner preconditioner
// (NewSteiner). New adds one damped-Jacobi pre/post smoothing pair per level,
// which turns it into a symmetric cycle whose coarse correction is scaled,
// level by level, by how much of the level's weight its clustering cut, and
// which visits the cheap coarse tail of the hierarchy twice per cycle
// (cycle.go).
//
// Levels below the finest are stored in an apply layout (layout.go): once a
// quotient has been contracted and clustered in its natural numbering, its
// vertices are renumbered so rows of equal length sit together, and only the
// renumbered graph is kept. Level 0 keeps the caller's numbering, and where
// that numbering leaves its rows ungrouped a layout view of level 0 is built
// for solves on first use.
package hierarchy

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"hcd/internal/decomp"
	"hcd/internal/graph"
	"hcd/internal/obs"
	"hcd/internal/par"
	"hcd/internal/sparse"
)

// Options configures the hierarchy.
type Options struct {
	SizeCap     int   // cluster size cap per level (≥ 2)
	Seed        int64 // perturbation seed for the clusterings
	DirectLimit int   // largest graph handed to the direct solver, unless it is a forest
	// Shards splits each level's clustering into that many concurrently
	// built vertex-range shards while the level graph is large enough
	// (≥ shardMinVertices); smaller levels always build single-pass. 0 or 1
	// keeps every level single-pass (bit-identical to pre-shard builds).
	Shards int
}

// shardMinVertices gates per-level sharding: below this size a level's
// clustering is cheap enough that shard bookkeeping (partition + stitch)
// costs more than the fan-out saves.
const shardMinVertices = 1 << 15

// maxLevels is the depth cap of every build: far above the ~log₃ n levels a
// real hierarchy has.
const maxLevels = 40

// DefaultOptions: clusters of ~4, 600-vertex coarse solves.
func DefaultOptions() Options {
	return Options{SizeCap: 4, Seed: 1, DirectLimit: 600}
}

// Level is one layer of the laminar decomposition, stored for the apply.
type Level struct {
	// g is the level's graph: the caller's graph in the caller's numbering
	// at level 0 (renumbered in a layout view's level 0), the quotient in its
	// apply layout below.
	g    *graph.Graph
	dInv []float64
	// smoothed selects the cycle: one damped-Jacobi sweep before and after
	// the coarse correction (New), or the unsmoothed Steiner recursion
	// (NewSteiner).
	smoothed bool
	// gamma is the fraction of the level's weight its clustering kept inside
	// clusters, alpha the coarse-correction scale the smoothed cycle derives
	// from it (cycle.go). Both are functions of g and natAssign alone.
	gamma, alpha float64
	// visits is how often one visit of this level applies the level below: 1,
	// or 2 on the doubled tail (cycleVisits). A function of the stored levels
	// and the coarse factor, set once the hierarchy is complete.
	visits int
	// The restriction onto the next level, both ends in layout numbering:
	// assign maps a vertex to its cluster, and order[start[c]:start[c+1]]
	// lists cluster c's members by ascending natural id — the fixed
	// summation order of the conflict-free parallel restriction.
	assign, order, start []int32
	// natAssign and count are the clustering as it was computed, in natural
	// numbering on both ends: what DumpLevels exports and Rebuild replays.
	natAssign []int
	count     int
}

// Hierarchy is a multilevel Steiner preconditioner.
type Hierarchy struct {
	levels  []*Level
	coarseG *graph.Graph
	coarse  *sparse.LapFactor
	// cycleEntries is the number of stored matrix entries one Apply streams:
	// level passes, second visits and the coarse factor (cycleVisits).
	cycleEntries int
	// Pooled per-apply work buffers (*applyWork). They are the only mutable
	// apply state — levels and the coarse factor are read-only — so concurrent
	// Apply/ApplyBlock calls on one Hierarchy are safe and never wait on each
	// other: the server's pooled engines solve through a shared Hierarchy from
	// several goroutines at once. A layout view shares its hierarchy's pool:
	// its levels have the same sizes.
	workPool *sync.Pool
	// view is the level-0 layout view (layout.go), built once by the first
	// layoutView call and nil after it when level 0 needs none.
	viewOnce sync.Once
	view     atomic.Pointer[layoutView]
}

// New builds the smoothed-cycle hierarchy for g.
func New(g *graph.Graph, opt Options) (*Hierarchy, error) {
	return NewCtx(context.Background(), g, opt)
}

// NewCtx is New under a context: the per-level clustering polls cancellation
// and the level loop checks once per level, so a cancelled setup returns an
// error wrapping decomp.ErrBuildCancelled promptly (the final coarse
// factorization runs to completion once reached).
//
// A panic during setup — including worker panics surfaced by internal/par —
// is recovered and returned as an error. A clustering that produces no
// vertex reduction on a still-large graph with edges (a degenerate or
// corrupted build) is rejected with an error rather than handed to the coarse
// factorization,
// whose fill on an unreduced graph would be a far worse failure than an
// explicit one; so is a build that reaches the 40-level depth cap while the
// graph is still more than four times DirectLimit.
func NewCtx(ctx context.Context, g *graph.Graph, opt Options) (*Hierarchy, error) {
	if opt.SizeCap < 2 {
		return nil, fmt.Errorf("hierarchy: SizeCap %d must be ≥ 2: %w", opt.SizeCap, graph.ErrInvalidInput)
	}
	if opt.DirectLimit < 1 {
		opt.DirectLimit = 1
	}
	return build(ctx, g, nil, opt, maxLevels)
}

// steinerDirectLimit is the largest quotient NewSteiner factors directly.
const steinerDirectLimit = 2500

// NewSteiner builds the Section 3 Steiner preconditioner of d,
// B⁺r = D⁻¹r + R·Q⁺(Rᵀr), as a hierarchy whose level 0 is d's clustering,
// unsmoothed. A quotient of at most 2 500 vertices is factored directly: the
// hierarchy has one level and its apply is the two-level identity exactly. A
// larger quotient is clustered further by NewCtx's own level loop — the pure
// recursion, with the same direct limit — so the preconditioner stays one
// fixed SPD operator at any size. A decomposition that does not match its
// graph (an assignment of the wrong length, a cluster id outside [0, Count), a
// Count above N) returns an error wrapping graph.ErrInvalidInput; Count = N,
// every vertex its own cluster, is a valid level 0.
func NewSteiner(ctx context.Context, d *decomp.Decomposition) (*Hierarchy, error) {
	if d == nil || d.G == nil {
		return nil, fmt.Errorf("hierarchy: NewSteiner: no decomposition graph: %w", graph.ErrInvalidInput)
	}
	n := d.G.N()
	if err := checkLevel(0, LevelAssign{Assign: d.Assign, Count: d.Count}, n, n); err != nil {
		return nil, err
	}
	opt := DefaultOptions()
	opt.DirectLimit = steinerDirectLimit
	return build(ctx, d.G, d, opt, maxLevels)
}

// build runs the level loop on validated options: level 0 is first's
// clustering when first is non-nil, whatever g's size, and the hierarchy is
// then the unsmoothed Steiner recursion; without first it is the smoothed
// cycle. Every other level is
// clustered here while the graph is above the direct limit and has a cycle,
// for at most depthCap levels. A forest is factored whatever its size: its
// minimum-degree elimination makes no fill.
//
// A panic during setup — including worker panics surfaced by internal/par —
// is recovered and returned as an error.
func build(ctx context.Context, g *graph.Graph, first *decomp.Decomposition, opt Options, depthCap int) (h *Hierarchy, err error) {
	defer func() {
		if v := recover(); v != nil {
			h, err = nil, fmt.Errorf("hierarchy: panic during setup: %w", par.AsError(v))
		}
	}()
	ctx, hsp := obs.StartSpan(ctx, "hierarchy/build")
	defer hsp.End()
	a := newAssembler(ctx, first == nil)
	cur := g
	var levelSpans []*obs.Span // traced builds only: visits are known last
	for level := 0; (level == 0 && first != nil) || (cur.N() > opt.DirectLimit && !cur.IsForest()); level++ {
		if level == depthCap {
			if cur.N() > 4*opt.DirectLimit {
				return nil, fmt.Errorf("hierarchy: depth cap %d reached at level %d with %d vertices left (direct limit %d): %w",
					depthCap, level, cur.N(), opt.DirectLimit, graph.ErrInvalidInput)
			}
			break
		}
		if ctx.Err() != nil {
			return nil, decomp.Cancelled(ctx)
		}
		lctx := ctx
		var lsp *obs.Span
		if hsp != nil {
			lctx, lsp = obs.StartSpan(ctx, fmt.Sprintf("hierarchy/level-%d", level))
			lsp.Arg("vertices", cur.N())
		}
		given := level == 0 && first != nil
		d := first
		var err error
		switch {
		case given:
		case opt.Shards > 1 && cur.N() >= shardMinVertices:
			d, _, err = decomp.FixedDegreeShardedCtx(lctx, cur, opt.SizeCap, opt.Seed+int64(level), opt.Shards)
		default:
			d, err = decomp.FixedDegreeCtx(lctx, cur, opt.SizeCap, opt.Seed+int64(level))
		}
		lsp.End()
		if err != nil {
			return nil, fmt.Errorf("hierarchy: level %d clustering failed: %w", level, err)
		}
		if !given && d.Count >= cur.N() {
			// No reduction possible (e.g. all isolated vertices). Tolerable
			// only if the graph is already near the direct-solve size or has
			// no edges (every vertex pinned, nothing to factor); otherwise the
			// "coarse" solve would factorize an essentially unreduced graph.
			if cur.N() > 4*opt.DirectLimit && cur.M() > 0 {
				return nil, fmt.Errorf("hierarchy: level %d clustering produced no reduction (%d clusters on %d vertices, direct limit %d)",
					level, d.Count, cur.N(), opt.DirectLimit)
			}
			break
		}
		count := d.Count
		if !given && cur.M() > 0 {
			count = poolEdgeless(cur, d.Assign, count)
		}
		cur = a.push(cur, d.Assign, count)
		if lsp != nil {
			// The span timed the clustering; what the clustering cut is known
			// once the quotient exists.
			l := a.h.levels[level]
			lsp.Arg("gamma", l.gamma)
			lsp.Arg("alpha", l.alpha)
			levelSpans = append(levelSpans, lsp)
		}
	}
	h, err = a.finish(cur)
	if err != nil {
		return nil, err
	}
	if hsp != nil {
		for level, lsp := range levelSpans {
			lsp.Arg("visits", h.levels[level].visits)
		}
		hsp.Arg("levels", len(h.levels))
		hsp.Arg("coarse_size", cur.N())
		hsp.Arg("coarse_nnz", h.coarse.NNZ())
		hsp.Arg("coarse_fill", h.coarse.Fill())
		hsp.Arg("cycle_entries", h.cycleEntries)
	}
	return h, nil
}

// poolEdgeless gives every edgeless vertex of g one shared cluster,
// renumbering the other clusters of assign densely in their order (the shared
// cluster takes the place of the first edgeless one), and returns the new
// count. The clustering leaves each edgeless vertex a singleton; kept apart,
// each would be carried down as a quotient vertex of its own, level after
// level, and the depth and the level sizes would follow their number — an
// edge list with unused vertex ids is such a graph. Their Laplacian rows are
// zero, so one cluster loses nothing a cluster apiece would keep. A graph
// with fewer than two edgeless vertices is left as it is.
func poolEdgeless(g *graph.Graph, assign []int, count int) int {
	edgeless := 0
	for v := 0; v < g.N() && edgeless < 2; v++ {
		if g.Degree(v) == 0 {
			edgeless++
		}
	}
	if edgeless < 2 {
		return count
	}
	hasEdge := make([]bool, count)
	for v, c := range assign {
		if g.Degree(v) > 0 {
			hasEdge[c] = true
		}
	}
	id, shared, next := make([]int, count), -1, 0
	for c, has := range hasEdge {
		switch {
		case has:
			id[c] = next
			next++
		case shared < 0:
			shared, id[c] = next, next
			next++
		default:
			id[c] = shared
		}
	}
	for v, c := range assign {
		assign[v] = id[c]
	}
	return next
}

// Depth returns the number of clustering levels (excluding the direct
// coarse solve).
func (h *Hierarchy) Depth() int { return len(h.levels) }

// CoarseSize returns the size of the directly solved coarsest graph.
func (h *Hierarchy) CoarseSize() int { return h.coarseG.N() }

// LevelSizes returns the vertex counts down the hierarchy, coarsest last.
func (h *Hierarchy) LevelSizes() []int {
	sizes := make([]int, 0, len(h.levels)+1)
	for _, l := range h.levels {
		sizes = append(sizes, l.g.N())
	}
	return append(sizes, h.coarseG.N())
}

// CycleEntries returns the number of stored matrix entries — level rows and
// coarse factor — one Apply streams: the deterministic cost of a cycle, to read
// next to an iteration count.
func (h *Hierarchy) CycleEntries() int { return h.cycleEntries }

// LevelScale is what one level's clustering cut and what the cycle does about
// it: Gamma is the fraction of the level graph's weight that stayed inside
// clusters (1 − vol(quotient)/vol(level), the averaged γ of the paper's (φ, γ)
// decompositions), Alpha the factor the smoothed cycle scales that level's
// coarse correction by, Visits how many times each visit of the level applies
// the level below it (2 on the cheap coarse tail, cycle.go).
type LevelScale struct {
	Gamma, Alpha float64
	Visits       int
}

// LevelScales returns each clustering level's LevelScale, finest first: the
// quality figures to read next to an iteration count.
func (h *Hierarchy) LevelScales() []LevelScale {
	scales := make([]LevelScale, len(h.levels))
	for i, l := range h.levels {
		scales[i] = LevelScale{Gamma: l.gamma, Alpha: l.alpha, Visits: l.visits}
	}
	return scales
}

// MemoryBytes is the resident size of the hierarchy: every level's graph,
// inverse diagonal, int32 restriction arrays, kept natural assignment and
// cycle scales, plus the coarse graph and its factor, and once it has been
// built the layout view's own arrays (level 0 renumbered, its diagonal,
// assignment, member order and permutation). Pooled apply workspaces
// are not counted; they belong to whichever solves are in flight. It is the
// accounting figure behind the serving layer's byte-budgeted handle cache.
func (h *Hierarchy) MemoryBytes() int64 {
	var b int64
	for _, l := range h.levels {
		b += l.g.Bytes()
		b += 8 * int64(len(l.dInv)+len(l.natAssign)+3) // +3: gamma, alpha, visits
		b += 4 * int64(len(l.assign)+len(l.order)+len(l.start))
	}
	if h.coarseG != nil {
		b += h.coarseG.Bytes() + h.coarse.Bytes()
	}
	if v := h.view.Load(); v != nil {
		l := v.h.levels[0]
		b += l.g.Bytes() + 8*int64(len(l.dInv)) + 4*int64(len(l.assign)+len(l.order)+len(v.perm))
	}
	return b
}

// Dim returns the fine-level dimension.
func (h *Hierarchy) Dim() int {
	if len(h.levels) == 0 {
		return h.coarseG.N()
	}
	return h.levels[0].g.N()
}
