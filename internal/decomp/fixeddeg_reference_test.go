package decomp

// The differential oracle for splitPointers: the forest-graph chain that
// FixedDegreeCtx and clusterShard ran before it — heaviest-edge pointers →
// []graph.Edge → NewFromUniqueEdges → RootForest → ChildLists → splitForest —
// kept as it was. splitPointers must reproduce its Assign and Count exactly
// for every (graph, sizeCap, seed, shard count): cluster ids are visible in
// snapshots, quotient numbering and iteration counts.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"hcd/internal/graph"
	"hcd/internal/treealg"
	"hcd/internal/workload"
)

// referenceBestTo is the former heaviest-perturbed-edge scan of
// FixedDegreeCtx, run serially.
func referenceBestTo(g *graph.Graph, seed int64) []int {
	n := g.N()
	bestTo := make([]int, n)
	for v := 0; v < n; v++ {
		bestTo[v] = -1
		nbr, w := g.Neighbors(v)
		bestW := 0.0
		for i, u := range nbr {
			u := int(u)
			pw := w[i] * perturbFactor(v, u, n, seed)
			if bestTo[v] < 0 || pw > bestW || (pw == bestW && u < bestTo[v]) {
				bestTo[v], bestW = u, pw
			}
		}
	}
	return bestTo
}

// referenceFixedDegree is the former FixedDegreeCtx without the fault hook.
func referenceFixedDegree(g *graph.Graph, sizeCap int, seed int64) (*Decomposition, error) {
	d := &Decomposition{G: g, Assign: make([]int, g.N())}
	var err error
	d.Count, err = referenceForestChain(referenceBestTo(g, seed), func(v, u int) float64 {
		w, _ := g.Weight(v, u)
		return w
	}, sizeCap, d.Assign)
	if err != nil {
		return nil, err
	}
	return d, nil
}

// referenceClusterShard is the former clusterShard.
func referenceClusterShard(s graph.Shard, sizeCap int, seed int64, hostAssign []int) (int, error) {
	ln := s.Len()
	if ln == 0 {
		return 0, nil
	}
	hostN := s.Host().N()
	bestTo := make([]int, ln)
	for li := 0; li < ln; li++ {
		v := s.Global(li)
		bestTo[li] = -1
		nbr, w := s.Neighbors(v)
		bestW := 0.0
		for i, u := range nbr {
			u := int(u)
			if !s.Contains(u) {
				continue
			}
			pw := w[i] * perturbFactor(v, u, hostN, seed)
			if bestTo[li] < 0 || pw > bestW || (pw == bestW && u < s.Global(bestTo[li])) {
				bestTo[li], bestW = s.Local(u), pw
			}
		}
	}
	return referenceForestChain(bestTo, func(v, u int) float64 {
		w, _ := s.Host().Weight(s.Global(v), s.Global(u))
		return w
	}, sizeCap, hostAssign[s.Lo():s.Hi()])
}

// referenceForestChain materialises the pointers as a weighted forest graph,
// roots it and splits it.
func referenceForestChain(bestTo []int, weight func(v, u int) float64, sizeCap int, assign []int) (int, error) {
	n := len(bestTo)
	fEdges := make([]graph.Edge, 0, n)
	for v := 0; v < n; v++ {
		u := bestTo[v]
		if u < 0 {
			continue
		}
		// Emit each undirected edge once: the lower endpoint owns it unless
		// it did not select it, in which case the upper endpoint emits.
		if v < u || bestTo[u] != v {
			fEdges = append(fEdges, graph.Edge{U: min(v, u), V: max(v, u), W: weight(v, u)})
		}
	}
	forest, err := graph.NewFromUniqueEdges(n, fEdges)
	if err != nil {
		return 0, err
	}
	rooted, err := treealg.RootForest(forest)
	if err != nil {
		return 0, fmt.Errorf("decomp: heaviest-edge graph: %w", err)
	}
	return splitForest(forest, rooted, sizeCap, assign), nil
}

// splitForest walks the rooted forest bottom-up, emitting a cluster whenever
// the pending subtree reaches sizeCap vertices, then sweeps the roots for
// leftovers.
func splitForest(forest *graph.Graph, rooted *treealg.Rooted, sizeCap int, assign []int) int {
	n := len(assign)
	for i := range assign {
		assign[i] = -1
	}
	count := 0
	childOff, childList := rooted.ChildLists()
	pend := make([]int, n)
	var stack []int
	emit := func(v int) {
		id := count
		count++
		stack = append(stack[:0], v)
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			assign[x] = id
			for _, c := range childList[childOff[x]:childOff[x+1]] {
				if assign[c] < 0 {
					stack = append(stack, c)
				}
			}
		}
	}
	for i := len(rooted.Order) - 1; i >= 0; i-- {
		v := rooted.Order[i]
		pend[v] = 1
		for _, c := range childList[childOff[v]:childOff[v+1]] {
			if assign[c] < 0 {
				pend[v] += pend[c]
			}
		}
		if pend[v] >= sizeCap {
			emit(v)
			pend[v] = 0
		}
	}
	for _, root := range rooted.Roots {
		if assign[root] >= 0 {
			continue
		}
		if pend[root] >= 2 {
			emit(root)
			continue
		}
		// A leftover singleton root: merge it into the cluster of an
		// adjacent forest vertex; isolated vertices become singletons.
		merged := false
		nbr, _ := forest.Neighbors(root)
		for _, u := range nbr {
			if assign[u] >= 0 {
				assign[root] = assign[u]
				merged = true
				break
			}
		}
		if !merged {
			emit(root)
		}
	}
	return count
}

// referenceSplitPointers runs the chain on bare pointers with unit weights
// (no step of it reads a forest weight).
func referenceSplitPointers(bestTo []int32, sizeCap int, assign []int) (int, error) {
	wide := make([]int, len(bestTo))
	for i, u := range bestTo {
		wide[i] = int(u)
	}
	return referenceForestChain(wide, func(int, int) float64 { return 1 }, sizeCap, assign)
}

// referenceFamilies is the corpus the oracle is compared on: regular and
// irregular degrees, weights with and without ties, trees, isolated vertices.
func referenceFamilies(t testing.TB) map[string]*graph.Graph {
	t.Helper()
	must := func(g *graph.Graph, err error) *graph.Graph {
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	oct := workload.DefaultOCTOptions()
	return map[string]*graph.Graph{
		"grid3d-lognormal": workload.Grid3D(18, 17, 16, workload.Lognormal(1.5), 3), // three chunks of the parallel scan,
		"grid3d-unit":      workload.Grid3D(8, 8, 8, nil, 1),
		"oct3d":            workload.OCT3D(16, 16, 16, oct),
		"anisotropic":      workload.Grid3DAnisotropic(8, 8, 8, 1000, 1, 1),
		"road":             must(workload.RoadNetwork(24, 24, 6, workload.UniformWeight(0.5, 2), 5)),
		"femesh":           must(workload.FEMesh(20, 20, -1, nil, 7)),
		"plaw-lognormal":   must(workload.PowerLaw(600, 3, workload.Lognormal(1), 9)),
		"plaw-unit":        must(workload.PowerLaw(600, 2, nil, 11)),
		"caterpillar":      workload.Caterpillar(40, 3, nil, 1),
		"binary-tree":      workload.BinaryTree(9, workload.Lognormal(1), 13),
		"isolated": graph.MustFromEdges(9, []graph.Edge{
			{U: 1, V: 2, W: 1}, {U: 2, V: 4, W: 2}, {U: 4, V: 1, W: 1}, {U: 6, V: 7, W: 3},
		}),
		"single-edge": graph.MustFromEdges(2, []graph.Edge{{U: 0, V: 1, W: 1}}),
	}
}

// TestFixedDegreeMatchesForestReference: Assign and Count equal the forest
// chain's on every family, sizeCap and seed, down four levels of contraction,
// and per shard under clusterShards. The name puts it under `make
// determinism`, so it also runs with the test process at one and two workers.
func TestFixedDegreeMatchesForestReference(t *testing.T) {
	ctx := context.Background()
	for name, g0 := range referenceFamilies(t) {
		for _, sizeCap := range []int{2, 3, 4, 7} {
			for seed := int64(1); seed <= 3; seed++ {
				g := g0
				for level := 0; level < 4 && g.N() > 1; level++ {
					got, err := FixedDegreeCtx(ctx, g, sizeCap, seed)
					if err != nil {
						t.Fatalf("%s cap %d seed %d level %d: %v", name, sizeCap, seed, level, err)
					}
					want, err := referenceFixedDegree(g, sizeCap, seed)
					if err != nil {
						t.Fatalf("%s cap %d seed %d level %d: reference: %v", name, sizeCap, seed, level, err)
					}
					if got.Count != want.Count || !slices.Equal(got.Assign, want.Assign) {
						t.Fatalf("%s cap %d seed %d level %d: clusters differ from the forest chain (count %d vs %d)",
							name, sizeCap, seed, level, got.Count, want.Count)
					}
					if got.Count == g.N() {
						break // no edges left
					}
					g = g.Contract(got.Assign, got.Count)
				}

				shards := graph.PartitionShards(g0, 4)
				got, _, err := clusterShards(ctx, g0, shards, sizeCap, seed)
				if err != nil {
					t.Fatalf("%s cap %d seed %d: clusterShards: %v", name, sizeCap, seed, err)
				}
				want := make([]int, g0.N())
				offset := 0
				for _, s := range shards {
					c, err := referenceClusterShard(s, sizeCap, seed, want)
					if err != nil {
						t.Fatalf("%s cap %d seed %d: reference shard: %v", name, sizeCap, seed, err)
					}
					for v := s.Lo(); v < s.Hi(); v++ {
						want[v] += offset
					}
					offset += c
				}
				if got.Count != offset || !slices.Equal(got.Assign, want) {
					t.Fatalf("%s cap %d seed %d: sharded clusters differ from the forest chain (count %d vs %d)",
						name, sizeCap, seed, got.Count, offset)
				}
			}
		}
	}
}

// referenceHeaviestEdge is heaviestEdge as it was before the hash key's row
// terms were hoisted and the running best went branch-free: perturbFactor per
// neighbour, the best kept by comparing floats.
func referenceHeaviestEdge(g *graph.Graph, v, lo, hi int, seed int64) int32 {
	nbr, w := g.Neighbors(v)
	best, bestW := int32(-1), 0.0
	for i, u := range nbr {
		if int(u) < lo || int(u) >= hi {
			continue
		}
		pw := w[i] * perturbFactor(v, int(u), g.N(), seed)
		if best < 0 || pw > bestW || (pw == bestW && u < best) {
			best, bestW = u, pw
		}
	}
	return best
}

// TestHeaviestEdgeMatchesReference: heaviestEdge picks the reference's
// neighbour for every vertex of every family, on the whole graph and on a
// shard's id range, under eight seeds (negative and wide ones included), down
// three levels of contraction. A tie is built on purpose too: vertex 0 of a
// path 1 – 0 – 2 whose two weights are each other's perturbation factors has
// two perturbed weights with one bit pattern, and the lower id, 1, must win.
func TestHeaviestEdgeMatchesReference(t *testing.T) {
	seeds := []int64{0, 1, 2, 7, -1, -12345, 1 << 40, math.MaxInt64}
	for _, seed := range seeds {
		tied := graph.MustFromEdges(3, []graph.Edge{
			{U: 0, V: 1, W: perturbFactor(0, 2, 3, seed)},
			{U: 0, V: 2, W: perturbFactor(0, 1, 3, seed)},
		})
		if got, want := heaviestEdge(tied, 0, 0, 3, seed), referenceHeaviestEdge(tied, 0, 0, 3, seed); got != 1 || want != 1 {
			t.Fatalf("seed %d: tied pair resolved to %d, reference %d, want 1", seed, got, want)
		}
	}
	for name, g0 := range referenceFamilies(t) {
		for _, seed := range seeds {
			g := g0
			for level := 0; level < 3 && g.M() > 0; level++ {
				n := g.N()
				for _, r := range [][2]int{{0, n}, {n / 3, 2 * n / 3}} {
					for v := 0; v < n; v++ {
						if got, want := heaviestEdge(g, v, r[0], r[1], seed), referenceHeaviestEdge(g, v, r[0], r[1], seed); got != want {
							t.Fatalf("%s seed %d level %d range %v vertex %d: heaviest edge to %d, reference %d", name, seed, level, r, v, got, want)
						}
					}
				}
				d, err := FixedDegreeCtx(context.Background(), g, 4, seed)
				if err != nil {
					t.Fatal(err)
				}
				g = g.Contract(d.Assign, d.Count)
			}
		}
	}
}

// BenchmarkHeaviestEdge times the level-0 scan of FixedDegreeCtx's step [2]
// on the 64³ lognormal grid of build-grid3d, one worker, through heaviestEdge
// and through the reference formula.
func BenchmarkHeaviestEdge(b *testing.B) {
	g := workload.Grid3D(64, 64, 64, workload.Lognormal(1), 1)
	bestTo := make([]int32, g.N())
	for _, form := range []struct {
		name string
		scan func(*graph.Graph, int, int, int, int64) int32
	}{{"hoisted", heaviestEdge}, {"reference", referenceHeaviestEdge}} {
		b.Run(form.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for v := range bestTo {
					bestTo[v] = form.scan(g, v, 0, g.N(), 1)
				}
			}
		})
	}
}

// TestSplitPointersCycleGuard: only a tie-break failure can make the
// heaviest-edge pointers close a cycle; the root count catches it before any
// cluster id is written.
func TestSplitPointersCycleGuard(t *testing.T) {
	// 0 → 1 → 2 → 0 is the 3-cycle; 3 hangs off it and 4 ⇄ 5 is a sound pair.
	bestTo := []int32{1, 2, 0, 0, 5, 4}
	assign := make([]int, len(bestTo))
	_, err := splitPointers(context.Background(), bestTo, 4, assign)
	if !errors.Is(err, errPointerCycle) {
		t.Fatalf("err = %v, want the cycle error", err)
	}
	if msg := err.Error(); !strings.Contains(msg, "heaviest-edge graph") || !strings.Contains(msg, "cycle") {
		t.Errorf("error text %q does not name the heaviest-edge graph and the cycle", msg)
	}
	for v, c := range assign {
		if c >= 0 {
			t.Errorf("vertex %d got cluster %d from a cyclic pointer array", v, c)
		}
	}
	if _, err := referenceSplitPointers(bestTo, 4, make([]int, len(bestTo))); err == nil {
		t.Error("the forest chain accepted the same cycle")
	}
}

// countdownCtx reports cancellation from its (after+1)-th Err call on, which
// places a cancellation between any two polls of a serial pass.
type countdownCtx struct {
	context.Context
	after int
}

func (c *countdownCtx) Err() error {
	if c.after > 0 {
		c.after--
		return nil
	}
	return context.Canceled
}

// TestSplitPointersPollsEveryPass: every O(n) serial loop of splitPointers
// polls the context, so a cancellation landing before any of them returns an
// error wrapping ErrBuildCancelled instead of running the build out.
func TestSplitPointersPollsEveryPass(t *testing.T) {
	// A path long enough for two poll intervals per pass.
	n := pollMask + 100
	bestTo := make([]int32, n)
	for v := range bestTo {
		bestTo[v] = int32(v + 1)
	}
	bestTo[n-1] = int32(n - 2)
	want := make([]int, n)
	wantCount, err := referenceSplitPointers(bestTo, 4, want)
	if err != nil {
		t.Fatal(err)
	}
	polls := 0
	for after := 0; ; after++ {
		assign := make([]int, n)
		count, err := splitPointers(&countdownCtx{Context: context.Background(), after: after}, bestTo, 4, assign)
		if err == nil {
			if count != wantCount || !slices.Equal(assign, want) {
				t.Fatal("uncancelled run differs from the forest chain")
			}
			polls = after
			break
		}
		if !errors.Is(err, ErrBuildCancelled) || !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled after %d polls: err = %v, want ErrBuildCancelled wrapping context.Canceled", after, err)
		}
	}
	// Five serial passes (count, fill, root, close, paint), two polls each.
	if polls != 10 {
		t.Errorf("splitPointers consulted the context %d times, want 10 (two per serial pass)", polls)
	}
}

// pointersFromBytes decodes a fuzz input into a pointer array: two bytes per
// vertex (at most 1024 vertices), reduced into [−1, n) with self-pointers
// turned into "no edge" — the domain the scans produce, cycles and high
// in-degrees included.
func pointersFromBytes(data []byte) []int32 {
	n := min(len(data)/2, 1024)
	bestTo := make([]int32, n)
	for v := range bestTo {
		p := (int(data[2*v])|int(data[2*v+1])<<8)%(n+1) - 1
		if p == v {
			p = -1
		}
		bestTo[v] = int32(p)
	}
	return bestTo
}

func bytesFromPointers(bestTo []int) []byte {
	data := make([]byte, 2*len(bestTo))
	for v, p := range bestTo {
		data[2*v], data[2*v+1] = byte(p+1), byte((p+1)>>8)
	}
	return data
}

// FuzzSplitPointers: on an arbitrary pointer array splitPointers either
// reports the cycle the forest chain also rejects, or returns the chain's
// partition — one that covers every vertex, uses every id and leaves no
// vertex that has or receives a pointer alone.
func FuzzSplitPointers(f *testing.F) {
	for _, g := range referenceFamilies(f) {
		if g.N() <= 1024 {
			f.Add(bytesFromPointers(referenceBestTo(g, 1)), uint8(2))
		}
	}
	f.Add(bytesFromPointers([]int{1, 2, 0, 0, 5, 4}), uint8(2))             // 3-cycle
	f.Add(bytesFromPointers([]int{-1, 0, 0, 0, 0, 0, 0, 0, -1}), uint8(1))  // star, isolated vertex
	f.Add(bytesFromPointers([]int{1, 2, 3, 4, 5, 6, 7, 8, 9, 8}), uint8(0)) // path
	f.Fuzz(func(t *testing.T, data []byte, capByte uint8) {
		bestTo := pointersFromBytes(data)
		n := len(bestTo)
		sizeCap := 2 + int(capByte%7)
		assign := make([]int, n)
		count, err := splitPointers(context.Background(), bestTo, sizeCap, assign)
		want := make([]int, n)
		wantCount, wantErr := referenceSplitPointers(bestTo, sizeCap, want)
		if wantErr != nil {
			if !errors.Is(err, errPointerCycle) {
				t.Fatalf("forest chain: %v; splitPointers: %v", wantErr, err)
			}
			return
		}
		if err != nil {
			t.Fatalf("splitPointers: %v on pointers the forest chain accepts", err)
		}
		if count != wantCount {
			t.Fatalf("%d clusters, the forest chain makes %d", count, wantCount)
		}
		for v := range assign {
			if assign[v] != want[v] {
				t.Fatalf("vertex %d in cluster %d, the forest chain puts it in %d", v, assign[v], want[v])
			}
		}
		size := make([]int, count)
		for v, c := range assign {
			if c < 0 || c >= count {
				t.Fatalf("vertex %d has cluster %d outside [0,%d)", v, c, count)
			}
			size[c]++
		}
		for c, sz := range size {
			if sz == 0 {
				t.Fatalf("cluster %d is empty", c)
			}
		}
		for v, u := range bestTo {
			if u >= 0 && (size[assign[v]] < 2 || size[assign[u]] < 2) {
				t.Fatalf("vertex %d keeps an edge to %d but one of them is a singleton", v, u)
			}
		}
	})
}
