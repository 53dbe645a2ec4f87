package sparse

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"hcd/internal/graph"
	"hcd/internal/treealg"
)

// TestEliminateMatchesScanReference: the heap's pivot is the scan's at every
// step, so the order, the structure of L and its values are the scan's bit
// for bit — on the factor corpus, on random trees large enough that the
// scan's O(n²) shows, and on FuzzLapFactor's seed corpus.
func TestEliminateMatchesScanReference(t *testing.T) {
	graphs := factorCorpus(t)
	for _, n := range []int{20000, 50000} {
		rng := rand.New(rand.NewSource(int64(n)))
		graphs = append(graphs, namedGraph{"tree", treealg.RandomTree(rng, n, func() float64 { return 0.5 + rng.Float64() })})
	}
	for _, data := range lapFactorSeeds {
		graphs = append(graphs, namedGraph{"fuzz seed", fuzzFactorGraph(t, data)})
	}
	bits := func(x, y []float64) bool {
		return slices.EqualFunc(x, y, func(p, q float64) bool { return math.Float64bits(p) == math.Float64bits(q) })
	}
	for _, tc := range graphs {
		f, err := NewLapFactor(tc.g)
		if err != nil {
			t.Fatalf("%s (%d vertices): %v", tc.name, tc.g.N(), err)
		}
		// The pins are a function of the components alone; only the
		// ordering differs.
		ref := &LapFactor{n: f.n, pin: f.pin, pins: f.pins, csize: f.csize}
		if err := ref.factorize(tc.g, ref.eliminateScan(tc.g)); err != nil {
			t.Fatalf("%s (%d vertices), scan: %v", tc.name, tc.g.N(), err)
		}
		switch {
		case !slices.Equal(f.order, ref.order):
			t.Errorf("%s (%d vertices): order differs from the scan's", tc.name, tc.g.N())
		case !slices.Equal(f.colPtr, ref.colPtr):
			t.Errorf("%s (%d vertices): colPtr differs from the scan's", tc.name, tc.g.N())
		case !slices.Equal(f.rowIdx, ref.rowIdx):
			t.Errorf("%s (%d vertices): rowIdx differs from the scan's", tc.name, tc.g.N())
		case !bits(f.val, ref.val) || !bits(f.diag, ref.diag):
			t.Errorf("%s (%d vertices): values differ from the scan's", tc.name, tc.g.N())
		}
	}
}

// eliminateScan is eliminate with every pivot found by scanning all n
// degrees — the O(n²) rule the pivot heap must reproduce — kept as its
// oracle.
func (f *LapFactor) eliminateScan(g *graph.Graph) (pos []int32) {
	n := f.n
	nf := n - len(f.pins)
	lptr := make([]int32, n)
	llen := make([]int32, n)
	deg := make([]int32, n) // current elimination-graph degree; −1 once pinned or eliminated
	pos = make([]int32, n)
	total := 0
	for v := 0; v < n; v++ {
		lptr[v] = int32(total)
		total += g.Degree(v)
	}
	list := make([]int32, total)
	f.nnzA = nf
	for v := 0; v < n; v++ {
		pos[v], deg[v] = -1, -1
		if f.pin[v] == int32(v) {
			continue
		}
		nbr, _ := g.Neighbors(v)
		k := lptr[v]
		for _, u := range nbr {
			if f.pin[u] != u {
				list[k] = u
				k++
				if int(u) > v {
					f.nnzA++
				}
			}
		}
		llen[v] = k - lptr[v]
		deg[v] = llen[v]
	}

	f.order = make([]int32, 0, nf)
	f.colPtr = make([]int32, 1, nf+1)
	f.rowIdx = make([]int32, 0, total)
	// tag stamps vertices: during pivot j's step, tag == stamp marks the
	// pivot, its column structure and the pivots it absorbs; the stamps above
	// it mark what has been counted into one neighbour's degree.
	tag := make([]int32, n)
	var stamp int32
	column := func(e int32) []int32 { return f.rowIdx[f.colPtr[pos[e]]:f.colPtr[pos[e]+1]] }
	for j := 0; j < nf; j++ {
		// Smallest degree, first such vertex; as uint32 the −1 of a pinned
		// or eliminated vertex never compares below a live degree.
		v, best := -1, uint32(math.MaxUint32)
		for u, d := range deg {
			if uint32(d) < best {
				v, best = u, uint32(d)
			}
		}
		// Column structure of v: its neighbours, directly or through a pivot.
		stamp++
		tag[v] = stamp
		start := len(f.rowIdx)
		for _, x := range list[lptr[v] : lptr[v]+llen[v]] {
			if x >= 0 {
				if tag[x] != stamp {
					tag[x] = stamp
					f.rowIdx = append(f.rowIdx, x)
				}
				continue
			}
			tag[^x] = stamp
			for _, w := range column(^x) {
				if tag[w] != stamp {
					tag[w] = stamp
					f.rowIdx = append(f.rowIdx, w)
				}
			}
		}
		pos[v], deg[v] = int32(j), -1
		f.order = append(f.order, int32(v))
		f.colPtr = append(f.colPtr, int32(len(f.rowIdx)))
		s := f.rowIdx[start:]
		counted := stamp
		for _, u := range s {
			// u now reaches v, the rest of s and every absorbed pivot through
			// the new pivot v: drop those entries (at least one goes, which
			// makes room) and append ^v.
			base := lptr[u]
			k := base
			for _, x := range list[base : base+llen[u]] {
				y := x
				if y < 0 {
					y = ^y
				}
				if tag[y] != stamp {
					list[k] = x
					k++
				}
			}
			rest := list[base:k]
			list[k] = ^int32(v)
			llen[u] = k + 1 - base
			// Degree: s without u, plus whatever else the kept entries reach.
			// Nothing in s is ever re-tagged, so one array answers both "in
			// s" and "already counted for u".
			counted++
			d := int32(len(s) - 1)
			for _, x := range rest {
				if x >= 0 {
					if tag[x] != counted {
						tag[x] = counted
						d++
					}
					continue
				}
				for _, w := range column(^x) {
					if t := tag[w]; t != stamp && t != counted {
						tag[w] = counted
						d++
					}
				}
			}
			deg[u] = d
		}
		stamp = counted
	}
	return pos
}

// factorize sorts every column of the recorded structure by elimination
// position and runs the numeric phase: a left-looking column Cholesky that,
