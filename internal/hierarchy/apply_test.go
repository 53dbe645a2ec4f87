package hierarchy

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"hcd/internal/workload"
)

// blockApplyFixture is a two-level hierarchy on a small OCT volume;
// deepBlockApplyFixture recurses on the same volume until the smoothed cycle
// doubles a tail of levels.
func blockApplyFixture(t *testing.T, smooth int) (*Hierarchy, int) {
	t.Helper()
	return blockApplyFixtureAt(t, smooth, 60)
}

func deepBlockApplyFixture(t *testing.T, smooth int) (*Hierarchy, int) {
	t.Helper()
	h, n := blockApplyFixtureAt(t, smooth, 6)
	if doubled := doubledLevels(h); (doubled == 0) != (smooth == 0) {
		t.Fatalf("deep fixture, smooth=%d: %d doubled levels in %v", smooth, doubled, h.LevelScales())
	}
	return h, n
}

func blockApplyFixtureAt(t *testing.T, smooth, directLimit int) (*Hierarchy, int) {
	t.Helper()
	g := workload.OCT3D(8, 8, 8, workload.OCTOptions{Layers: 4, Contrast: 100, NoiseSigma: 1, Seed: 7})
	opt := DefaultOptions()
	opt.DirectLimit = directLimit
	h := newSmooth(t, g, opt, smooth)
	if h.Depth() == 0 {
		t.Fatal("fixture hierarchy has no levels")
	}
	return h, g.N()
}

// TestApplyBlockMatchesColumns: every column of the block cycle is, bit for
// bit, the width-1 apply of that column, for both the pure recursion and the
// smoothed cycle, with and without a doubled tail, at widths that take every
// tile of every sweep and of the coarse factor's solve.
func TestApplyBlockMatchesColumns(t *testing.T) {
	for _, fixture := range []func(*testing.T, int) (*Hierarchy, int){blockApplyFixture, deepBlockApplyFixture} {
		for _, smooth := range []int{0, 1} {
			h, n := fixture(t, smooth)
			rng := rand.New(rand.NewSource(int64(10 + smooth)))
			for _, k := range []int{1, 2, 3, 4, 5, 8, 9, 12} {
				r := make([]float64, n*k)
				cols := make([][]float64, k)
				for j := range cols {
					cols[j] = meanFree(rng, n)
					for v := 0; v < n; v++ {
						r[v*k+j] = cols[j][v]
					}
				}
				dst := make([]float64, n*k)
				h.ApplyBlock(dst, r, k)
				ref := make([]float64, n)
				for j := 0; j < k; j++ {
					h.Apply(ref, cols[j])
					for v := 0; v < n; v++ {
						if dst[v*k+j] != ref[v] {
							t.Fatalf("depth=%d smooth=%d k=%d col %d vertex %d: block %v vs scalar %v",
								h.Depth(), smooth, k, j, v, dst[v*k+j], ref[v])
						}
					}
				}
			}
		}
	}
}

// TestApplyBlockGOMAXPROCSInvariant: every block step is elementwise, a
// fixed-order segmented sum, or the invariant SpMM, so the whole V-cycle is
// bit-identical at any worker count.
func TestApplyBlockGOMAXPROCSInvariant(t *testing.T) {
	h, n := blockApplyFixture(t, 1)
	rng := rand.New(rand.NewSource(21))
	const k = 4
	r := make([]float64, n*k)
	for i := range r {
		r[i] = rng.NormFloat64()
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	ref := make([]float64, n*k)
	h.ApplyBlock(ref, r, k)
	for _, procs := range []int{2, 4} {
		runtime.GOMAXPROCS(procs)
		dst := make([]float64, n*k)
		h.ApplyBlock(dst, r, k)
		for i := range dst {
			if dst[i] != ref[i] {
				t.Fatalf("procs=%d entry %d: %v != %v", procs, i, dst[i], ref[i])
			}
		}
	}
}

// TestApplyBlockConcurrent: concurrent block applies on one hierarchy share
// the pool and the coarse factor without cross-talk (run under -race in CI).
func TestApplyBlockConcurrent(t *testing.T) {
	h, n := blockApplyFixture(t, 1)
	rng := rand.New(rand.NewSource(22))
	const k = 2
	const goroutines = 4
	inputs := make([][]float64, goroutines)
	want := make([][]float64, goroutines)
	for i := range inputs {
		inputs[i] = make([]float64, n*k)
		for j := range inputs[i] {
			inputs[i][j] = rng.NormFloat64()
		}
		want[i] = make([]float64, n*k)
		h.ApplyBlock(want[i], inputs[i], k)
	}
	var wg sync.WaitGroup
	errs := make([]int, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			dst := make([]float64, n*k)
			for rep := 0; rep < 5; rep++ {
				h.ApplyBlock(dst, inputs[i], k)
				for j := range dst {
					if dst[j] != want[i][j] {
						errs[i]++
						return
					}
				}
			}
		}(i)
	}
	wg.Wait()
	for i, e := range errs {
		if e > 0 {
			t.Errorf("goroutine %d saw cross-talk in concurrent ApplyBlock", i)
		}
	}
}
