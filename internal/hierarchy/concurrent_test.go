package hierarchy

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"hcd/internal/workload"
)

// TestConcurrentApplyRace guards the concurrency contract of one shared
// hierarchy: eight goroutines mix the scalar Apply with ApplyBlock at widths
// 1, 4 and 8 — every coarse-solve tile — and each result must be
// bit-identical to its serial twin. The graph must be large enough to build
// a level (N > DirectLimit): a depth-0 hierarchy only exercises the coarse
// solve and would pass even with shared per-level scratch — and deep enough
// that one level takes the second coarse visit. Run under -race
// this caught the original bug where apply scratch lived on the Level
// structs; nothing in the apply path takes a lock.
func TestConcurrentApplyRace(t *testing.T) {
	g := workload.Grid3D(10, 10, 10, workload.Lognormal(1), 1)
	opt := DefaultOptions()
	opt.DirectLimit = 30 // deep enough for a doubled level and its two extra pooled vectors
	h, err := New(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	if h.Depth() == 0 || doubledLevels(h) == 0 {
		t.Fatalf("test graph built depth %d with scales %v; concurrency coverage needs levels, one of them doubled", h.Depth(), h.LevelScales())
	}
	n := g.N()

	// Width 0 is the scalar Apply; the rest go through ApplyBlock.
	widths := []int{0, 1, 4, 8, 0, 1, 4, 8}
	apply := func(k int, dst, r []float64) {
		if k == 0 {
			h.Apply(dst, r)
		} else {
			h.ApplyBlock(dst, r, k)
		}
	}
	// Sequential baselines: the applies are deterministic, so the concurrent
	// runs must reproduce these bit-for-bit.
	want := make([][]float64, len(widths))
	rhs := make([][]float64, len(widths))
	for w, k := range widths {
		cols := k
		if cols == 0 {
			cols = 1
		}
		r := make([]float64, n*cols)
		for j := 0; j < cols; j++ {
			r[(w+j)*cols+j] = 1
			r[(n-1-w-j)*cols+j] = -1
		}
		rhs[w] = r
		want[w] = make([]float64, n*cols)
		apply(k, want[w], r)
	}

	var wg sync.WaitGroup
	errs := make([]int, len(widths))
	for w, k := range widths {
		wg.Add(1)
		go func(w, k int) {
			defer wg.Done()
			dst := make([]float64, len(want[w]))
			for i := 0; i < 10; i++ {
				apply(k, dst, rhs[w])
				for v := range dst {
					if dst[v] != want[w][v] {
						errs[w]++
						break
					}
				}
			}
		}(w, k)
	}
	wg.Wait()
	for w, e := range errs {
		if e != 0 {
			t.Errorf("worker %d (width %d): %d/10 concurrent applies diverged from the sequential result", w, widths[w], e)
		}
	}
}

// BenchmarkConcurrentSolves: engines ∈ {1,2,4,8} goroutines each drive
// V-cycles through one shared hierarchy on a graph small enough that the
// coarse solve is a large share of the cycle — the case a lock around it
// would serialize. ns/op is per apply across all engines, so flat scaling
// halves it per doubling. Counts above the host's cores are skipped.
func BenchmarkConcurrentSolves(b *testing.B) {
	g := femesh64(b)
	h, err := New(g, DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	n := g.N()
	for _, engines := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("engines=%d", engines), func(b *testing.B) {
			if engines > runtime.NumCPU() {
				b.Skipf("%d engines on %d CPUs", engines, runtime.NumCPU())
			}
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(engines))
			var wg sync.WaitGroup
			b.ResetTimer()
			for e := 0; e < engines; e++ {
				wg.Add(1)
				go func(e int) {
					defer wg.Done()
					r := make([]float64, n)
					r[e], r[n-1-e] = 1, -1
					dst := make([]float64, n)
					for i := e; i < b.N; i += engines {
						h.Apply(dst, r)
					}
				}(e)
			}
			wg.Wait()
		})
	}
}
