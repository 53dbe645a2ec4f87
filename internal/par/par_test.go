package par

import (
	"math"
	"runtime"
	"sync/atomic"
	"testing"
)

// forceParallel raises GOMAXPROCS so the multi-worker code paths execute
// even on single-core hosts (goroutines still interleave correctly).
func forceParallel(t *testing.T) {
	t.Helper()
	prev := runtime.GOMAXPROCS(4)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

func TestForParallelPath(t *testing.T) {
	forceParallel(t)
	n := 100000
	hits := make([]int32, n)
	For(n, 1000, Func(func(lo, hi int) {
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&hits[i], 1)
		}
	}))
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d hit %d times", i, h)
		}
	}
}

func TestForCoversRangeOnce(t *testing.T) {
	for _, n := range []int{0, 1, 5, 100, 10000, 100001} {
		hits := make([]int32, n)
		For(n, 7, Func(func(lo, hi int) {
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&hits[i], 1)
			}
		}))
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("n=%d: index %d hit %d times", n, i, h)
			}
		}
	}
}

// addSweep is a sweep as the kernels' callers write one: a value holding
// slices, built at every call.
type addSweep struct{ x, y []float64 }

func (s addSweep) Range(lo, hi int) {
	for i := lo; i < hi; i++ {
		s.x[i] += s.y[i]
	}
}

// TestForSequentialPathAllocatesNothing: on one worker, and at or below the
// grain on several, For runs a sweep value built per call on the calling
// goroutine and allocates nothing — the zero-allocation warm solves rest on
// it. It counts with runtime.MemStats, because testing.AllocsPerRun pins
// GOMAXPROCS to 1 and would not see the several-worker case; the counter is
// the process's, so a round may also hold the runtime's own allocations, and
// the least of three rounds of ten calls is For's.
func TestForSequentialPathAllocatesNothing(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	x, y := make([]float64, 1000), make([]float64, 1000)
	for i := range y {
		y[i] = 1
	}
	for _, c := range []struct{ procs, n, grain int }{{1, 1000, 10}, {4, 100, 100}, {4, 100, 1000}} {
		runtime.GOMAXPROCS(c.procs)
		least := uint64(math.MaxUint64)
		for round := 0; round < 3; round++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < 10; i++ {
				For(c.n, c.grain, addSweep{x[:c.n], y[:c.n]})
			}
			runtime.ReadMemStats(&after)
			least = min(least, after.Mallocs-before.Mallocs)
		}
		if least != 0 {
			t.Errorf("GOMAXPROCS=%d n=%d grain=%d: 10 calls of For allocate at least %d times", c.procs, c.n, c.grain, least)
		}
	}
	if x[0] != 90 {
		t.Errorf("x[0] = %v after 90 sweeps, want 90", x[0])
	}
}
