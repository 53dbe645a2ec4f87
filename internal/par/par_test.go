package par

import (
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
	For(n, 1000, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&hits[i], 1)
		}
	})
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d hit %d times", i, h)
		}
	}
}

func TestForCoversRangeOnce(t *testing.T) {
	for _, n := range []int{0, 1, 5, 100, 10000, 100001} {
		hits := make([]int32, n)
		For(n, 7, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&hits[i], 1)
			}
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("n=%d: index %d hit %d times", n, i, h)
			}
		}
	}
}

func TestForDefaultGrain(t *testing.T) {
	var count atomic.Int64
	For(100000, 0, func(lo, hi int) {
		count.Add(int64(hi - lo))
	})
	if count.Load() != 100000 {
		t.Errorf("covered %d of 100000", count.Load())
	}
}

// TestForSequentialPathAllocatesNothing: on one worker, and at or below the
// grain, For runs fn on the calling goroutine and allocates nothing — the
// zero-allocation warm solves rest on it.
func TestForSequentialPathAllocatesNothing(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var count int
	fn := func(lo, hi int) { count += hi - lo }
	for _, c := range []struct{ procs, n, grain int }{{1, 100000, 10}, {4, 100, 100}, {4, 100, 0}} {
		runtime.GOMAXPROCS(c.procs)
		if allocs := testing.AllocsPerRun(10, func() { For(c.n, c.grain, fn) }); allocs != 0 {
			t.Errorf("GOMAXPROCS=%d n=%d grain=%d: For allocates %v times per call", c.procs, c.n, c.grain, allocs)
		}
	}
	if count == 0 {
		t.Error("fn never ran")
	}
}
