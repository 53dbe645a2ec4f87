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

func TestReduceSumParallelPath(t *testing.T) {
	forceParallel(t)
	n := 50000
	got := ReduceSum(n, 100, func(lo, hi int) float64 {
		s := 0.0
		for i := lo; i < hi; i++ {
			s += float64(i)
		}
		return s
	})
	want := float64(n*(n-1)) / 2
	if math.Abs(got-want) > 1e-6 {
		t.Errorf("parallel ReduceSum = %v, want %v", got, want)
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

func TestReduceSum(t *testing.T) {
	n := 12345
	got := ReduceSum(n, 100, func(lo, hi int) float64 {
		s := 0.0
		for i := lo; i < hi; i++ {
			s += float64(i)
		}
		return s
	})
	want := float64(n*(n-1)) / 2
	if math.Abs(got-want) > 1e-6 {
		t.Errorf("ReduceSum = %v, want %v", got, want)
	}
	if ReduceSum(0, 10, func(lo, hi int) float64 { return 1 }) != 0 {
		t.Error("empty ReduceSum should be 0")
	}
}

func BenchmarkForSum(b *testing.B) {
	n := 1 << 20
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i)
	}
	b.ResetTimer()
	for it := 0; it < b.N; it++ {
		_ = ReduceSum(n, 0, func(lo, hi int) float64 {
			s := 0.0
			for i := lo; i < hi; i++ {
				s += xs[i]
			}
			return s
		})
	}
}

// TestReduceSumGOMAXPROCSInvariant: one worker sums the same grain chunks in
// the same order as many. The data rounds differently when summed in one
// chunk: each 1 added to 1e16 alone rounds away, while the chunks of 1s sum
// exactly first.
func TestReduceSumGOMAXPROCSInvariant(t *testing.T) {
	const n, grain = 4096, 64
	x := make([]float64, n)
	for i := range x {
		x[i] = 1
	}
	x[0] = 1e16
	sum := func(lo, hi int) float64 {
		s := 0.0
		for _, v := range x[lo:hi] {
			s += v
		}
		return s
	}
	want := 0.0
	for lo := 0; lo < n; lo += grain {
		want += sum(lo, lo+grain)
	}
	if want == sum(0, n) {
		t.Fatal("test data sums the same in one chunk")
	}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		if got := ReduceSum(n, grain, sum); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("GOMAXPROCS=%d: ReduceSum = %v, want the chunk-ordered %v", procs, got, want)
		}
	}
}
