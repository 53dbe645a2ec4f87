package main

import (
	"math"
	"sort"
)

// ladder holds the percentiles the benchmark is willing to report.
var ladder = []float64{50, 75, 90, 95, 99, 99.9}

// minBeyond is the number of samples that must lie beyond a percentile for
// it to be reported: with fewer, the figure is one or two outliers.
const minBeyond = 10

// supportedPercentile returns the highest rung of the ladder that has at
// least minBeyond of n samples beyond it, or 0 when not even the median does.
func supportedPercentile(n int) float64 {
	best := 0.0
	for _, p := range ladder {
		if float64(n)*(100-p) >= 100*minBeyond-1e-6 { // tolerance: 100−99.9 is not exact in binary
			best = p
		}
	}
	return best
}

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile is the nearest-rank p-th percentile (0 < p ≤ 100) of an
// ascending slice; 0 for an empty one.
func percentile(asc []float64, p float64) float64 {
	if len(asc) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(asc))))
	if rank < 1 {
		rank = 1
	}
	return asc[rank-1]
}

// median averages the two middle samples of an even count, like Python's
// statistics.median; 0 for an empty slice.
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles reproduces Python's statistics.quantiles(xs, n=4) (the default
// "exclusive" method), which is what the driver computes spreads with. It
// needs at least two samples.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	cut := func(i int) float64 {
		m := ld + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile distance as a share of the median — the
// run-to-run noise figure a bound is judged against. 0 with fewer than two
// samples or a zero median.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, _, q3 := quartiles(xs)
	med := median(xs)
	if med == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(med)
}
