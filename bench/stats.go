package main

import (
	"math"
	"sort"
)

// minBeyond is the number of samples that must lie beyond a reported
// tail percentile: fewer than ten and the value is one or two outliers,
// not a percentile.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of an ascending slice.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// tailPercentile returns the q-quantile when at least minBeyond samples
// lie beyond it, and otherwise the highest quantile that has minBeyond
// samples beyond it (the maximum when there are not even that many).
func tailPercentile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n <= minBeyond {
		return percentile(sorted, 1)
	}
	rank := min(int(math.Ceil(q*float64(n))), n-minBeyond)
	return sorted[rank-1]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio is a/b, and 0 when nothing was counted in the denominator: a
// layer the workload bypasses reports 0, not NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
