// Package stats provides the small set of descriptive statistics the
// experiment harness reports: means, deviations, relative errors,
// percentiles, and load-balance metrics for access/storage distribution
// across DHT nodes (constraint 3 of the paper).
package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(xs)))
}

// RelErr returns the signed relative error (est-actual)/actual.
// It returns 0 when both are zero and +Inf when only actual is zero.
func RelErr(est, actual float64) float64 {
	if actual == 0 {
		if est == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return (est - actual) / actual
}

// AbsRelErr returns |est-actual|/actual, the error measure used by the
// paper's accuracy tables ("error (%)").
func AbsRelErr(est, actual float64) float64 {
	return math.Abs(RelErr(est, actual))
}

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) of xs using linear
// interpolation between closest ranks. It does not modify xs.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	if p < 0 || p > 100 {
		panic("stats: percentile out of [0,100]")
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Max returns the maximum of xs, or 0 for an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Min returns the minimum of xs, or 0 for an empty slice.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Gini returns the Gini coefficient of the load vector: 0 for perfectly
// uniform load, approaching 1 as load concentrates on a single node. It
// does not modify loads. Negative loads are not meaningful here and panic.
func Gini(loads []float64) float64 {
	n := len(loads)
	if n == 0 {
		return 0
	}
	sorted := append([]float64(nil), loads...)
	sort.Float64s(sorted)
	if sorted[0] < 0 {
		panic("stats: negative load")
	}
	var cum, weighted float64
	for i, x := range sorted {
		cum += x
		weighted += float64(i+1) * x
	}
	if cum == 0 {
		return 0
	}
	return (2*weighted - float64(n+1)*cum) / (float64(n) * cum)
}

// Distribution summarizes one sample set the way the load-balance
// analyses report it (paper constraint 3): central tendency, spread
// percentiles, and the Gini concentration coefficient. The zero value
// describes an empty sample.
type Distribution struct {
	Count int
	Mean  float64
	Min   float64
	P50   float64
	P90   float64
	P99   float64
	Max   float64
	// Gini is 0 for perfectly uniform samples and approaches 1 as the
	// mass concentrates on a single sample.
	Gini float64
}

// Describe computes the Distribution of xs. It does not modify xs.
// Negative samples panic (via Gini): a load vector cannot go below zero.
func Describe(xs []float64) Distribution {
	if len(xs) == 0 {
		return Distribution{}
	}
	return Distribution{
		Count: len(xs),
		Mean:  Mean(xs),
		Min:   Min(xs),
		P50:   Percentile(xs, 50),
		P90:   Percentile(xs, 90),
		P99:   Percentile(xs, 99),
		Max:   Max(xs),
		Gini:  Gini(xs),
	}
}
