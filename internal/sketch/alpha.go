package sketch

import (
	"math"
	"math/bits"
)

// AlphaLogLog returns the bias-correction constant α_m of plain LogLog
// counting. Durand & Flajolet give the closed form
//
//	α_m = ( Γ(-1/m) · (1 − 2^{1/m}) / ln 2 )^{−m},
//
// equivalent to the integral expression quoted in §2.2.1 of the paper.
// α_m tends to ≈ 0.39701 as m grows. m must be at least 2 (the closed
// form has a pole at m = 1).
func AlphaLogLog(m int) float64 {
	if m < 2 {
		panic("sketch: LogLog constants require m >= 2")
	}
	g := math.Gamma(-1 / float64(m))
	base := g * (1 - math.Exp2(1/float64(m))) / math.Ln2
	return math.Pow(base, -float64(m))
}

// superLogLogAlpha holds the calibration constants α̃_m for the truncated
// (θ₀ = 0.7) super-LogLog estimator in the paper's eq. 2 form
// E(n) = α̃_m · m₀ · 2^{(1/m₀)·Σ*M}, indexed by log₂ m. Durand & Flajolet
// compute these numerically; the values below were produced by
// cmd/calibrate (Monte-Carlo unbiasing over a sweep of cardinalities with
// a fixed seed; see that command for the procedure). Nothing writes the
// table at run time.
var superLogLogAlpha = [17]float64{
	0,       // m=1: unused (super-LogLog requires m >= 2)
	1.00216, // m=2
	1.49549, // m=4
	1.18762, // m=8
	1.05813, // m=16
	1.09983, // m=32
	1.12230, // m=64
	1.10472, // m=128
	1.09636, // m=256
	1.10006, // m=512
	1.10065, // m=1024
	1.09875, // m=2048
	1.09991, // m=4096
	1.10111, // m=8192
	1.10050, // m=16384 (extrapolated: α̃ has converged by m=2^13)
	1.10050, // m=32768 (extrapolated)
	1.10050, // m=65536 (extrapolated)
}

// AlphaSuperLogLog returns the calibrated α̃_m constant for the truncated
// super-LogLog estimator with m buckets. Sketches always use a power of
// two between 2 and 2^16; other values (possible when estimating from raw
// per-vector statistics) use the nearest calibrated power of two, which is
// accurate to well under the estimator's own standard error because α̃_m
// converges quickly.
func AlphaSuperLogLog(m int) float64 {
	if m < 2 {
		panic("sketch: super-LogLog constants require m >= 2")
	}
	c := bits.Len64(uint64(m)) - 1 // floor(log2 m)
	if c >= len(superLogLogAlpha) {
		c = len(superLogLogAlpha) - 1
	}
	return superLogLogAlpha[c]
}

// AlphaHyperLogLog returns the bias-correction constant for HyperLogLog
// with m registers, per Flajolet, Fusy, Gandouet & Meunier (2007).
func AlphaHyperLogLog(m int) float64 {
	switch {
	case m <= 16:
		return 0.673
	case m <= 32:
		return 0.697
	case m <= 64:
		return 0.709
	default:
		return 0.7213 / (1 + 1.079/float64(m))
	}
}
