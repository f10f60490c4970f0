package sketch

import (
	"math"

	"dhsketch/internal/hashutil"
)

// theta0 is the truncation parameter of super-LogLog: only the ⌊θ₀·m⌋
// smallest per-vector maxima enter the estimate. The paper (after Durand &
// Flajolet) reports θ₀ = 0.7 as near-optimal.
const theta0 = 0.7

// theta0Count returns m₀ = ⌊θ₀·m⌋ (at least 1) in exact integer
// arithmetic: θ₀ is exactly 7/10, so ⌊θ₀·m⌋ = 7m/10. The float64 product
// 0.7·m lands just below the true value whenever 7m/10 is an integer
// (0.7 is not representable; e.g. m = 10 → 6.999…), and truncating it
// would silently drop one vector from the truncated mean.
func theta0Count(m int) int {
	m0 := 7 * m / 10
	if m0 < 1 {
		m0 = 1
	}
	return m0
}

// Registers is the sketch of every LogLog-family kind (Durand & Flajolet
// 2003; Flajolet, Fusy, Gandouet & Meunier 2007): each of m registers
// records the maximum rank ρ(hash remainder)+1 observed, and the kind
// decides only how the ranks become an estimate (Kind.Estimate) —
// super-LogLog's truncated geometric mean (the paper's eq. 2), plain
// LogLog's untruncated one, or HyperLogLog's harmonic mean. HyperLogLog
// is not part of the paper: the DHS bit→interval mapping stores exactly
// the ranks it needs, so the extension comes for free.
type Registers struct {
	kind Kind
	c    uint    // log₂ m
	w    uint    // register hash width in bits
	rank []uint8 // per-register maximum rank; 0 = empty register
}

// NumVectors returns the number of registers m.
func (r *Registers) NumVectors() int { return len(r.rank) }

// Add records one element by its 64-bit hash.
func (r *Registers) Add(hash uint64) {
	v := hash & uint64(len(r.rank)-1)
	if q := rank(hash>>r.c, r.w); q > r.rank[v] {
		r.rank[v] = q
	}
}

// Ranks returns the per-register maximum ranks (0 for empty registers).
// The rank of a hash remainder y is ρ(y)+1, so in the paper's 0-based R
// notation a register with rank q corresponds to R = q-1.
func (r *Registers) Ranks() []uint8 { return append([]uint8(nil), r.rank...) }

// Estimate returns the kind's estimate over the ranks.
func (r *Registers) Estimate() float64 {
	ranks := make([]int, len(r.rank))
	for i, q := range r.rank {
		ranks[i] = int(q)
	}
	return r.kind.Estimate(ranks)
}

// Merge keeps the per-register maximum of both sketches; it refuses
// another kind, m or w.
func (r *Registers) Merge(other Estimator) error {
	o, ok := other.(*Registers)
	if !ok || o.kind != r.kind || len(o.rank) != len(r.rank) || o.w != r.w {
		return ErrIncompatible
	}
	for i, q := range o.rank {
		r.rank[i] = max(r.rank[i], q)
	}
	return nil
}

// Reset clears all registers.
func (r *Registers) Reset() { clear(r.rank) }

// EstimateSuperLogLog computes eq. 2 from per-vector maximum ranks, where
// rank = ρ(y)+1 and 0 marks an empty vector:
// E(n) = α̃_m · m₀ · 2^{(1/m₀)·Σ*M}, the ⌊θ₀·m⌋ smallest ranks averaged,
// with α̃_m calibrated so the estimate is unbiased. The DHS counting
// algorithm reaches it with ranks reconstructed from the overlay (its
// 0-based R[j] values map to ranks R[j]+1, and unresolved vectors to 0).
func EstimateSuperLogLog(ranks []int) float64 {
	m := len(ranks)
	if m == 0 {
		return 0
	}
	m0 := theta0Count(m)
	return AlphaSuperLogLog(m) * float64(m0) * math.Exp2(float64(smallestSum(ranks, m0))/float64(m0))
}

// smallestSum is the sum of the n smallest ranks, read from a histogram of
// them. A rank is ρ+1 of a hash of at most 64 bits, so it lies in [0, 65];
// one outside [0, 255] is a caller's fault and panics on the index.
func smallestSum(ranks []int, n int) (sum int) {
	var hist [256]int
	for _, q := range ranks {
		hist[q]++
	}
	for q := 0; n > 0; q++ {
		take := min(hist[q], n)
		sum, n = sum+take*q, n-take
	}
	return sum
}

// EstimateLogLog computes the untruncated LogLog estimate
// α_m · m · 2^{mean(rank)} from per-vector maximum ranks.
func EstimateLogLog(ranks []int) float64 {
	m := len(ranks)
	if m == 0 {
		return 0
	}
	var sum int
	for _, q := range ranks {
		sum += q
	}
	return AlphaLogLog(m) * float64(m) * math.Exp2(float64(sum)/float64(m))
}

// EstimateHyperLogLog computes the HyperLogLog estimate from per-register
// maximum ranks (0 = empty register), including the linear-counting
// small-range correction.
func EstimateHyperLogLog(ranks []int) float64 {
	m := len(ranks)
	if m == 0 {
		return 0
	}
	var harm float64
	zeros := 0
	for _, q := range ranks {
		harm += math.Exp2(-float64(q))
		if q == 0 {
			zeros++
		}
	}
	e := AlphaHyperLogLog(m) * float64(m) * float64(m) / harm
	if e <= 2.5*float64(m) && zeros > 0 {
		// Linear counting: m·ln(m/V) where V is the number of empty
		// registers.
		e = float64(m) * math.Log(float64(m)/float64(zeros))
	}
	return e
}

// rank returns ρ(lsb_w(y)) + 1 ∈ [1, w+1]; the all-zero remainder ranks
// w+1, consistently with "the first 1-bit lies beyond the width".
func rank(y uint64, w uint) uint8 {
	return uint8(hashutil.Rho(hashutil.Lsb(y, w), w) + 1)
}
