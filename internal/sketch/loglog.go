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

// LogLog implements plain LogLog counting (Durand & Flajolet 2003): each
// of m buckets records the maximum rank ρ(hash remainder)+1 observed, and
// the estimate is α_m · m · 2^{mean(rank)}.
type LogLog struct {
	m     int
	c     uint
	w     uint
	rank  []uint8 // per-bucket maximum rank; 0 = empty bucket
	alpha float64
}

// NewLogLog returns an empty LogLog sketch with m ≥ 2 buckets of width w.
func NewLogLog(m int, w uint) (*LogLog, error) {
	if err := validateParams(m, w); err != nil {
		return nil, err
	}
	return &LogLog{
		m:     m,
		c:     hashutil.Log2(uint64(m)),
		w:     w,
		rank:  make([]uint8, m),
		alpha: AlphaLogLog(m),
	}, nil
}

// NumVectors returns m.
func (l *LogLog) NumVectors() int { return l.m }

// Width returns the bucket hash width w in bits.
func (l *LogLog) Width() uint { return l.w }

// Add records one element by its 64-bit hash.
func (l *LogLog) Add(hash uint64) {
	v := int(hash & uint64(l.m-1))
	r := rank(hash>>l.c, l.w)
	if r > l.rank[v] {
		l.rank[v] = r
	}
}

// Ranks returns the per-bucket maximum ranks (0 for empty buckets). The
// rank of a hash remainder y is ρ(y)+1, so in the paper's 0-based R
// notation a bucket with rank q corresponds to R = q-1.
func (l *LogLog) Ranks() []uint8 { return append([]uint8(nil), l.rank...) }

// Estimate returns the plain LogLog estimate α_m · m · 2^{mean(rank)}.
func (l *LogLog) Estimate() float64 {
	var sum int
	for _, q := range l.rank {
		sum += int(q)
	}
	return l.alpha * float64(l.m) * math.Exp2(float64(sum)/float64(l.m))
}

// Merge keeps the per-bucket maximum of both sketches.
func (l *LogLog) Merge(other Estimator) error {
	o, ok := other.(*LogLog)
	if !ok || o.m != l.m || o.w != l.w {
		return ErrIncompatible
	}
	for i, q := range o.rank {
		if q > l.rank[i] {
			l.rank[i] = q
		}
	}
	return nil
}

// Reset clears all buckets.
func (l *LogLog) Reset() {
	for i := range l.rank {
		l.rank[i] = 0
	}
}

// SuperLogLog implements the truncated LogLog estimator of Durand &
// Flajolet (the paper's eq. 2): the ⌊θ₀·m⌋ smallest bucket maxima M are
// averaged and E(n) = α̃_m · m₀ · 2^{(1/m₀)·Σ*M}, with α̃_m calibrated so
// the estimate is unbiased.
type SuperLogLog struct {
	LogLog
}

// NewSuperLogLog returns an empty super-LogLog sketch with m ≥ 2 buckets
// of width w bits.
func NewSuperLogLog(m int, w uint) (*SuperLogLog, error) {
	l, err := NewLogLog(m, w)
	if err != nil {
		return nil, err
	}
	return &SuperLogLog{LogLog: *l}, nil
}

// Estimate returns the truncated (super-LogLog) estimate, eq. 2.
func (s *SuperLogLog) Estimate() float64 {
	ranks := make([]int, s.m)
	for i, q := range s.rank {
		ranks[i] = int(q)
	}
	return EstimateSuperLogLog(ranks)
}

// Merge keeps the per-bucket maximum of both sketches.
func (s *SuperLogLog) Merge(other Estimator) error {
	o, ok := other.(*SuperLogLog)
	if !ok || o.m != s.m || o.w != s.w {
		return ErrIncompatible
	}
	for i, q := range o.rank {
		if q > s.rank[i] {
			s.rank[i] = q
		}
	}
	return nil
}

// EstimateSuperLogLog computes eq. 2 from per-vector maximum ranks, where
// rank = ρ(y)+1 and 0 marks an empty vector. The DHS counting algorithm
// calls this with ranks reconstructed from the overlay (its 0-based R[j]
// values map to ranks R[j]+1, and unresolved vectors to 0).
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

// EstimateLogLog computes the untruncated LogLog estimate from per-vector
// maximum ranks.
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

// rank returns ρ(lsb_w(y)) + 1 ∈ [1, w+1]; the all-zero remainder ranks
// w+1, consistently with "the first 1-bit lies beyond the width".
func rank(y uint64, w uint) uint8 {
	return uint8(hashutil.Rho(hashutil.Lsb(y, w), w) + 1)
}
