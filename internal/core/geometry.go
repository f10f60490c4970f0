package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"

	"dhsketch/internal/hashutil"
	"dhsketch/internal/sim"
	"dhsketch/internal/sketch"
)

// Geometry is the sketch layout every writer and reader of a metric must
// share: how an item's key splits into (vector, bit), which identifier
// interval stores a bit, and which bit positions a counting scan visits
// in which order. It is transport-independent — the simulated overlays
// and the TCP ring's RPC client both build one through NewGeometry, so a
// layout is validated in exactly one place.
type Geometry struct {
	// K is the bitmap/key length in bits (k ≤ L = 64, the identifier
	// length of every overlay).
	K uint
	// M is the number of bitmap vectors, a power of two.
	M int
	// Kind selects the estimator family and with it the scan direction.
	Kind sketch.Kind
	// ShiftBits is the §3.5 bit-shift variant (see Config.ShiftBits).
	ShiftBits uint
	// TrimmedScan starts the descending scan at MaxBit instead of k−1
	// (see Config.TrimmedScan).
	TrimmedScan bool

	logM uint // derived by NewGeometry
	// vectorIDs[v] == v, built by NewGeometry: Place hands a one-item
	// group to its Placer as a window of it, without allocating.
	vectorIDs []int32
}

// NewGeometry validates the layout and returns it ready for use.
func NewGeometry(g Geometry) (Geometry, error) {
	if g.K == 0 || g.K > 64 {
		return Geometry{}, fmt.Errorf("core: bitmap length k=%d must be in [1, 64]", g.K)
	}
	if g.M < 1 || !hashutil.IsPowerOfTwo(uint64(g.M)) {
		return Geometry{}, fmt.Errorf("core: number of bitmaps %d is not a positive power of two", g.M)
	}
	if g.M > math.MaxUint16 {
		// wire.ProbeReq carries the vector count in 16 bits; a larger m
		// would wrap to an empty reply mask.
		return Geometry{}, fmt.Errorf("core: number of bitmaps %d exceeds the wire's 16-bit vector count", g.M)
	}
	g.logM = hashutil.Log2(uint64(g.M))
	if g.logM >= g.K {
		return Geometry{}, fmt.Errorf("core: log2(m)=%d must be below k=%d", g.logM, g.K)
	}
	if (g.Kind == sketch.KindSuperLogLog || g.Kind == sketch.KindLogLog) && g.M < 2 {
		return Geometry{}, errors.New("core: LogLog-family estimators need at least 2 bitmaps")
	}
	if g.ShiftBits > 0 && g.ShiftBits >= g.MaxBit() {
		return Geometry{}, fmt.Errorf("core: shift %d leaves no usable bit positions", g.ShiftBits)
	}
	g.vectorIDs = make([]int32, g.M)
	for v := range g.vectorIDs {
		g.vectorIDs[v] = int32(v)
	}
	return g, nil
}

// MaxBit returns the highest usable bit position k − log₂(m).
func (g *Geometry) MaxBit() uint { return g.K - g.logM }

// Split maps an item's DHT key to (vector, bit position) per §3.4:
// vector = lsb_k(id) mod m, bit = ρ(lsb_k(id) div m).
func (g *Geometry) Split(itemID uint64) (vector int32, bit uint) {
	if g.M == 1 {
		return 0, hashutil.Rho(hashutil.Lsb(itemID, g.K), g.K)
	}
	v, r := hashutil.Split(itemID, g.K, g.M)
	return int32(v), r
}

// Stored reports whether a bit position is recorded at all: with
// ShiftBits = b, positions below b are assumed set and never stored.
func (g *Geometry) Stored(bit uint) bool { return bit >= g.ShiftBits }

// Interval returns the ID-space interval that stores the given bit
// position. With the §3.5 bit-shift variant (ShiftBits = b), bit i is
// stored in the larger interval I_{i−b} ("assigning the ith DHT interval
// to the (i+b)th bit"): its placements then spread over about 2^b times
// more distinct nodes, so no single node's crash can erase a sparse bit.
// The price — the paper does not analyze it — is findability: per-node
// placement density drops by the same 2^b factor, so counting a shifted
// DHS needs a correspondingly larger probe budget (raise Lim or use
// CountAdaptive). Bits below b are never stored; they are assumed set,
// valid when the counted cardinality is well beyond 2^b per vector.
func (g *Geometry) Interval(bit uint) (lo, size uint64) {
	return hashutil.Interval(64, g.K, bit-g.ShiftBits)
}

// Target draws a uniform identifier from the bit's interval — where an
// insertion stores the bit and where a counting probe looks for it.
func (g *Geometry) Target(rng *rand.Rand, bit uint) uint64 {
	lo, size := g.Interval(bit)
	return sim.UniformIn(rng, lo, size)
}

// ScanRange returns the first and last bit position of a counting scan
// and the step between them: ascending from the lowest stored position
// for PCSA (leftmost zeros), descending for the LogLog family (maxima).
func (g *Geometry) ScanRange() (first, last, step int) {
	low, top := int(g.ShiftBits), int(g.MaxBit())
	if g.Kind == sketch.KindPCSA {
		return low, top, 1
	}
	// Algorithm 1 scans the full bitmap length; TrimmedScan skips the
	// positions above k − log₂(m), which the vector index makes
	// unreachable. Independent of the ablation, the start never falls
	// below MaxBit: with m = 1 no hash bits go to the vector index, ranks
	// reach bit k, and a scan capped at k−1 would silently drop the top
	// statistic.
	if start := int(g.K) - 1; start > top && !g.TrimmedScan {
		top = start
	}
	return top, low, -1
}

// finalR fills the vectors a scan left unresolved by the family's
// convention, in the scan's own R, which it returns: PCSA vectors that never
// showed a zero have their leftmost zero just past the top usable bit;
// LogLog-family vectors never observed stay at -1 (empty bucket).
func (g *Geometry) finalR(st *metricState) []int {
	if g.Kind == sketch.KindPCSA {
		for j := range st.R {
			if !st.resolved[j] {
				st.R[j] = int(g.MaxBit()) + 1
			}
		}
	}
	return st.R
}

// estimateFromR turns reconstructed per-vector statistics into a
// cardinality estimate using the configured estimator family. The LogLog
// family's formulas take 1-based ranks, so R's 0-based maximum bit positions
// (-1 = vector never observed) are shifted to ranks in place for the
// estimate, and back.
func (g *Geometry) estimateFromR(R []int) float64 {
	if g.Kind == sketch.KindPCSA {
		return sketch.EstimatePCSA(R)
	}
	shift(R, 1)
	defer shift(R, -1)
	switch g.Kind {
	case sketch.KindSuperLogLog:
		return sketch.EstimateSuperLogLog(R)
	case sketch.KindLogLog:
		return sketch.EstimateLogLog(R)
	case sketch.KindHyperLogLog:
		return sketch.EstimateHyperLogLog(R)
	default:
		panic(fmt.Sprintf("core: unknown estimator kind %v", g.Kind))
	}
}

// shift adds by to every entry of R.
func shift(R []int, by int) {
	for i := range R {
		R[i] += by
	}
}
