package sketch

import (
	"math"

	"dhsketch/internal/hashutil"
)

// phi is the magic constant 0.77351 of Flajolet & Martin; the paper's
// eq. 4 estimates E(n) = (1/0.77351) · m · 2^{(1/m)·ΣM}.
const phi = 0.77351

// PCSA implements Probabilistic Counting with Stochastic Averaging
// (Flajolet & Martin 1985). It maintains m bitmap vectors of w bits each;
// element hashes select a vector with their low-order bits and set bit
// ρ(remaining bits) in it. The estimate derives from the average position
// of the leftmost 0-bit across vectors.
type PCSA struct {
	c       uint     // log2(m)
	w       uint     // bitmap width in bits (≤ 64-c)
	bitmaps []uint64 // one w-bit bitmap per vector, bit r = "some item had ρ = r"
}

// NumVectors returns m.
func (p *PCSA) NumVectors() int { return len(p.bitmaps) }

// Add records one element by its 64-bit hash.
func (p *PCSA) Add(hash uint64) {
	v := hash & uint64(len(p.bitmaps)-1)
	r := hashutil.Rho(hashutil.Lsb(hash>>p.c, p.w), p.w)
	if r >= p.w {
		// The w-bit remainder was all zeros (probability 2^-w); clamp to
		// the top bit rather than dropping the element.
		r = p.w - 1
	}
	p.bitmaps[v] |= 1 << r
}

// LeftmostZeros returns, for each vector, the position of the leftmost
// (least significant) 0-bit — the per-vector statistic M of eq. 4. A
// vector whose w bits are all set contributes w.
func (p *PCSA) LeftmostZeros() []int {
	out := make([]int, len(p.bitmaps))
	for i, b := range p.bitmaps {
		out[i] = leftmostZero(b, p.w)
	}
	return out
}

// Estimate returns the PCSA cardinality estimate (the paper's eq. 4).
func (p *PCSA) Estimate() float64 { return KindPCSA.Estimate(p.LeftmostZeros()) }

// Merge ORs another PCSA sketch into the receiver; it refuses another
// kind, m or w.
func (p *PCSA) Merge(other Estimator) error {
	q, ok := other.(*PCSA)
	if !ok || len(q.bitmaps) != len(p.bitmaps) || q.w != p.w {
		return ErrIncompatible
	}
	for i := range p.bitmaps {
		p.bitmaps[i] |= q.bitmaps[i]
	}
	return nil
}

// Reset clears all bitmaps.
func (p *PCSA) Reset() { clear(p.bitmaps) }

// EstimatePCSA computes the paper's eq. 4 from per-vector leftmost-0-bit
// positions: E(n) = (1/0.77351) · m · 2^{(1/m)·ΣM}. The DHS counting
// algorithm reaches it, through Kind.Estimate, with M values
// reconstructed from the overlay.
func EstimatePCSA(leftmostZeros []int) float64 {
	m := len(leftmostZeros)
	if m == 0 {
		return 0
	}
	return 1 / phi * float64(m) * math.Exp2(meanInt(leftmostZeros))
}

// leftmostZero returns the position of the lowest clear bit of b within
// width w, or w if the low w bits are all set.
func leftmostZero(b uint64, w uint) int {
	for r := uint(0); r < w; r++ {
		if b&(1<<r) == 0 {
			return int(r)
		}
	}
	return int(w)
}

func meanInt(xs []int) float64 {
	var s int
	for _, x := range xs {
		s += x
	}
	return float64(s) / float64(len(xs))
}
