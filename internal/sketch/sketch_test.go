package sketch

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
)

// addDistinct inserts n distinct pseudo-uniform hashes.
func addDistinct(e Estimator, rng *rand.Rand, n int) {
	for i := 0; i < n; i++ {
		e.Add(rng.Uint64())
	}
}

// relErr returns |est-n|/n.
func relErr(est float64, n int) float64 {
	return math.Abs(est-float64(n)) / float64(n)
}

func TestNewByKind(t *testing.T) {
	for _, k := range []Kind{KindPCSA, KindSuperLogLog, KindLogLog, KindHyperLogLog} {
		e, err := New(k, 64, 20)
		if err != nil {
			t.Fatalf("New(%v): %v", k, err)
		}
		if e.NumVectors() != 64 {
			t.Errorf("%v: NumVectors = %d", k, e.NumVectors())
		}
	}
	if _, err := New(Kind(99), 64, 20); err == nil {
		t.Error("New with unknown kind should fail")
	}
}

func TestInvalidParams(t *testing.T) {
	cases := []struct {
		m int
		w uint
	}{
		{0, 20}, {-4, 20}, {3, 20}, {100, 20}, // m not a power of two
		{64, 0},  // zero width
		{64, 60}, // c + w > 64
		{1 << 30, 40},
	}
	for _, c := range cases {
		for _, k := range []Kind{KindPCSA, KindSuperLogLog, KindLogLog, KindHyperLogLog} {
			if _, err := New(k, c.m, c.w); err == nil {
				t.Errorf("New(%v, m=%d, w=%d) should fail", k, c.m, c.w)
			}
		}
	}
}

func TestKindString(t *testing.T) {
	if KindPCSA.String() != "PCSA" || KindSuperLogLog.String() != "super-LogLog" {
		t.Error("Kind.String mismatch")
	}
	if Kind(42).String() == "" {
		t.Error("unknown Kind should still stringify")
	}
}

func TestStdErrorFormulas(t *testing.T) {
	// §2.2 of the paper: 0.78/√m for PCSA, 1.05/√m for super-LogLog.
	if got := KindPCSA.StdError(512); math.Abs(got-0.78/math.Sqrt(512)) > 1e-12 {
		t.Errorf("PCSA stderr = %v", got)
	}
	if got := KindSuperLogLog.StdError(512); math.Abs(got-1.05/math.Sqrt(512)) > 1e-12 {
		t.Errorf("sLL stderr = %v", got)
	}
}

func TestDuplicateInsensitivity(t *testing.T) {
	// Constraint 6: adding the same element many times must not change
	// the estimate.
	for _, k := range []Kind{KindPCSA, KindSuperLogLog, KindLogLog, KindHyperLogLog} {
		once, _ := New(k, 64, 20)
		many, _ := New(k, 64, 20)
		rng := rand.New(rand.NewPCG(5, 5))
		hashes := make([]uint64, 1000)
		for i := range hashes {
			hashes[i] = rng.Uint64()
		}
		for _, h := range hashes {
			once.Add(h)
		}
		for rep := 0; rep < 7; rep++ {
			for _, h := range hashes {
				many.Add(h)
			}
		}
		if once.Estimate() != many.Estimate() {
			t.Errorf("%v: duplicates changed the estimate: %v vs %v", k, once.Estimate(), many.Estimate())
		}
	}
}

func TestAccuracyWithinBounds(t *testing.T) {
	// Average relative error over independent trials should be within a
	// few theoretical standard errors for each estimator family.
	const m, w = 256, 24
	const n = 100000
	const trials = 30
	for _, k := range []Kind{KindPCSA, KindSuperLogLog, KindLogLog, KindHyperLogLog} {
		var errSum float64
		for trial := 0; trial < trials; trial++ {
			e, _ := New(k, m, w)
			rng := rand.New(rand.NewPCG(uint64(trial), 42))
			addDistinct(e, rng, n)
			errSum += relErr(e.Estimate(), n)
		}
		avg := errSum / trials
		// Mean absolute relative error of an unbiased estimator with
		// stderr σ is about σ·√(2/π); allow 2.5× for noise and residual
		// bias.
		limit := 2.5 * k.StdError(m)
		if avg > limit {
			t.Errorf("%v: mean |rel err| = %.4f exceeds %.4f", k, avg, limit)
		}
	}
}

func TestBiasSmall(t *testing.T) {
	// The signed mean error over many trials should be near zero (the
	// sketches are designed unbiased). This is the key test for the
	// calibrated α̃_m constants.
	const m, w = 512, 24
	const n = 200000
	const trials = 60
	for _, k := range []Kind{KindPCSA, KindSuperLogLog, KindHyperLogLog} {
		var sum float64
		for trial := 0; trial < trials; trial++ {
			e, _ := New(k, m, w)
			rng := rand.New(rand.NewPCG(uint64(1000+trial), 7))
			addDistinct(e, rng, n)
			sum += (e.Estimate() - n) / n
		}
		bias := sum / trials
		// Standard error of the mean over `trials` runs.
		sem := k.StdError(m) / math.Sqrt(trials)
		if math.Abs(bias) > 4*sem+0.01 {
			t.Errorf("%v: bias = %+.4f (sem %.4f)", k, bias, sem)
		}
	}
}

func TestMergeEqualsUnion(t *testing.T) {
	for _, k := range []Kind{KindPCSA, KindSuperLogLog, KindLogLog, KindHyperLogLog} {
		a, _ := New(k, 128, 20)
		b, _ := New(k, 128, 20)
		u, _ := New(k, 128, 20)
		rng := rand.New(rand.NewPCG(9, 9))
		for i := 0; i < 5000; i++ {
			h := rng.Uint64()
			a.Add(h)
			u.Add(h)
		}
		for i := 0; i < 5000; i++ {
			h := rng.Uint64()
			b.Add(h)
			u.Add(h)
		}
		if err := a.Merge(b); err != nil {
			t.Fatalf("%v: Merge: %v", k, err)
		}
		if a.Estimate() != u.Estimate() {
			t.Errorf("%v: merge(%v) != union(%v)", k, a.Estimate(), u.Estimate())
		}
	}
}

func TestMergeIncompatible(t *testing.T) {
	p1, _ := NewPCSA(64, 20)
	p2, _ := NewPCSA(128, 20)
	p3, _ := NewPCSA(64, 16)
	s1, _ := NewSuperLogLog(64, 20)
	if err := p1.Merge(p2); err != ErrIncompatible {
		t.Error("PCSA merge with different m should fail")
	}
	if err := p1.Merge(p3); err != ErrIncompatible {
		t.Error("PCSA merge with different w should fail")
	}
	if err := p1.Merge(s1); err != ErrIncompatible {
		t.Error("PCSA merge with super-LogLog should fail")
	}
	l1, _ := NewLogLog(64, 20)
	if err := s1.Merge(l1); err != ErrIncompatible {
		t.Error("super-LogLog merge with LogLog should fail")
	}
	h1, _ := NewHyperLogLog(64, 20)
	h2, _ := NewHyperLogLog(32, 20)
	if err := h1.Merge(h2); err != ErrIncompatible {
		t.Error("HLL merge with different m should fail")
	}
}

func TestReset(t *testing.T) {
	for _, k := range []Kind{KindPCSA, KindSuperLogLog, KindLogLog, KindHyperLogLog} {
		e, _ := New(k, 64, 20)
		fresh, _ := New(k, 64, 20)
		rng := rand.New(rand.NewPCG(3, 3))
		addDistinct(e, rng, 1000)
		e.Reset()
		if e.Estimate() != fresh.Estimate() {
			t.Errorf("%v: Reset did not restore empty state", k)
		}
	}
}

func TestEstimateMonotoneInData(t *testing.T) {
	// More distinct items should (stochastically) raise the estimate;
	// check across two orders of magnitude where it must hold clearly.
	for _, k := range []Kind{KindPCSA, KindSuperLogLog, KindHyperLogLog} {
		rng := rand.New(rand.NewPCG(17, 17))
		e, _ := New(k, 256, 24)
		addDistinct(e, rng, 1000)
		small := e.Estimate()
		addDistinct(e, rng, 99000)
		large := e.Estimate()
		if large < small*10 {
			t.Errorf("%v: estimate went from %v (1k items) to only %v (100k items)", k, small, large)
		}
	}
}

func TestHLLSmallRangeLinearCounting(t *testing.T) {
	// With very few items HyperLogLog must fall back to linear counting
	// and stay accurate — a regime where plain LogLog fails badly.
	h, _ := NewHyperLogLog(1024, 20)
	rng := rand.New(rand.NewPCG(2, 4))
	addDistinct(h, rng, 100)
	if e := h.Estimate(); relErr(e, 100) > 0.2 {
		t.Errorf("HLL small-range estimate %v for n=100", e)
	}
}

func TestEmptySketchEstimates(t *testing.T) {
	p, _ := NewPCSA(64, 20)
	if got := p.Estimate(); got > float64(64)/phi+1e-9 {
		// Empty PCSA: all M = 0 → estimate m/φ ≈ 1.29·m. This known
		// small-range overshoot is inherent to eq. 4.
		t.Errorf("empty PCSA estimate = %v", got)
	}
	h, _ := NewHyperLogLog(64, 20)
	if got := h.Estimate(); got != 0 {
		t.Errorf("empty HLL estimate = %v, want 0 (linear counting of V=m)", got)
	}
}

func TestMinBitmapWidth(t *testing.T) {
	// eq. 3: H₀ = log₂ m + ⌈log₂(nmax/m) + 3⌉. For nmax = 2^32, m = 512:
	// 9 + 23 + 3 = 35.
	if got := MinBitmapWidth(1<<32, 512); got != 35 {
		t.Errorf("MinBitmapWidth(2^32, 512) = %d, want 35", got)
	}
	if got := MinBitmapWidth(1024, 1); got != 13 {
		t.Errorf("MinBitmapWidth(1024, 1) = %d, want 13", got)
	}
}

func TestAlphaLogLogValues(t *testing.T) {
	// α_m converges to the known limit ≈ 0.39701 as m grows, with the
	// distance to the limit shrinking monotonically.
	const limit = 0.39701
	prevDist := math.Inf(1)
	for c := 4; c <= 16; c++ {
		a := AlphaLogLog(1 << c)
		dist := math.Abs(a - limit)
		if dist >= prevDist {
			t.Errorf("AlphaLogLog not converging at m=2^%d: |%v - %v| >= %v", c, a, limit, prevDist)
		}
		prevDist = dist
	}
	if a := AlphaLogLog(1 << 20); math.Abs(a-limit) > 0.001 {
		t.Errorf("AlphaLogLog limit = %v, want ≈ %v", a, limit)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("AlphaLogLog(1) should panic")
			}
		}()
		AlphaLogLog(1)
	}()
}

func TestAlphaHyperLogLog(t *testing.T) {
	if AlphaHyperLogLog(16) != 0.673 || AlphaHyperLogLog(32) != 0.697 || AlphaHyperLogLog(64) != 0.709 {
		t.Error("HLL alpha small-m constants wrong")
	}
	if a := AlphaHyperLogLog(1 << 14); math.Abs(a-0.7213/(1+1.079/16384)) > 1e-12 {
		t.Errorf("HLL alpha large-m = %v", a)
	}
}

func TestPCSALeftmostZeros(t *testing.T) {
	p, _ := NewPCSA(1, 8)
	// Manually set bits 0,1,2 of the single bitmap via crafted hashes:
	// with m=1, vector bits are skipped and ρ acts on the hash itself.
	p.Add(0b001) // rho=0
	p.Add(0b010) // rho=1
	p.Add(0b100) // rho=2
	if got := p.LeftmostZeros()[0]; got != 3 {
		t.Errorf("leftmost zero = %d, want 3", got)
	}
	p.Add(0b10000) // rho=4: gap at 3 remains
	if got := p.LeftmostZeros()[0]; got != 3 {
		t.Errorf("leftmost zero after gap = %d, want 3", got)
	}
}

func TestEstimatePCSAFormula(t *testing.T) {
	// E(n) = (1/0.77351)·m·2^{mean(M)} — check directly against eq. 4.
	got := EstimatePCSA([]int{4, 4, 4, 4})
	want := 1 / phi * 4 * 16
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("EstimatePCSA = %v, want %v", got, want)
	}
	if EstimatePCSA(nil) != 0 {
		t.Error("EstimatePCSA(nil) != 0")
	}
}

func TestEstimateSuperLogLogTruncation(t *testing.T) {
	// With m=10 ranks and θ₀=0.7, only the 7 smallest enter the sum; an
	// outlier in the top 3 must not change the estimate.
	base := []int{5, 5, 5, 5, 5, 5, 5, 9, 9, 9}
	outlier := []int{5, 5, 5, 5, 5, 5, 5, 9, 9, 30}
	if EstimateSuperLogLog(base) != EstimateSuperLogLog(outlier) {
		t.Error("truncation did not suppress top-rank outlier")
	}
	if EstimateSuperLogLog(nil) != 0 {
		t.Error("EstimateSuperLogLog(nil) != 0")
	}
}

func TestEstimateFunctionsMatchSketches(t *testing.T) {
	// The standalone estimation functions over per-vector statistics must
	// agree exactly with the corresponding sketch methods: the DHS layer
	// depends on this equivalence.
	rng := rand.New(rand.NewPCG(21, 22))
	p, _ := NewPCSA(128, 20)
	s, _ := NewSuperLogLog(128, 20)
	l, _ := NewLogLog(128, 20)
	h, _ := NewHyperLogLog(128, 20)
	for i := 0; i < 50000; i++ {
		x := rng.Uint64()
		p.Add(x)
		s.Add(x)
		l.Add(x)
		h.Add(x)
	}
	if got, want := EstimatePCSA(p.LeftmostZeros()), p.Estimate(); got != want {
		t.Errorf("EstimatePCSA %v != PCSA.Estimate %v", got, want)
	}
	toInts := func(qs []uint8) []int {
		out := make([]int, len(qs))
		for i, q := range qs {
			out[i] = int(q)
		}
		return out
	}
	if got, want := EstimateSuperLogLog(toInts(s.Ranks())), s.Estimate(); got != want {
		t.Errorf("EstimateSuperLogLog %v != SuperLogLog.Estimate %v", got, want)
	}
	if got, want := EstimateLogLog(toInts(l.Ranks())), l.Estimate(); got != want {
		t.Errorf("EstimateLogLog %v != LogLog.Estimate %v", got, want)
	}
	if got, want := EstimateHyperLogLog(toInts(h.Ranks())), h.Estimate(); got != want {
		t.Errorf("EstimateHyperLogLog %v != HyperLogLog.Estimate %v", got, want)
	}
}

func TestPCSASmallRangeCorrection(t *testing.T) {
	// The optional correction should reduce error for n ≪ m·2^w.
	const n = 50
	rng := rand.New(rand.NewPCG(8, 8))
	plain, _ := NewPCSA(64, 16)
	corrected, _ := NewPCSA(64, 16)
	corrected.SmallRangeCorrection = true
	for i := 0; i < n; i++ {
		h := rng.Uint64()
		plain.Add(h)
		corrected.Add(h)
	}
	if relErr(corrected.Estimate(), n) >= relErr(plain.Estimate(), n) {
		t.Errorf("correction did not help: plain %v corrected %v (n=%d)",
			plain.Estimate(), corrected.Estimate(), n)
	}
}

func TestCalibrationConstantAccessors(t *testing.T) {
	before := CalibrationConstants()
	SetCalibrationConstant(3, 9.99)
	if CalibrationConstants()[3] != 9.99 {
		t.Error("SetCalibrationConstant had no effect")
	}
	SetCalibrationConstant(3, before[3])
	func() {
		defer func() {
			if recover() == nil {
				t.Error("SetCalibrationConstant(0, ...) should panic")
			}
		}()
		SetCalibrationConstant(0, 1)
	}()
}

func BenchmarkAdd(b *testing.B) {
	for _, k := range []Kind{KindPCSA, KindSuperLogLog, KindHyperLogLog} {
		b.Run(k.String(), func(b *testing.B) {
			e, _ := New(k, 512, 24)
			rng := rand.New(rand.NewPCG(1, 1))
			hashes := make([]uint64, 4096)
			for i := range hashes {
				hashes[i] = rng.Uint64()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Add(hashes[i&4095])
			}
		})
	}
}

func BenchmarkEstimate(b *testing.B) {
	for _, m := range []int{128, 512, 2048} {
		b.Run(fmt.Sprintf("sLL-m%d", m), func(b *testing.B) {
			s, _ := NewSuperLogLog(m, 24)
			rng := rand.New(rand.NewPCG(1, 1))
			addDistinct(s, rng, 100000)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Estimate()
			}
		})
	}
}
