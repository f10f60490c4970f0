package hashutil

import (
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestRhoKnownValues(t *testing.T) {
	cases := []struct {
		y     uint64
		width uint
		want  uint
	}{
		{0, 24, 24}, // ρ(0) = width by convention
		{0, 64, 64},
		{1, 24, 0},
		{2, 24, 1},
		{3, 24, 0},
		{4, 24, 2},
		{8, 24, 3},
		{6, 24, 1},
		{1 << 23, 24, 23},
		{1 << 63, 64, 63},
		{0xFFFFFFFFFFFFFFFF, 64, 0},
	}
	for _, c := range cases {
		if got := Rho(c.y, c.width); got != c.want {
			t.Errorf("Rho(%d, %d) = %d, want %d", c.y, c.width, got, c.want)
		}
	}
}

func TestRhoProbabilityDistribution(t *testing.T) {
	// Equation 1 of the paper: P(ρ(h(d)) = k) = 2^(-k-1) for uniform
	// hashes. Check empirically with a seeded generator.
	rng := rand.New(rand.NewPCG(1, 2))
	const n = 1 << 20
	counts := make([]int, 65)
	for i := 0; i < n; i++ {
		counts[Rho(rng.Uint64(), 64)]++
	}
	for k := 0; k < 10; k++ {
		expected := float64(n) / float64(uint64(1)<<(k+1))
		got := float64(counts[k])
		if got < expected*0.9 || got > expected*1.1 {
			t.Errorf("P(rho = %d): got %d occurrences, expected about %.0f", k, counts[k], expected)
		}
	}
}

func TestRhoDefinitionProperty(t *testing.T) {
	// ρ(y) is the index of the lowest set bit: bit(y, ρ(y)) = 1 and all
	// lower bits are 0.
	f := func(y uint64) bool {
		r := Rho(y, 64)
		if y == 0 {
			return r == 64
		}
		if Bit(y, r) != 1 {
			return false
		}
		for k := uint(0); k < r; k++ {
			if Bit(y, k) != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLsb(t *testing.T) {
	cases := []struct {
		y    uint64
		k    uint
		want uint64
	}{
		{0xDEADBEEF, 8, 0xEF},
		{0xDEADBEEF, 16, 0xBEEF},
		{0xDEADBEEF, 64, 0xDEADBEEF},
		{0xFFFFFFFFFFFFFFFF, 24, 0xFFFFFF},
		{0x123, 0, 0},
	}
	for _, c := range cases {
		if got := Lsb(c.y, c.k); got != c.want {
			t.Errorf("Lsb(%#x, %d) = %#x, want %#x", c.y, c.k, got, c.want)
		}
	}
}

func TestLsbProperty(t *testing.T) {
	f := func(y uint64, k8 uint8) bool {
		k := uint(k8) % 65
		v := Lsb(y, k)
		if k == 64 {
			return v == y
		}
		return v < 1<<k && (y-v)%(1<<k) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLog2(t *testing.T) {
	for c := uint(0); c < 64; c++ {
		if got := Log2(1 << c); got != c {
			t.Errorf("Log2(2^%d) = %d", c, got)
		}
	}
	for _, bad := range []uint64{0, 3, 5, 6, 7, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Log2(%d) did not panic", bad)
				}
			}()
			Log2(bad)
		}()
	}
}

func TestIsPowerOfTwo(t *testing.T) {
	for c := uint(0); c < 64; c++ {
		if !IsPowerOfTwo(1 << c) {
			t.Errorf("IsPowerOfTwo(2^%d) = false", c)
		}
	}
	for _, bad := range []uint64{0, 3, 5, 6, 7, 9, 12, 1<<40 + 1} {
		if IsPowerOfTwo(bad) {
			t.Errorf("IsPowerOfTwo(%d) = true", bad)
		}
	}
}

func TestThr(t *testing.T) {
	// thr(r) = 2^(L-r-1)
	if got := Thr(64, 0); got != 1<<63 {
		t.Errorf("Thr(64,0) = %d", got)
	}
	if got := Thr(64, 63); got != 1 {
		t.Errorf("Thr(64,63) = %d", got)
	}
	if got := Thr(24, 0); got != 1<<23 {
		t.Errorf("Thr(24,0) = %d", got)
	}
}

func TestIntervalsPartitionSpace(t *testing.T) {
	// The k+1 intervals must tile [0, 2^L) exactly: contiguous,
	// non-overlapping, total size 2^L.
	const L, k = 32, 12
	var total uint64
	prevLo := uint64(1) << L // exclusive upper bound of interval r-1
	for r := uint(0); r <= k; r++ {
		lo, size := Interval(L, k, r)
		if lo+size != prevLo {
			t.Fatalf("interval %d: [%d, %d) does not abut previous lower bound %d", r, lo, lo+size, prevLo)
		}
		total += size
		prevLo = lo
	}
	if prevLo != 0 {
		t.Fatalf("intervals do not reach down to 0 (lowest lo = %d)", prevLo)
	}
	if total != 1<<L {
		t.Fatalf("interval sizes sum to %d, want 2^%d", total, L)
	}
}

func TestIntervalSizesHalve(t *testing.T) {
	// |I_r| = 2^(L-r-1): each interval is half the previous one.
	const L, k = 64, 24
	prev, _ := Interval(L, k, 0)
	_ = prev
	_, prevSize := Interval(L, k, 0)
	for r := uint(1); r < k; r++ {
		_, size := Interval(L, k, r)
		if size*2 != prevSize {
			t.Errorf("interval %d size %d is not half of %d", r, size, prevSize)
		}
		prevSize = size
	}
}

func TestIntervalForInverse(t *testing.T) {
	const L, k = 64, 24
	rng := rand.New(rand.NewPCG(7, 7))
	for r := uint(0); r <= k; r++ {
		lo, size := Interval(L, k, r)
		// Boundary identifiers and random interior points all map back.
		ids := []uint64{lo, lo + size - 1, lo + rng.Uint64N(size)}
		for _, id := range ids {
			if got := IntervalFor(L, k, id); got != r {
				t.Errorf("IntervalFor(%d) = %d, want %d", id, got, r)
			}
		}
	}
}

func TestSplitRanges(t *testing.T) {
	const k = 24
	for _, m := range []int{1, 2, 64, 512, 1024} {
		c := Log2(uint64(m))
		f := func(id uint64) bool {
			v, r := Split(id, k, m)
			return v >= 0 && v < m && r <= k-c
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("m=%d: %v", m, err)
		}
	}
}

func TestSplitVectorUniformity(t *testing.T) {
	// Vector selection uses the low-order bits mod m, so uniform hashes
	// must spread items evenly across vectors.
	const k, m = 24, 64
	rng := rand.New(rand.NewPCG(3, 9))
	counts := make([]int, m)
	const n = 1 << 18
	for i := 0; i < n; i++ {
		v, _ := Split(rng.Uint64(), k, m)
		counts[v]++
	}
	expected := float64(n) / m
	for v, got := range counts {
		if float64(got) < expected*0.85 || float64(got) > expected*1.15 {
			t.Errorf("vector %d received %d items, expected about %.0f", v, got, expected)
		}
	}
}

func TestSplitSingleVectorMatchesRho(t *testing.T) {
	// With m = 1 the split must reduce to plain ρ over the k low bits.
	const k = 24
	f := func(id uint64) bool {
		v, r := Split(id, k, 1)
		return v == 0 && r == Rho(Lsb(id, k), k)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIntervalPanics(t *testing.T) {
	for _, c := range []struct{ L, k, r uint }{
		{64, 0, 0},   // k == 0
		{64, 65, 0},  // k > L
		{64, 24, 25}, // r > k
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Interval(%d,%d,%d) did not panic", c.L, c.k, c.r)
				}
			}()
			Interval(c.L, c.k, c.r)
		}()
	}
}

// mustPanicWith runs f and asserts it panics with exactly msg. Exact
// matching is what pins the "hashutil: ..." prefix convention: no linter
// checks it.
func mustPanicWith(t *testing.T, msg string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Errorf("no panic, want %q", msg)
			return
		}
		if got, ok := r.(string); !ok || got != msg {
			t.Errorf("panic = %v, want %q", r, msg)
		}
	}()
	f()
}

func TestPanicMessages(t *testing.T) {
	mustPanicWith(t, "hashutil: argument is not a power of two", func() { Log2(0) })
	mustPanicWith(t, "hashutil: argument is not a power of two", func() { Log2(12) })
	mustPanicWith(t, "hashutil: Thr out of range", func() { Thr(65, 0) })
	mustPanicWith(t, "hashutil: Thr out of range", func() { Thr(24, 24) })
	mustPanicWith(t, "hashutil: Interval requires 0 < k <= L", func() { Interval(64, 0, 0) })
	mustPanicWith(t, "hashutil: Interval requires 0 < k <= L", func() { Interval(64, 65, 0) })
	mustPanicWith(t, "hashutil: bit position beyond bitmap length", func() { Interval(64, 24, 25) })
	mustPanicWith(t, "hashutil: log2(m) must be smaller than the bitmap key length", func() { Split(0, 9, 512) })
	mustPanicWith(t, "hashutil: log2(m) must be smaller than the bitmap key length", func() { Split(0, 8, 512) })
}

func TestThrBoundaries(t *testing.T) {
	// The panic guards in Thr are strict bounds: L = 64 and r = L-1 are
	// the last legal values on each axis.
	if got := Thr(64, 63); got != 1 {
		t.Errorf("Thr(64,63) = %d, want 1", got)
	}
	if got := Thr(1, 0); got != 1 {
		t.Errorf("Thr(1,0) = %d, want 1", got)
	}
}

func TestSplitBoundary(t *testing.T) {
	// c = k-1 is the largest legal vector count: one bit remains for r,
	// so r is always ρ over a 1-bit value — 0 or 1.
	v, r := Split(0xffffffff, 10, 512)
	if v != 511 || r != 0 {
		t.Errorf("Split(all-ones, 10, 512) = (%d, %d), want (511, 0)", v, r)
	}
	v, r = Split(0x1ff, 10, 512) // low 9 bits set, bit 9 clear → rho(0) = 1
	if v != 511 || r != 1 {
		t.Errorf("Split(0x1ff, 10, 512) = (%d, %d), want (511, 1)", v, r)
	}
}

func BenchmarkSplit(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 1))
	ids := make([]uint64, 1024)
	for i := range ids {
		ids[i] = rng.Uint64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Split(ids[i%len(ids)], 24, 512)
	}
}
