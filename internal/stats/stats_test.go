package stats

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil) != 0")
	}
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("Mean = %v", got)
	}
}

func TestStdDev(t *testing.T) {
	if StdDev([]float64{5}) != 0 {
		t.Error("StdDev of singleton should be 0")
	}
	// Population stddev of {2,4,4,4,5,5,7,9} is exactly 2.
	if got := StdDev([]float64{2, 4, 4, 4, 5, 5, 7, 9}); !almost(got, 2, 1e-12) {
		t.Errorf("StdDev = %v, want 2", got)
	}
}

func TestRelErr(t *testing.T) {
	if got := RelErr(110, 100); !almost(got, 0.1, 1e-12) {
		t.Errorf("RelErr(110,100) = %v", got)
	}
	if got := RelErr(90, 100); !almost(got, -0.1, 1e-12) {
		t.Errorf("RelErr(90,100) = %v", got)
	}
	if RelErr(0, 0) != 0 {
		t.Error("RelErr(0,0) != 0")
	}
	if !math.IsInf(RelErr(1, 0), 1) {
		t.Error("RelErr(1,0) should be +Inf")
	}
	if got := AbsRelErr(90, 100); !almost(got, 0.1, 1e-12) {
		t.Errorf("AbsRelErr = %v", got)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	if got := Percentile(xs, 0); got != 15 {
		t.Errorf("p0 = %v", got)
	}
	if got := Percentile(xs, 100); got != 50 {
		t.Errorf("p100 = %v", got)
	}
	if got := Percentile(xs, 50); got != 35 {
		t.Errorf("p50 = %v", got)
	}
	if got := Percentile(xs, 25); got != 20 {
		t.Errorf("p25 = %v", got)
	}
	// Input must be left unsorted/unmodified.
	orig := []float64{3, 1, 2}
	Percentile(orig, 50)
	if orig[0] != 3 || orig[1] != 1 || orig[2] != 2 {
		t.Error("Percentile modified its input")
	}
}

// mustPanicWith runs f and asserts it panics with exactly msg, pinning
// the "stats: ..." prefix convention the panicmsg analyzer enforces.
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

func TestPercentileEdgeCases(t *testing.T) {
	if got := Percentile(nil, 50); got != 0 {
		t.Errorf("Percentile(nil, 50) = %v, want 0", got)
	}
	// The emptiness check precedes the range check, so an out-of-range p
	// on an empty slice is still 0, not a panic.
	if got := Percentile(nil, 200); got != 0 {
		t.Errorf("Percentile(nil, 200) = %v, want 0", got)
	}
	for _, p := range []float64{0, 37.5, 100} {
		if got := Percentile([]float64{42}, p); got != 42 {
			t.Errorf("single-element p%v = %v, want 42", p, got)
		}
	}
	mustPanicWith(t, "stats: percentile out of [0,100]", func() {
		Percentile([]float64{1}, -0.5)
	})
	mustPanicWith(t, "stats: percentile out of [0,100]", func() {
		Percentile([]float64{1}, 100.5)
	})
}

func TestGiniNegativeLoad(t *testing.T) {
	mustPanicWith(t, "stats: negative load", func() {
		Gini([]float64{3, -1, 2})
	})
}

func TestPercentileMonotone(t *testing.T) {
	f := func(raw []float64, a, b uint8) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		pa, pb := float64(a%101), float64(b%101)
		if pa > pb {
			pa, pb = pb, pa
		}
		return Percentile(xs, pa) <= Percentile(xs, pb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMaxMin(t *testing.T) {
	xs := []float64{3, -1, 7, 0}
	if Max(xs) != 7 || Min(xs) != -1 {
		t.Errorf("Max/Min = %v/%v", Max(xs), Min(xs))
	}
	if Max(nil) != 0 || Min(nil) != 0 {
		t.Error("empty-slice aggregates should be 0")
	}
}

func TestGini(t *testing.T) {
	if got := Gini([]float64{1, 1, 1, 1}); !almost(got, 0, 1e-12) {
		t.Errorf("uniform Gini = %v", got)
	}
	// Load concentrated on one node out of many approaches 1.
	loads := make([]float64, 1000)
	loads[0] = 1
	if got := Gini(loads); got < 0.99 {
		t.Errorf("concentrated Gini = %v, want near 1", got)
	}
	if Gini(nil) != 0 {
		t.Error("Gini(nil) != 0")
	}
}

func TestGiniRange(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 13))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.IntN(100)
		loads := make([]float64, n)
		for i := range loads {
			loads[i] = float64(rng.IntN(1000))
		}
		g := Gini(loads)
		if g < -1e-12 || g >= 1 {
			t.Fatalf("Gini out of [0,1): %v for %v", g, loads)
		}
	}
}

func TestMeanStdDevAgainstNormalSample(t *testing.T) {
	rng := rand.New(rand.NewPCG(99, 1))
	xs := make([]float64, 100000)
	for i := range xs {
		xs[i] = rng.NormFloat64()*3 + 10
	}
	if m := Mean(xs); !almost(m, 10, 0.1) {
		t.Errorf("sample mean = %v, want ~10", m)
	}
	if s := StdDev(xs); !almost(s, 3, 0.1) {
		t.Errorf("sample stddev = %v, want ~3", s)
	}
}

func TestDescribe(t *testing.T) {
	if d := Describe(nil); d != (Distribution{}) {
		t.Errorf("Describe(nil) = %+v, want zero value", d)
	}
	d := Describe([]float64{4, 1, 3, 2})
	if d.Count != 4 || d.Mean != 2.5 || d.Min != 1 || d.Max != 4 {
		t.Errorf("Describe = %+v", d)
	}
	if d.P50 < 2 || d.P50 > 3 {
		t.Errorf("P50 = %v, want within [2, 3]", d.P50)
	}
	if d.P99 > d.Max || d.P90 > d.P99 || d.P50 > d.P90 {
		t.Errorf("percentiles not monotone: %+v", d)
	}
	if d.Gini != Gini([]float64{1, 2, 3, 4}) {
		t.Errorf("Gini mismatch: %v", d.Gini)
	}
	uniform := Describe([]float64{7, 7, 7})
	if uniform.Gini != 0 || uniform.P50 != 7 || uniform.Min != 7 || uniform.Max != 7 {
		t.Errorf("uniform sample: %+v", uniform)
	}
}
