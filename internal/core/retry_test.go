package core

import (
	"math"
	"math/rand/v2"
	"testing"

	"dhsketch/internal/chord"
	"dhsketch/internal/sim"
	"dhsketch/internal/sketch"
)

func TestEmptyProbeProbabilityBasics(t *testing.T) {
	// With as many probes as nodes, some probe must hit a non-empty bin
	// whenever items exist.
	if got := EmptyProbeProbability(10, 5, 10); got != 0 {
		t.Errorf("P(all empty with t=N) = %v", got)
	}
	// No items: every probe is empty.
	if got := EmptyProbeProbability(10, 0, 3); got != 1 {
		t.Errorf("P with no items = %v", got)
	}
	// Eq. 5 directly: ((N-t)/N)^n.
	want := math.Pow(0.7, 20)
	if got := EmptyProbeProbability(10, 20, 3); math.Abs(got-want) > 1e-12 {
		t.Errorf("eq.5 = %v, want %v", got, want)
	}
}

func TestEmptyProbeProbabilityMonotone(t *testing.T) {
	// More probes → lower probability of all-empty; more items → lower.
	for tprobe := 1; tprobe < 9; tprobe++ {
		if EmptyProbeProbability(10, 5, tprobe+1) >= EmptyProbeProbability(10, 5, tprobe) {
			t.Errorf("not decreasing in t at t=%d", tprobe)
		}
	}
	for n := 1.0; n < 100; n *= 2 {
		if EmptyProbeProbability(10, 2*n, 3) >= EmptyProbeProbability(10, n, 3) {
			t.Errorf("not decreasing in n at n=%v", n)
		}
	}
}

func TestRetryLimitSatisfiesTarget(t *testing.T) {
	// lim from eq. 6 must actually achieve success probability ≥ p under
	// eq. 5: P(all lim probes empty) ≤ 1-p.
	cases := []struct {
		nodes, items float64
		m            int
	}{
		{64, 64, 1},
		{64, 640, 1},
		{128, 128, 4},
		{1000, 500, 1},
		{32, 4096, 8},
	}
	for _, c := range cases {
		for _, p := range []float64{0.9, 0.99} {
			lim := RetryLimit(c.nodes, c.items, p, c.m, 0)
			// eq. 6 divides the items across m vectors.
			perVector := c.items / float64(c.m)
			pAllEmpty := EmptyProbeProbability(c.nodes, perVector, lim)
			if pAllEmpty > (1-p)+1e-9 {
				t.Errorf("nodes=%v items=%v m=%d p=%v: lim=%d leaves P(miss)=%v > %v",
					c.nodes, c.items, c.m, p, lim, pAllEmpty, 1-p)
			}
		}
	}
}

func TestRetryLimitDefaultRegime(t *testing.T) {
	// §4.1: the default lim = 5 suffices for p ≥ 0.99 whenever the
	// number of items mapped to an interval is at least the number of
	// nodes in it (α ≥ 1, m = 1... the paper states n ≥ m·N).
	for _, nodes := range []float64{8, 64, 512, 4096} {
		lim := RetryLimit(nodes, nodes, 0.99, 1, 0)
		if lim > 5 {
			t.Errorf("alpha=1, N'=%v: lim=%d exceeds the paper's default 5", nodes, lim)
		}
	}
}

func TestRetryLimitMonotonicity(t *testing.T) {
	// Higher confidence needs more probes; replication needs fewer;
	// more vectors (fewer items per vector) need more.
	if RetryLimit(100, 100, 0.999, 1, 0) < RetryLimit(100, 100, 0.9, 1, 0) {
		t.Error("lim not monotone in p")
	}
	if RetryLimit(100, 100, 0.99, 1, 4) > RetryLimit(100, 100, 0.99, 1, 0) {
		t.Error("replication should not increase lim")
	}
	if RetryLimit(100, 100, 0.99, 16, 0) < RetryLimit(100, 100, 0.99, 1, 0) {
		t.Error("more vectors should not decrease lim")
	}
}

func TestRetryLimitEdgeCases(t *testing.T) {
	if RetryLimit(0, 10, 0.99, 1, 0) != 1 {
		t.Error("empty interval should clamp to 1")
	}
	if RetryLimit(10, 0, 0.99, 1, 0) != 1 {
		t.Error("no items should clamp to 1")
	}
	if RetryLimit(10, 10, 0, 1, 0) != 1 {
		t.Error("p=0 should clamp to 1")
	}
	if got := RetryLimit(10, 10, 1, 1, 0); got != 10 {
		t.Errorf("p=1 should require every node, got %d", got)
	}
	if RetryLimit(10, 10, 0.99, 1, 0) != RetryLimit(10, 10, 0.99, 1, 1) {
		t.Error("R=0 and R=1 should coincide")
	}
}

func TestEq6ScheduleFallsWithBit(t *testing.T) {
	// §4.1: smaller intervals (higher bits) have lower lim — "the
	// interval(s) responsible for the least significant bit of the
	// bitmap(s) will have the largest lim value(s)".
	env := sim.NewEnv(1)
	d, err := New(Config{Overlay: chord.New(env, 1024), Env: env, M: 512, Kind: sketch.KindSuperLogLog})
	if err != nil {
		t.Fatal(err)
	}
	sched := d.eq6LimSchedule(1024*100, 0.99)
	prev := math.MaxInt32
	for bit := 0; bit < 16; bit++ {
		lim := sched(bit)
		if lim > prev {
			t.Errorf("lim grew with the bit at bit %d: %d > %d", bit, lim, prev)
		}
		prev = lim
	}
	if first, last := sched(0), sched(15); first <= last {
		t.Errorf("lim did not fall across the bits: %d at bit 0, %d at bit 15", first, last)
	}
}

func TestRetryLimitApproachingCertainty(t *testing.T) {
	// As p → 1 the required budget climbs toward exhaustive search but
	// can never exceed probing every node in the interval: lim ≤ ⌈N'⌉.
	prev := 0
	for _, p := range []float64{0.9, 0.99, 0.999, 0.999999, 1 - 1e-12} {
		lim := RetryLimit(50, 25, p, 1, 0)
		if lim < prev {
			t.Errorf("lim not monotone approaching p=1: %d < %d at p=%v", lim, prev, p)
		}
		if lim > 50 {
			t.Errorf("p=%v: lim=%d exceeds interval size 50", p, lim)
		}
		prev = lim
	}
	// Exactly p=1 with fractional node counts rounds the interval up:
	// probing must cover every node that could exist.
	if got := RetryLimit(10.4, 5, 1, 1, 0); got != 11 {
		t.Errorf("p=1 with N'=10.4: lim=%d, want ceil = 11", got)
	}
	// replicas=0 must behave identically to unreplicated storage even at
	// the p→1 extreme.
	if RetryLimit(10.4, 5, 1, 1, 0) != RetryLimit(10.4, 5, 1, 1, 1) {
		t.Error("R=0 and R=1 diverge at p=1")
	}
}

func TestRetryLimitNeverExceedsIntervalSize(t *testing.T) {
	// Eq. 6 is a probe count over distinct nodes, so it is meaningless
	// beyond ⌈N'⌉ no matter how hostile the parameters.
	for _, nodes := range []float64{1, 2.5, 7, 64, 1000} {
		for _, items := range []float64{0.1, 1, 10, 1e6} {
			for _, m := range []int{1, 16, 1024} {
				lim := RetryLimit(nodes, items, 0.999999, m, 0)
				if float64(lim) > math.Ceil(nodes) {
					t.Errorf("N'=%v n'=%v m=%d: lim=%d > ceil(N')", nodes, items, m, lim)
				}
			}
		}
	}
}

func TestRetryLimitGrowsRelativeToShrinkingInterval(t *testing.T) {
	// In the sparse regime (many vectors, few items per vector) halving
	// the interval does not halve the needed budget: the *fraction* of
	// the interval that must be probed grows as N' shrinks, until tiny
	// intervals demand near-exhaustive search. This is the regime where a
	// constant lim fails and the eq. 6 schedule earns its keep.
	prevFrac := 0.0
	for _, nodes := range []float64{1024, 256, 64, 16, 4} {
		// α = 1/8 held fixed while the interval shrinks.
		lim := RetryLimit(nodes, nodes/8, 0.99, 16, 0)
		frac := float64(lim) / nodes
		if frac < prevFrac {
			t.Errorf("N'=%v: probe fraction %.3f fell below %.3f for a smaller interval",
				nodes, frac, prevFrac)
		}
		prevFrac = frac
	}
	if prevFrac < 0.9 {
		t.Errorf("tiniest sparse interval should need near-exhaustive probing, got fraction %.3f", prevFrac)
	}
}

func TestEmptyProbeProbabilityAgainstSimulation(t *testing.T) {
	// Validate eq. 5 empirically: throw n items into N bins, probe t
	// distinct bins, and compare the miss rate with the formula.
	const (
		nodes  = 40
		items  = 25
		probes = 3
		trials = 20000
	)
	rng := rand.New(rand.NewPCG(123, 456))
	misses := 0
	for trial := 0; trial < trials; trial++ {
		var bins [nodes]int
		for i := 0; i < items; i++ {
			bins[rng.IntN(nodes)]++
		}
		// Probe `probes` distinct bins (partial Fisher–Yates).
		perm := rng.Perm(nodes)
		empty := true
		for _, b := range perm[:probes] {
			if bins[b] > 0 {
				empty = false
				break
			}
		}
		if empty {
			misses++
		}
	}
	got := float64(misses) / trials
	want := EmptyProbeProbability(nodes, items, probes)
	if math.Abs(got-want) > 0.02 {
		t.Errorf("empirical P(miss) = %.4f, eq.5 predicts %.4f", got, want)
	}
}
