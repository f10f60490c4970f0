package core

import (
	"fmt"
	"math"
	"testing"

	"dhsketch/internal/chord"
	"dhsketch/internal/obs"
	"dhsketch/internal/sim"
	"dhsketch/internal/sketch"
)

func TestCountAdaptiveImprovesDegradedRegime(t *testing.T) {
	// Configuration deliberately below the α ≥ 1 guarantee:
	// n/(m·N) = 20000/(128·256) ≈ 0.6, where the constant lim = 5
	// misses bits. The adaptive second pass should recover accuracy at
	// the price of more probes.
	const n = 20000
	const trials = 6
	// Each counting pass draws from its own RNG stream, so repeated passes
	// over one overlay are independent samples; averaging a few per trial
	// keeps the comparison about the estimators, not one pass's luck.
	const passes = 3
	var plainErr, adaptErr float64
	var plainVisited, adaptVisited int
	for trial := 0; trial < trials; trial++ {
		d, _, _ := testDHS(t, uint64(300+trial), 256, Config{M: 128, Kind: sketch.KindSuperLogLog})
		metric := MetricID("adaptive")
		insertItems(t, d, metric, n, fmt.Sprintf("ad%d", trial))

		for pass := 0; pass < passes; pass++ {
			plain, err := d.Count(metric)
			if err != nil {
				t.Fatal(err)
			}
			adaptive, err := d.CountAdaptive(metric, 0.99)
			if err != nil {
				t.Fatal(err)
			}
			plainErr += math.Abs(plain.Value-n) / n
			adaptErr += math.Abs(adaptive.Value-n) / n
			plainVisited += plain.Cost.NodesVisited
			adaptVisited += adaptive.Cost.NodesVisited
		}
	}
	plainErr /= trials * passes
	adaptErr /= trials * passes
	if adaptErr >= plainErr {
		t.Errorf("adaptive did not improve: %.3f vs plain %.3f", adaptErr, plainErr)
	}
	if adaptVisited <= plainVisited {
		t.Error("adaptive pass should probe more nodes")
	}
	t.Logf("plain err %.3f (%d visited), adaptive err %.3f (%d visited)",
		plainErr, plainVisited/(trials*passes), adaptErr, adaptVisited/(trials*passes))
}

func TestCountAdaptiveNoWorseInSafeRegime(t *testing.T) {
	// At α ≥ 1 eq. 6 prescribes ≤ Lim probes, so the adaptive pass
	// degenerates to a second plain pass: same accuracy class.
	const n = 100000
	d, _, _ := testDHS(t, 51, 64, Config{M: 64, Kind: sketch.KindSuperLogLog})
	metric := MetricID("adaptive-safe")
	insertItems(t, d, metric, n, "as")
	est, err := d.CountAdaptive(metric, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	if e := math.Abs(est.Value-n) / n; e > 3*sketch.KindSuperLogLog.StdError(64) {
		t.Errorf("adaptive error %.3f in safe regime", e)
	}
}

func TestCountAdaptiveBudgetCapped(t *testing.T) {
	// Even with a tiny first estimate the per-interval budget must not
	// exceed AdaptiveLimCap × Lim probes.
	d, _, _ := testDHS(t, 53, 256, Config{M: 64, Kind: sketch.KindSuperLogLog})
	metric := MetricID("adaptive-cap")
	insertItems(t, d, metric, 500, "cap") // nearly empty metric
	est, err := d.CountAdaptive(metric, 0.999)
	if err != nil {
		t.Fatal(err)
	}
	// Upper bound: both passes, every interval at the cap.
	intervals := int(d.Config().K)
	maxVisits := intervals * (AdaptiveLimCap + 1) * d.Config().Lim
	if est.Cost.NodesVisited > maxVisits {
		t.Errorf("adaptive visited %d nodes, cap implies ≤ %d", est.Cost.NodesVisited, maxVisits)
	}
}

func TestCountAdaptivePCSA(t *testing.T) {
	const n = 30000
	d, _, _ := testDHS(t, 57, 128, Config{M: 64, Kind: sketch.KindPCSA})
	metric := MetricID("adaptive-pcsa")
	insertItems(t, d, metric, n, "ap")
	plain, err := d.Count(metric)
	if err != nil {
		t.Fatal(err)
	}
	adaptive, err := d.CountAdaptive(metric, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	// α = 30000/(64·128) ≈ 3.7 is safe; both should be reasonable, and
	// adaptive must not be catastrophically worse.
	if e := math.Abs(adaptive.Value-n) / n; e > math.Abs(plain.Value-n)/n+0.3 {
		t.Errorf("adaptive PCSA error %.3f vs plain %.3f", e, math.Abs(plain.Value-n)/n)
	}
}

// TestCountAdaptiveKeepsPassEpilogue: right after a crash on a stabilizing
// ring, before any repair round, both passes of CountAdaptive run in the
// repair window — the estimate says so, as CountFrom's does — and each pass
// is traced from count-start to count-done. Both passes' work is on the
// books: the second pass alone never accounts for all of it.
func TestCountAdaptiveKeepsPassEpilogue(t *testing.T) {
	env := sim.NewEnv(61)
	ring := chord.NewStabilizing(env, 64, chord.ProtocolConfig{})
	d, err := New(Config{Overlay: ring, Env: env, M: 16, Kind: sketch.KindSuperLogLog})
	if err != nil {
		t.Fatal(err)
	}
	metric := MetricID("adaptive-window")
	insertItems(t, d, metric, 5000, "aw")
	nodes := ring.Nodes()
	src := nodes[0]
	ring.Crash(nodes[len(nodes)/2])

	plain, err := d.CountFrom(src, metric)
	if err != nil {
		t.Fatal(err)
	}
	if !plain.Quality.RepairWindow {
		t.Fatal("test premise broken: CountFrom after a crash reports no repair window")
	}
	r := obs.NewRing(1 << 16)
	env.SetTracer(r)
	est, err := d.CountAdaptiveFrom(src, metric, 0.99)
	env.SetTracer(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !est.Quality.RepairWindow {
		t.Errorf("CountAdaptiveFrom quality %+v: no repair window", est.Quality)
	}
	if est.Quality.ProbesAttempted <= plain.Quality.ProbesAttempted {
		t.Errorf("%d probes attempted over two passes, one plain pass attempts %d",
			est.Quality.ProbesAttempted, plain.Quality.ProbesAttempted)
	}
	starts, dones := map[uint64]bool{}, map[uint64]bool{}
	for _, e := range r.Events() {
		switch e.Kind {
		case obs.KindCountStart:
			starts[e.Pass] = true
		case obs.KindCountDone:
			dones[e.Pass] = true
		}
	}
	if len(starts) != 2 || len(dones) != 2 {
		t.Errorf("passes started %v, done %v; want both passes bracketed", starts, dones)
	}
}
