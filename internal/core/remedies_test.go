package core

// Remedies for the sub-α regime (counting cardinalities below m·N):
// the paper's §4.1 proposes raising lim (implemented as CountAdaptive);
// this implementation adds the boundary-aware retry walk (EdgeAware).
// These tests pin down the measured hierarchy at N = 1024, n = 25 000,
// m = 128 (α ≈ 0.19); `go test -v` logs it and EXPERIMENTS.md
// ("Ablations") quotes it.
//
// The diagnosis: in sparse intervals most misses are *directional* — the
// blind successor walk never reaches the node below the probe target
// that owns the bit — so extra budget (adaptive) barely helps, while
// walking both directions within the interval fixes the misses outright
// and stops early. A production deployment below the α regime should
// enable EdgeAware; Algorithm 1's blind walk remains the default for
// paper fidelity.

import (
	"fmt"
	"math"
	"testing"

	"dhsketch/internal/sketch"
)

// measureRemedy runs trials of one configuration in the degraded regime.
func measureRemedy(t *testing.T, cfg Config, adaptive bool) (meanErr float64, meanProbes int) {
	t.Helper()
	const n = 25000
	const trials = 5
	var errSum float64
	var probes int
	for trial := 0; trial < trials; trial++ {
		d, _, _ := testDHS(t, uint64(500+trial), 1024, cfg)
		metric := MetricID("remedy")
		insertItems(t, d, metric, n, fmt.Sprintf("rm%d", trial))
		var est Estimate
		var err error
		if adaptive {
			est, err = d.CountAdaptive(metric, 0.99)
		} else {
			est, err = d.Count(metric)
		}
		if err != nil {
			t.Fatal(err)
		}
		errSum += math.Abs(est.Value-n) / n
		probes += est.Cost.NodesVisited
	}
	return errSum / trials, probes / trials
}

func TestSubAlphaRemedyHierarchy(t *testing.T) {
	base := Config{M: 128, Kind: sketch.KindSuperLogLog}
	aware := Config{M: 128, Kind: sketch.KindSuperLogLog, EdgeAware: true}

	plainErr, plainProbes := measureRemedy(t, base, false)
	adaptErr, _ := measureRemedy(t, base, true)
	awareErr, awareProbes := measureRemedy(t, aware, false)
	comboErr, _ := measureRemedy(t, aware, true)

	// The hierarchy, with slack for seed noise.
	if adaptErr > plainErr+0.05 {
		t.Errorf("adaptive (%.2f) worse than plain (%.2f)", adaptErr, plainErr)
	}
	if awareErr > plainErr/2 {
		t.Errorf("edge-aware (%.2f) should at least halve plain error (%.2f)", awareErr, plainErr)
	}
	if comboErr > awareErr+0.05 {
		t.Errorf("combo (%.2f) worse than edge-aware alone (%.2f)", comboErr, awareErr)
	}
	// Edge-aware achieves this with fewer probes than the blind walk.
	if awareProbes >= plainProbes {
		t.Errorf("edge-aware probes %d not below blind %d", awareProbes, plainProbes)
	}
	t.Logf("plain %.1f%%/%d, adaptive %.1f%%, edge-aware %.1f%%/%d, combo %.1f%%",
		100*plainErr, plainProbes, 100*adaptErr, 100*awareErr, awareProbes, 100*comboErr)
}
