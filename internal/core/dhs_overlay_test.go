package core

// Cross-overlay tests: the paper claims DHS "is DHT-agnostic, in the
// sense that it can be deployed over any peer-to-peer overlay conforming
// to the DHT abstraction" (§1). These tests run the identical DHS
// workload over the two routing-state models the repository has — the
// oracle ring, whose fingers repair atomically on every membership
// change, and the stabilizing ring, whose per-node successor lists and
// fingers are repaired by protocol rounds — and require equivalent
// behaviour. (The dht.Overlay contract itself is dhttest's job.)

import (
	"fmt"
	"math"
	"testing"

	"dhsketch/internal/chord"
	"dhsketch/internal/dht"
	"dhsketch/internal/sim"
	"dhsketch/internal/sketch"
)

// overlayFactories builds each overlay family at a given size.
var overlayFactories = map[string]func(env *sim.Env, n int) dht.Overlay{
	"chord": func(env *sim.Env, n int) dht.Overlay { return chord.New(env, n) },
	"stabilizing": func(env *sim.Env, n int) dht.Overlay {
		return chord.NewStabilizing(env, n, chord.ProtocolConfig{})
	},
}

// crashRandom crash-stops k distinct random live nodes and, where the
// overlay repairs by protocol rounds, runs them until it is quiescent.
func crashRandom(t *testing.T, env *sim.Env, overlay dht.Overlay, k int) {
	t.Helper()
	rng := env.Derive("agnostic-crash")
	for i := 0; i < k; i++ {
		nodes := overlay.Nodes()
		overlay.(dht.Crasher).Crash(nodes[rng.IntN(len(nodes))])
	}
	m, ok := overlay.(dht.Maintainer)
	if !ok {
		return
	}
	for i := 0; i < 512 && !m.Converged(); i++ {
		env.Clock.Advance(8)
		m.Step()
	}
	if !m.Converged() {
		t.Fatal("overlay did not converge after the crashes")
	}
}

func TestDHSAgnosticAccuracy(t *testing.T) {
	const n = 100000
	errs := map[string]float64{}
	for name, mk := range overlayFactories {
		env := sim.NewEnv(71)
		overlay := mk(env, 64)
		d, err := New(Config{Overlay: overlay, Env: env, M: 64, Kind: sketch.KindSuperLogLog})
		if err != nil {
			t.Fatal(err)
		}
		metric := MetricID("agnostic")
		for i := 0; i < n; i++ {
			if _, err := d.Insert(metric, ItemID(fmt.Sprintf("ag-%d", i))); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		est, err := d.Count(metric)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		errs[name] = math.Abs(est.Value-n) / n
	}
	limit := 3 * sketch.KindSuperLogLog.StdError(64)
	for name, e := range errs {
		if e > limit {
			t.Errorf("%s: error %.3f exceeds %.3f", name, e, limit)
		}
	}
}

func TestDHSAgnosticCosts(t *testing.T) {
	// Both overlays must deliver logarithmic insertion and counting hop
	// costs of the same magnitude.
	const n = 20000
	hops := map[string]float64{}
	countHops := map[string]int64{}
	for name, mk := range overlayFactories {
		env := sim.NewEnv(73)
		overlay := mk(env, 256)
		d, err := New(Config{Overlay: overlay, Env: env, M: 32, Kind: sketch.KindSuperLogLog})
		if err != nil {
			t.Fatal(err)
		}
		metric := MetricID("agncost")
		var total int64
		for i := 0; i < n; i++ {
			c, err := d.Insert(metric, ItemID(fmt.Sprintf("ac-%d", i)))
			if err != nil {
				t.Fatal(err)
			}
			total += c.Hops
		}
		hops[name] = float64(total) / n
		est, err := d.Count(metric)
		if err != nil {
			t.Fatal(err)
		}
		countHops[name] = est.Cost.Hops
	}
	for name, h := range hops {
		if h <= 0 || h > math.Log2(256) {
			t.Errorf("%s: avg insert hops %.2f outside (0, 8]", name, h)
		}
	}
	ratio := float64(countHops["chord"]) / float64(countHops["stabilizing"])
	if ratio < 0.25 || ratio > 4 {
		t.Errorf("counting costs diverge across overlays: %v", countHops)
	}
}

func TestDHSAgnosticFaultTolerance(t *testing.T) {
	// Replication must protect the estimate on both overlays.
	const n = 50000
	for name, mk := range overlayFactories {
		env := sim.NewEnv(79)
		overlay := mk(env, 128)
		d, err := New(Config{Overlay: overlay, Env: env, M: 32, Kind: sketch.KindSuperLogLog, Replication: 3})
		if err != nil {
			t.Fatal(err)
		}
		metric := MetricID("agnfault")
		for i := 0; i < n; i++ {
			if _, err := d.Insert(metric, ItemID(fmt.Sprintf("af-%d", i))); err != nil {
				t.Fatal(err)
			}
		}
		crashRandom(t, env, overlay, 32)
		est, err := d.Count(metric)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if e := math.Abs(est.Value-n) / n; e > 0.5 {
			t.Errorf("%s: error %.3f after failures with R=3", name, e)
		}
	}
}
