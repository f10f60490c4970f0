//go:build !race

// The race detector has nothing to check in these single-goroutine runs
// and makes them ten times slower; plain `go test .` runs them.

package dhsketch_test

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"dhsketch/internal/chord"
	"dhsketch/internal/core"
	"dhsketch/internal/golden"
	"dhsketch/internal/sim"
	"dhsketch/internal/sketch"
)

// ablationCell is one side of an ablation: what the counting or the
// insertion cost, and the count's |relative error|.
type ablationCell struct {
	cost int
	err  float64
}

// ablations are the two design decisions of DESIGN.md §6 measured here:
// each pits a baseline against the variant the design adds. The variant
// must cost less at no worse accuracy.
var ablations = []struct {
	name, cost string
	run        func(t *testing.T) (base, variant ablationCell)
}{
	// Algorithm 1 scans the full bitmap, probing positions that cannot be
	// set when m > 1; the trimmed scan starts at k − log₂(m).
	{"trimmed scan", "nodes visited", func(t *testing.T) (ablationCell, ablationCell) {
		full := core.Config{M: 128, Kind: sketch.KindSuperLogLog}
		trimmed := full
		trimmed.TrimmedScan = true
		return ablationCount(t, 1, 256, 100000, full), ablationCount(t, 1, 256, 100000, trimmed)
	}},
	// Per-item insertion from random nodes against bulk insertion of the
	// same items from 8 sources: the concentration caveat of
	// BulkInsertFrom stays away with 8 inserting nodes.
	{"bulk insert", "lookups", ablationBulk},
}

// ablationCount builds a fresh overlay, inserts n items and counts them
// with cfg, costing the count in nodes visited.
func ablationCount(t *testing.T, seed uint64, nodes, n int, cfg core.Config) ablationCell {
	t.Helper()
	env := sim.NewEnv(seed)
	cfg.Overlay = chord.New(env, nodes)
	cfg.Env = env
	d, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	metric := core.MetricID("ablation")
	for i := 0; i < n; i++ {
		if _, err := d.Insert(metric, core.ItemID(fmt.Sprintf("ab-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	est, err := d.Count(metric)
	if err != nil {
		t.Fatal(err)
	}
	return ablationCell{est.Cost.NodesVisited, math.Abs(est.Value-float64(n)) / float64(n)}
}

// ablationBulk inserts 50 000 items one by one under one metric and in
// bulk from 8 sources under another, on one ring, costing each in lookups.
func ablationBulk(t *testing.T) (item, bulk ablationCell) {
	t.Helper()
	env := sim.NewEnv(5)
	ring := chord.New(env, 128)
	d, err := core.New(core.Config{Overlay: ring, Env: env, M: 16, Kind: sketch.KindSuperLogLog})
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]uint64, 50000)
	for j := range ids {
		ids[j] = core.ItemID(fmt.Sprintf("blk-%d", j))
	}
	metric := core.MetricID("bulk-ablation")
	for _, id := range ids {
		c, err := d.Insert(metric, id)
		if err != nil {
			t.Fatal(err)
		}
		item.cost += c.Lookups
	}
	metric2 := core.MetricID("bulk-ablation-2")
	per := len(ids) / 8
	for s := 0; s < 8; s++ {
		c, err := d.BulkInsertFrom(ring.Nodes()[s*10], metric2, ids[s*per:(s+1)*per])
		if err != nil {
			t.Fatal(err)
		}
		bulk.cost += c.Lookups
	}
	relErr := func(metric uint64) float64 {
		est, err := d.Count(metric)
		if err != nil {
			t.Fatal(err)
		}
		return math.Abs(est.Value-float64(len(ids))) / float64(len(ids))
	}
	item.err, bulk.err = relErr(metric), relErr(metric2)
	return item, bulk
}

// TestAblations renders the ablation table, pinned by
// testdata/ablations.golden.
func TestAblations(t *testing.T) {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "%-13s %-14s %7s %7s %12s %12s\n",
		"ablation", "cost", "base", "variant", "base err%", "variant err%")
	for _, a := range ablations {
		base, variant := a.run(t)
		if variant.cost >= base.cost {
			t.Errorf("%s: variant costs %d %s, baseline %d", a.name, variant.cost, a.cost, base.cost)
		}
		if variant.err > base.err+0.01 {
			t.Errorf("%s: variant error %.4f, baseline %.4f", a.name, variant.err, base.err)
		}
		fmt.Fprintf(&buf, "%-13s %-14s %7d %7d %12.2f %12.2f\n",
			a.name, a.cost, base.cost, variant.cost, 100*base.err, 100*variant.err)
	}
	golden.Check(t, "ablations.golden", buf.Bytes())
}
