package netdht

import (
	"fmt"
	"testing"

	"dhsketch/internal/core"
	"dhsketch/internal/sim"
	"dhsketch/internal/sketch"
)

// TestSoftStateOnTheWire pins §3.3's soft state over real sockets on the
// virtual clock: a tuple lives TTL ticks past its last insertion, so once
// the TTL lapses a count reads only the items refreshed since, and joins
// that move arcs before any further refresh leave the count inside the
// estimator's envelope or flag it Degraded.
func TestSoftStateOnTheWire(t *testing.T) {
	if testing.Short() {
		t.Skip("network-heavy")
	}
	const (
		ttl       = 100
		items     = 2000
		refreshed = 500
	)
	env := sim.NewEnv(15)
	cl := newTestCluster(t, env, 8)
	c, err := NewClient(ClientConfig{
		Entry: cl.Servers()[0].Addr(),
		K:     18, M: 64, Kind: sketch.KindSuperLogLog, Lim: 5, TTL: ttl, Seed: 15,
	})
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	defer c.Close()
	metric := core.MetricID("net/soft-state")
	insert := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if err := c.Insert(metric, core.ItemID(fmt.Sprint("soft-", i))); err != nil {
				t.Fatalf("insert %d at t=%d: %v", i, env.Clock.Now(), err)
			}
		}
	}
	// m = 64 super-LogLog has ≈ 13 % standard error; 3σ is the envelope.
	count := func(truth int, degradedOK bool) {
		t.Helper()
		res, err := c.Count(metric)
		if err != nil {
			t.Fatalf("count at t=%d: %v", env.Clock.Now(), err)
		}
		if re := relErr(res.Estimate, truth); re > 0.40 && !(degradedOK && res.Degraded) {
			t.Errorf("t=%d: estimate %.0f for %d live items, relative error %.2f (%+v)",
				env.Clock.Now(), res.Estimate, truth, re, res)
		}
	}

	insert(items)
	count(items, false)

	env.Clock.Advance(60)
	insert(refreshed)
	env.Clock.Advance(60) // t = 120: the first load lapsed at 100, the refresh lives to 160
	count(refreshed, false)

	for i := 0; i < 4; i++ {
		if _, err := cl.Join(fmt.Sprint("soft-joiner-", i)); err != nil {
			t.Fatalf("Join: %v", err)
		}
		sweepRounds(cl)
	}
	count(refreshed, true)
}
