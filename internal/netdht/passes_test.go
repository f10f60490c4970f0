package netdht

import (
	"fmt"
	"reflect"
	"testing"

	"dhsketch/internal/core"
	"dhsketch/internal/sim"
	"dhsketch/internal/sketch"
)

// TestCountZeroAlloc: a warm client counts without allocating — a Count of
// one metric, and a CountAll of 16 into a result slice that has the room —
// with its metrics on, on a converged loopback ring at the benchmark's
// geometry (16 / 64 / sll / 5). AllocsPerRun counts the whole process, so
// the servers' serve steps are held to their zero as well.
func TestCountZeroAlloc(t *testing.T) {
	env := sim.NewEnv(21)
	cl := newTestCluster(t, env, 8)
	settleCluster(t, cl, env)
	c, _ := storeClient(t, cl.Servers()[0].Addr(), 7)
	metrics := make([]uint64, 16)
	for m := range metrics {
		metrics[m] = uint64(m + 1)
		for i := 0; i < 300; i++ {
			if err := c.Insert(metrics[m], core.ItemID(fmt.Sprint("item-", m, "-", i))); err != nil {
				t.Fatalf("insert: %v", err)
			}
		}
	}
	dst := make([]CountResult, 0, len(metrics))
	var failed error
	count := func() {
		if _, err := c.Count(metrics[0]); err != nil {
			failed = err
		}
	}
	countAll := func() {
		if _, err := c.CountAll(dst, metrics); err != nil {
			failed = err
		}
	}
	for _, row := range []struct {
		name string
		run  func()
	}{{"Count", count}, {"CountAll of 16", countAll}} {
		row.run() // dial, fill the view, and grow the pass's state
		if n := testing.AllocsPerRun(50, row.run); n != 0 {
			t.Errorf("a warm %s allocated %.2f/op, want 0", row.name, n)
		}
		if failed != nil {
			t.Fatalf("%s: %v", row.name, failed)
		}
	}
}

// TestCountAllWideZeroAlloc: a warm CountAll of 64 metrics allocates
// nothing either. Its probe requests carry 128 bytes of metric list, more
// than any request a caller could build on its stack: the request is encoded
// once, in the slot that sends it, against the socket's memory.
func TestCountAllWideZeroAlloc(t *testing.T) {
	env := sim.NewEnv(22)
	cl := newTestCluster(t, env, 8)
	settleCluster(t, cl, env)
	c, reg := storeClient(t, cl.Servers()[0].Addr(), 7)
	metrics := make([]uint64, 64)
	for m := range metrics {
		metrics[m] = uint64(m + 1)
		for i := 0; i < 20; i++ {
			if err := c.Insert(metrics[m], core.ItemID(fmt.Sprint("item-", m, "-", i))); err != nil {
				t.Fatalf("insert: %v", err)
			}
		}
	}
	dst := make([]CountResult, 0, len(metrics))
	var failed error
	countAll := func() {
		if _, err := c.CountAll(dst, metrics); err != nil {
			failed = err
		}
	}
	for i := 0; i < 5; i++ {
		countAll() // dial, fill the view, and grow the pass's state
	}
	before := outRPCs(reg, "probe")
	if n := testing.AllocsPerRun(20, countAll); n != 0 {
		t.Errorf("a warm CountAll of 64 allocated %.2f/op, want 0", n)
	}
	if failed != nil {
		t.Fatal(failed)
	}
	if outRPCs(reg, "probe") == before {
		t.Fatal("the warm passes sent no probe: the test did not bite")
	}
}

// TestPooledPassStateIsHistoryFree: a pass in the state an earlier pass left
// behind counts what a pass in fresh memory counts. Two clients of one seed
// run the same sequence of CountAll on one converged ring — one, three and
// sixteen metrics, of 300 and of 5000 items, so that a pass meets state grown
// by a longer list, a larger m's worth of owners and a deeper scan — and one
// of them drops its pass's state after every pass. Every CountResult is the
// same, bit for bit.
func TestPooledPassStateIsHistoryFree(t *testing.T) {
	for _, kind := range []sketch.Kind{sketch.KindSuperLogLog, sketch.KindPCSA} {
		t.Run(kind.String(), func(t *testing.T) {
			env := sim.NewEnv(21)
			cl := newTestCluster(t, env, 8)
			settleCluster(t, cl, env)
			entry := cl.Servers()[0].Addr()
			var clients [2]*Client
			for i := range clients {
				c, err := NewClient(ClientConfig{Entry: entry, K: 16, M: 64, Kind: kind, Lim: 5, Seed: 9})
				if err != nil {
					t.Fatalf("NewClient: %v", err)
				}
				t.Cleanup(c.Close)
				clients[i] = c
			}
			clients[1].release = func(*pass) {}

			// Metric 1 holds 5000 items and metrics 2..17 hold 300 each,
			// loaded one insert per distinct (vector, bit) the items set:
			// what inserting every item leaves in the stores.
			w := clients[0]
			for m := uint64(1); m <= 17; m++ {
				items := 300
				if m == 1 {
					items = 5000
				}
				seen := map[[2]int]bool{}
				for i := 0; i < items; i++ {
					id := core.ItemID(fmt.Sprint("item-", m, "-", i))
					v, bit := w.geom.Split(id)
					if key := [2]int{int(v), int(bit)}; !seen[key] {
						seen[key] = true
						if err := w.Insert(m, id); err != nil {
							t.Fatalf("insert: %v", err)
						}
					}
				}
			}
			sixteen := make([]uint64, 16)
			for i := range sixteen {
				sixteen[i] = uint64(17 - i)
			}
			for i, list := range [][]uint64{{1}, sixteen, {2, 1, 3}, {5}, sixteen[:3], {1}, sixteen, {1, 9, 1}, {4}} {
				var res [2][]CountResult
				for j, c := range clients {
					var err error
					if res[j], err = c.CountAll(nil, list); err != nil {
						t.Fatalf("pass %d, client %d: %v", i, j, err)
					}
				}
				if !reflect.DeepEqual(res[0], res[1]) {
					t.Errorf("pass %d over %v:\n reused state %+v\n fresh state  %+v", i, list, res[0], res[1])
				}
				if res[0][0].Estimate == 0 || res[0][0].Degraded {
					t.Errorf("pass %d over %v: %+v", i, list, res[0][0])
				}
			}
		})
	}
}
