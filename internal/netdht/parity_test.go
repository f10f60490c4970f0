package netdht

import (
	"errors"
	"fmt"
	"testing"

	"dhsketch/internal/chord"
	"dhsketch/internal/dht"
	"dhsketch/internal/sim"
)

// protoState renders every live node's protocol state by identifier —
// predecessor, successor list, fingers — so two rings can be compared
// whatever their Ref addresses look like.
func protoState(nodes []dht.Node) map[uint64]string {
	out := make(map[uint64]string, len(nodes))
	for _, n := range nodes {
		pred, succ, fingers := n.(chord.Member).Protocol().State()
		s := fmt.Sprintf("pred=%016x succ=", pred.ID)
		for _, r := range succ {
			s += fmt.Sprintf("%016x,", r.ID)
		}
		s += " fingers="
		for _, f := range fingers {
			s += fmt.Sprintf("%016x,", f.ID)
		}
		out[n.ID()] = s
	}
	return out
}

// TestSimulatorWireParity is the check that the simulator predicts the
// deployment: a simulated ring and a loopback TCP cluster built from the
// same seed, put through the same crashes and the same clock advances,
// must hold the same protocol state on every node after every Step,
// agree on convergence, and route the same keys to the same owners at
// the same cost — before repair, mid-repair and after settling. Both run
// chord.Machine; only the transport under it differs.
func TestSimulatorWireParity(t *testing.T) {
	const n, seed = 16, 4242
	simEnv, netEnv := sim.NewEnv(seed), sim.NewEnv(seed)
	ring := chord.NewStabilizing(simEnv, n, chord.ProtocolConfig{})
	cluster, err := NewCluster(netEnv, n, chord.ProtocolConfig{})
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	t.Cleanup(cluster.Close)

	sides := [2]dht.Overlay{ring, cluster}

	staleSeen := 0
	compare := func(phase string) {
		t.Helper()
		if a, b := ring.Converged(), cluster.Converged(); a != b {
			t.Fatalf("%s: Converged() simulator=%v wire=%v", phase, a, b)
		}
		simState, netState := protoState(ring.Nodes()), protoState(cluster.Nodes())
		if len(simState) != len(netState) {
			t.Fatalf("%s: %d simulated nodes vs %d servers", phase, len(simState), len(netState))
		}
		for id, want := range simState {
			if got := netState[id]; got != want {
				t.Fatalf("%s: node %016x diverged\nsimulator %s\nwire      %s", phase, id, want, got)
			}
		}
		// A fixed set of routes: every live node as origin, keys spread
		// over the ring and just past each node's identifier.
		nodes := ring.Nodes()
		for i := range nodes {
			for _, key := range []uint64{uint64(i) * 0x9e3779b97f4a7c15, nodes[(i+5)%len(nodes)].ID() + 1} {
				var rt [2]dht.Route
				var rerr [2]error
				for k, o := range sides {
					rt[k], rerr[k] = o.RouteFrom(o.Nodes()[i], key)
				}
				if !errors.Is(rerr[1], rerr[0]) {
					t.Fatalf("%s: route %d→%016x: simulator err %v, wire err %v", phase, i, key, rerr[0], rerr[1])
				}
				if rt[0].Hops != rt[1].Hops || rt[0].Stale != rt[1].Stale {
					t.Fatalf("%s: route %d→%016x cost: simulator %d hops/%d stale, wire %d/%d",
						phase, i, key, rt[0].Hops, rt[0].Stale, rt[1].Hops, rt[1].Stale)
				}
				staleSeen += rt[0].Stale
				if rerr[0] == nil && rt[0].Node.ID() != rt[1].Node.ID() {
					t.Fatalf("%s: route %d→%016x owner: simulator %016x, wire %016x",
						phase, i, key, rt[0].Node.ID(), rt[1].Node.ID())
				}
			}
		}
	}
	step := func(ticks int64, phase string) {
		t.Helper()
		simEnv.Clock.Advance(ticks)
		netEnv.Clock.Advance(ticks)
		ring.Step()
		cluster.Step()
		compare(phase)
	}
	crash := func(indexes ...int) {
		for _, o := range sides {
			nodes := o.Nodes()
			for _, i := range indexes {
				o.Crash(nodes[i])
			}
		}
	}

	compare("fresh")
	// A run of two neighbours and one node elsewhere, then — mid-repair —
	// a third blow next to the first.
	crash(3, 4, 11)
	compare("before repair")
	if staleSeen == 0 {
		t.Fatal("routes over three fresh corpses paid no stale hops: the schedule tests nothing")
	}
	sawUnconverged := false
	for i := 0; i < 6; i++ {
		step(4, fmt.Sprintf("mid-repair step %d", i))
		sawUnconverged = sawUnconverged || !ring.Converged()
	}
	if !sawUnconverged {
		t.Fatal("schedule never observed the rings mid-repair")
	}
	crash(2)
	compare("second crash")
	for i := 0; !ring.Converged(); i++ {
		if i == 64 {
			t.Fatal("rings did not settle")
		}
		step(4, fmt.Sprintf("settling step %d", i))
	}
	step(32, "settled")
	if ring.Size() != n-4 || cluster.Size() != n-4 {
		t.Fatalf("sizes after four crashes: simulator %d, wire %d", ring.Size(), cluster.Size())
	}
}
