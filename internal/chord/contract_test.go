package chord_test

import (
	"testing"

	"dhsketch/internal/chord"
	"dhsketch/internal/dht"
	"dhsketch/internal/dht/dhttest"
	"dhsketch/internal/faultdht"
	"dhsketch/internal/sim"
)

// TestOverlayContracts runs the dht.Overlay conformance suite against
// every overlay this repository ships: the static ring (routing state
// repaired from the oracle at every membership change, so always
// consistent), the stabilizing ring (protocol-maintained
// state that must settle after membership events), and the fault-
// injection wrapper in transparent (zero-fault) configuration, which
// must not perturb any contract.
func TestOverlayContracts(t *testing.T) {
	dhttest.Run(t, dhttest.Harness{
		Name: "StaticRing",
		New: func(t *testing.T, env *sim.Env, n int) dht.Overlay {
			return chord.New(env, n)
		},
	})

	dhttest.Run(t, dhttest.Harness{
		Name: "StabilizingRing",
		New: func(t *testing.T, env *sim.Env, n int) dht.Overlay {
			return chord.NewStabilizing(env, n, chord.ProtocolConfig{})
		},
	})

	dhttest.Run(t, dhttest.Harness{
		Name: "FaultWrappedStatic",
		New: func(t *testing.T, env *sim.Env, n int) dht.Overlay {
			return faultdht.New(chord.New(env, n), env, faultdht.Config{})
		},
	})

	dhttest.Run(t, dhttest.Harness{
		Name: "FaultWrappedStabilizing",
		New: func(t *testing.T, env *sim.Env, n int) dht.Overlay {
			return faultdht.New(chord.NewStabilizing(env, n, chord.ProtocolConfig{}), env, faultdht.Config{})
		},
	})
}

// TestRingListsNoFallback pins Ring's answer to SuccessorList: nil for
// every node, although the Membership it is built on keeps lists. faultdht
// forwards SuccessorList to its inner overlay, and core's counting walk
// falls back through the list (walkFallback) where it re-entered the
// interval before — so a list on Ring would let the walk step past a drop
// faultdht injects, and E12F's table would move. Ring is also always
// converged, so no count over it is flagged as run in a repair window.
func TestRingListsNoFallback(t *testing.T) {
	r := chord.New(sim.NewEnv(1), 16)
	for _, n := range r.Nodes() {
		if l := r.SuccessorList(n); l != nil {
			t.Fatalf("SuccessorList(%016x) = %v, want nil", n.ID(), l)
		}
	}
	if !r.Converged() {
		t.Error("Ring.Converged() = false, want always true")
	}
}
