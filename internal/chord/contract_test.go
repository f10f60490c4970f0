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
		Crash: func(o dht.Overlay, n dht.Node) {
			o.(*chord.Ring).Crash(n)
		},
	})

	dhttest.Run(t, dhttest.Harness{
		Name: "StabilizingRing",
		New: func(t *testing.T, env *sim.Env, n int) dht.Overlay {
			return chord.NewStabilizing(env, n, chord.ProtocolConfig{})
		},
		Crash: func(o dht.Overlay, n dht.Node) {
			o.(*chord.StabilizingRing).Crash(n)
		},
		Settle: settleStabilizing,
	})

	dhttest.Run(t, dhttest.Harness{
		Name: "FaultWrappedStatic",
		New: func(t *testing.T, env *sim.Env, n int) dht.Overlay {
			return faultdht.New(chord.New(env, n), env, faultdht.Config{})
		},
		Crash: func(o dht.Overlay, n dht.Node) {
			o.(*faultdht.Overlay).Crash(n)
		},
	})

	dhttest.Run(t, dhttest.Harness{
		Name: "FaultWrappedStabilizing",
		New: func(t *testing.T, env *sim.Env, n int) dht.Overlay {
			return faultdht.New(chord.NewStabilizing(env, n, chord.ProtocolConfig{}), env, faultdht.Config{})
		},
		Crash: func(o dht.Overlay, n dht.Node) {
			o.(*faultdht.Overlay).Crash(n)
		},
		Settle: settleStabilizing,
	})
}

// TestRingMethodSet pins which optional dht extensions each simulated
// ring implements. Ring implements none of Router, SuccessorLister or
// Maintainer although the Membership it is built on has what they need:
// faultdht forwards SuccessorList to an inner overlay that has one, and
// core's counting walk then falls back through the list (walkFallback)
// where it re-entered the interval before — so a SuccessorList on Ring
// would move E12F's table.
func TestRingMethodSet(t *testing.T) {
	// implements lists, in order, whether o is a dht.Router,
	// SuccessorLister, Maintainer and Crasher.
	implements := func(o any) [4]bool {
		_, router := o.(dht.Router)
		_, lister := o.(dht.SuccessorLister)
		_, maintainer := o.(dht.Maintainer)
		_, crasher := o.(dht.Crasher)
		return [4]bool{router, lister, maintainer, crasher}
	}
	if got := implements(chord.New(sim.NewEnv(1), 4)); got != [4]bool{false, false, false, true} {
		t.Errorf("chord.Ring: Router, SuccessorLister, Maintainer, Crasher = %v, want Crasher only", got)
	}
	if got := implements(chord.NewStabilizing(sim.NewEnv(1), 4, chord.ProtocolConfig{})); got != [4]bool{true, true, true, true} {
		t.Errorf("chord.StabilizingRing: Router, SuccessorLister, Maintainer, Crasher = %v, want all four", got)
	}
}

// settleStabilizing advances the clock and runs protocol rounds until
// the maintainer reports quiescence (bounded — a non-converging ring is
// a bug the caller's asserts will surface).
func settleStabilizing(o dht.Overlay, env *sim.Env) {
	m := o.(dht.Maintainer)
	for i := 0; i < 256 && !m.Converged(); i++ {
		env.Clock.Advance(8)
		m.Step()
	}
}
