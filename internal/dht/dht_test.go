package dht_test

import (
	"errors"
	"testing"

	"dhsketch/internal/chord"
	"dhsketch/internal/dht"
	"dhsketch/internal/netdht"
	"dhsketch/internal/sim"
)

// The package is almost pure interface; these tests pin the contract
// surface: sentinel errors are distinct and wrapped correctly, both
// simulated rings and the loopback TCP cluster satisfy the interface,
// and Counters is a plain mutable value.

func TestSentinelErrors(t *testing.T) {
	if errors.Is(dht.ErrNoRoute, dht.ErrNodeDown) {
		t.Error("sentinel errors must be distinct")
	}
	wrapped := errors.Join(dht.ErrNoRoute)
	if !errors.Is(wrapped, dht.ErrNoRoute) {
		t.Error("ErrNoRoute does not survive wrapping")
	}
}

func TestImplementationsSatisfyOverlay(t *testing.T) {
	cluster, err := netdht.NewCluster(sim.NewEnv(1), 4, chord.ProtocolConfig{})
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	defer cluster.Close()
	var impls = []dht.Overlay{
		chord.New(sim.NewEnv(1), 4),
		chord.NewStabilizing(sim.NewEnv(1), 4, chord.ProtocolConfig{}),
		cluster,
	}
	for _, o := range impls {
		if o.Size() != 4 {
			t.Errorf("%T: Size = %d", o, o.Size())
		}
		n := o.RandomNode()
		if n == nil || !n.Alive() {
			t.Fatalf("%T: bad random node", o)
		}
		// App attachment contract.
		n.SetApp("state")
		if n.App() != "state" {
			t.Errorf("%T: App round trip failed", o)
		}
		n.SetApp(nil)
		if n.App() != nil {
			t.Errorf("%T: App not clearable", o)
		}
		// Counters are mutable in place.
		n.Counters().AddProbed()
		if n.Counters().Snapshot().Probed != 1 {
			t.Errorf("%T: Counters not mutable", o)
		}
	}
}
