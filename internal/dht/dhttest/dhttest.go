// Package dhttest is the conformance suite for dht.Overlay
// implementations: a table of behavioral contracts — lookup correctness,
// successor-walk closure, the error taxonomy, metering rules, converged
// routing and idempotent protocol steps — that every
// overlay hosting a DHS must satisfy, whatever its internal routing
// machinery. The chord package runs it against Ring (repaired from the
// oracle), StabilizingRing (repaired by the protocol) and the
// fault-injection wrapper around each; a future overlay
// (Pastry, Kademlia, ...) registers a Harness and inherits the suite.
package dhttest

import (
	"errors"
	"fmt"
	"testing"

	"dhsketch/internal/dht"
	"dhsketch/internal/sim"
)

// Harness adapts one overlay implementation to the suite.
type Harness struct {
	// Name labels the subtests.
	Name string

	// New builds an overlay of n nodes over env.
	New func(t *testing.T, env *sim.Env, n int) dht.Overlay
}

// settle lets the overlay repair after membership events: advance the
// clock and run protocol rounds until it reports quiescence (bounded — a
// non-converging overlay is a bug the caller's asserts will surface). An
// atomically repaired overlay is converged already and never steps.
func settle(o dht.Overlay, env *sim.Env) {
	for i := 0; i < 400 && !o.Converged(); i++ {
		env.Clock.Advance(8)
		o.Step()
	}
}

// Run exercises every contract of the suite against the harness.
func Run(t *testing.T, h Harness) {
	t.Run(h.Name, func(t *testing.T) {
		t.Run("OwnerIsClockwiseSuccessor", h.ownerIsClockwiseSuccessor)
		t.Run("LookupReachesOwner", h.lookupReachesOwner)
		t.Run("LookupFromSelfOwned", h.routeFromSelfOwned)
		t.Run("SuccessorCycle", h.successorCycle)
		t.Run("PredecessorInverse", h.predecessorInverse)
		t.Run("RoutedMetering", h.routedMetering)
		t.Run("RandomNodeLive", h.randomNodeLive)
		t.Run("ConvergedRouting", h.convergedRouting)
		t.Run("ErrorTaxonomy", h.errorTaxonomy)
	})
}

// key derives a deterministic probe key for the i-th check.
func key(i int) uint64 { return uint64(i)*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d }

// ownerIsClockwiseSuccessor: Owner(k) is the live node with the smallest
// clockwise distance from k, and owns its own identifier.
func (h Harness) ownerIsClockwiseSuccessor(t *testing.T) {
	env := sim.NewEnv(101)
	o := h.New(t, env, 64)
	nodes := o.Nodes()
	for i := 0; i < 256; i++ {
		k := key(i)
		owner, err := o.Owner(k)
		if err != nil {
			t.Fatalf("Owner(%016x): %v", k, err)
		}
		best := nodes[0]
		for _, n := range nodes[1:] {
			if n.ID()-k < best.ID()-k {
				best = n
			}
		}
		if owner.ID() != best.ID() {
			t.Fatalf("Owner(%016x) = %016x, want clockwise successor %016x", k, owner.ID(), best.ID())
		}
	}
	for _, n := range nodes {
		owner, err := o.Owner(n.ID())
		if err != nil || owner.ID() != n.ID() {
			t.Fatalf("node %016x does not own its own ID (got %v, %v)", n.ID(), owner, err)
		}
	}
}

// lookupReachesOwner: a routed lookup terminates at exactly the node
// Owner names, from any origin, with a sane hop count.
func (h Harness) lookupReachesOwner(t *testing.T) {
	env := sim.NewEnv(102)
	o := h.New(t, env, 64)
	nodes := o.Nodes()
	for i := 0; i < 256; i++ {
		k := key(i)
		src := nodes[i%len(nodes)]
		rt, err := o.RouteFrom(src, k)
		if err != nil {
			t.Fatalf("RouteFrom(%016x, %016x): %v", src.ID(), k, err)
		}
		want, _ := o.Owner(k)
		if rt.Node.ID() != want.ID() {
			t.Fatalf("lookup for %016x reached %016x, owner is %016x", k, rt.Node.ID(), want.ID())
		}
		if rt.Hops < 0 || rt.Hops > 2*len(nodes) {
			t.Fatalf("lookup for %016x took %d hops on a %d-node ring", k, rt.Hops, len(nodes))
		}
	}
}

// routeFromSelfOwned: a node looking up a key it owns itself resolves
// locally, at no cost, to itself.
func (h Harness) routeFromSelfOwned(t *testing.T) {
	env := sim.NewEnv(103)
	o := h.New(t, env, 64)
	for _, n := range o.Nodes() {
		rt, err := o.RouteFrom(n, n.ID())
		if err != nil {
			t.Fatalf("self lookup from %016x: %v", n.ID(), err)
		}
		if rt.Node.ID() != n.ID() {
			t.Fatalf("self lookup from %016x reached %016x", n.ID(), rt.Node.ID())
		}
		if rt.Hops != 0 {
			t.Fatalf("self lookup from %016x cost %d hops, want 0", n.ID(), rt.Hops)
		}
	}
}

// successorCycle: successive Successor steps from any node visit every
// live node exactly once and return to the start — the ring is a single
// cycle in ID order.
func (h Harness) successorCycle(t *testing.T) {
	env := sim.NewEnv(104)
	o := h.New(t, env, 48)
	nodes := o.Nodes()
	start := nodes[7]
	seen := map[uint64]bool{start.ID(): true}
	cur := start
	for i := 0; i < len(nodes); i++ {
		next, err := o.Successor(cur)
		if err != nil {
			t.Fatalf("Successor(%016x): %v", cur.ID(), err)
		}
		if next.ID() == start.ID() {
			if i != len(nodes)-1 {
				t.Fatalf("successor walk closed after %d steps, want %d", i+1, len(nodes))
			}
			return
		}
		if seen[next.ID()] {
			t.Fatalf("successor walk revisited %016x before closing", next.ID())
		}
		seen[next.ID()] = true
		cur = next
	}
	t.Fatalf("successor walk did not close after %d steps", len(nodes))
}

// predecessorInverse: Predecessor inverts Successor on every node.
func (h Harness) predecessorInverse(t *testing.T) {
	env := sim.NewEnv(105)
	o := h.New(t, env, 48)
	for _, n := range o.Nodes() {
		s, err := o.Successor(n)
		if err != nil {
			t.Fatalf("Successor(%016x): %v", n.ID(), err)
		}
		p, err := o.Predecessor(s)
		if err != nil {
			t.Fatalf("Predecessor(%016x): %v", s.ID(), err)
		}
		if p.ID() != n.ID() {
			t.Fatalf("Predecessor(Successor(%016x)) = %016x", n.ID(), p.ID())
		}
	}
}

// routedMetering: Owner is ground truth at zero simulated cost — it must
// not touch any node's Routed counter — while routed lookups increment
// the counters of forwarding nodes (that is what the load-balance
// experiments measure).
func (h Harness) routedMetering(t *testing.T) {
	env := sim.NewEnv(106)
	o := h.New(t, env, 64)
	nodes := o.Nodes()

	snapshot := func() map[uint64]int64 {
		out := make(map[uint64]int64, len(nodes))
		for _, n := range nodes {
			out[n.ID()] = n.Counters().Snapshot().Routed
		}
		return out
	}

	before := snapshot()
	for i := 0; i < 64; i++ {
		if _, err := o.Owner(key(i)); err != nil {
			t.Fatalf("Owner: %v", err)
		}
	}
	if after := snapshot(); fmt.Sprint(after) != fmt.Sprint(before) {
		t.Fatal("Owner (zero-cost ground truth) changed Routed counters")
	}

	var total int64
	for i := 0; i < 128; i++ {
		src := nodes[i%len(nodes)]
		rt, err := o.RouteFrom(src, key(i))
		if err != nil {
			t.Fatalf("RouteFrom: %v", err)
		}
		total += int64(rt.Hops)
	}
	var metered int64
	after := snapshot()
	for id, v := range after {
		metered += v - before[id]
	}
	if total == 0 {
		t.Fatal("128 random lookups on a 64-node ring all cost zero hops")
	}
	if metered != total {
		t.Fatalf("lookups cost %d hops but metered %d Routed increments", total, metered)
	}
}

// randomNodeLive: RandomNode only ever returns live members.
func (h Harness) randomNodeLive(t *testing.T) {
	env := sim.NewEnv(107)
	o := h.New(t, env, 32)
	for i := 0; i < 128; i++ {
		n := o.RandomNode()
		if n == nil {
			t.Fatal("RandomNode returned nil on a populated ring")
		}
		if !n.Alive() {
			t.Fatalf("RandomNode returned dead node %016x", n.ID())
		}
	}
}

// convergedRouting: a freshly built overlay reports Converged; RouteFrom
// from every node reaches the key's Owner without a stale hop; and Step
// is idempotent at a fixed tick — a second Step leaves every one of
// those routes (node reached, hops, stale hops) as it was.
func (h Harness) convergedRouting(t *testing.T) {
	env := sim.NewEnv(109)
	o := h.New(t, env, 32)
	if !o.Converged() {
		t.Fatal("freshly built overlay does not report Converged")
	}
	routes := func() []dht.Route {
		var out []dht.Route
		for i, src := range o.Nodes() {
			for j := 0; j < 4; j++ {
				k := key(4*i + j)
				rt, err := o.RouteFrom(src, k)
				if err != nil {
					t.Fatalf("RouteFrom(%016x, %016x): %v", src.ID(), k, err)
				}
				want, _ := o.Owner(k)
				if rt.Node.ID() != want.ID() || rt.Stale != 0 {
					t.Fatalf("route for %016x from %016x reached %016x with %d stale hops, want owner %016x and none",
						k, src.ID(), rt.Node.ID(), rt.Stale, want.ID())
				}
				out = append(out, rt)
			}
		}
		return out
	}
	o.Step()
	first := routes()
	o.Step()
	for i, rt := range routes() {
		if rt != first[i] {
			t.Fatalf("route %d changed across a second Step at tick %d: (%016x, %d hops, %d stale), then (%016x, %d, %d)",
				i, env.Clock.Now(), first[i].Node.ID(), first[i].Hops, first[i].Stale, rt.Node.ID(), rt.Hops, rt.Stale)
		}
	}
}

// errorTaxonomy: operations addressed to or reaching dead state return
// the typed errors the counting layer's graceful-degradation paths
// dispatch on — dht.ErrNodeDown from a dead originator — and after the
// implementation settles, a crashed node is gone from the membership
// while lookups keep resolving to live owners.
func (h Harness) errorTaxonomy(t *testing.T) {
	env := sim.NewEnv(108)
	o := h.New(t, env, 48)
	nodes := o.Nodes()
	victim := nodes[11]
	o.Crash(victim)

	// A crash-stopped originator cannot issue anything.
	if _, err := o.RouteFrom(victim, key(1)); !errors.Is(err, dht.ErrNodeDown) {
		t.Fatalf("lookup from crashed node: err = %v, want ErrNodeDown", err)
	}
	if victim.Alive() {
		t.Fatal("crashed node still reports Alive")
	}

	settle(o, env)

	// Membership no longer includes the victim.
	for _, n := range o.Nodes() {
		if n.ID() == victim.ID() {
			t.Fatal("crashed node still in Nodes() after settling")
		}
	}
	if o.Size() != len(nodes)-1 {
		t.Fatalf("Size = %d after one crash on %d nodes", o.Size(), len(nodes))
	}
	// Ownership transferred: the victim's own ID now resolves to a live
	// node, and routed lookups from any origin still reach the owner.
	owner, err := o.Owner(victim.ID())
	if err != nil || owner.ID() == victim.ID() || !owner.Alive() {
		t.Fatalf("Owner(%016x) after crash = %v, %v", victim.ID(), owner, err)
	}
	for i := 0; i < 128; i++ {
		k := key(i)
		src := o.RandomNode()
		rt, err := o.RouteFrom(src, k)
		if err != nil {
			t.Fatalf("post-crash lookup for %016x: %v", k, err)
		}
		want, _ := o.Owner(k)
		if rt.Node.ID() != want.ID() {
			t.Fatalf("post-crash lookup for %016x reached %016x, owner is %016x", k, rt.Node.ID(), want.ID())
		}
	}
}
