package chord

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"dhsketch/internal/dht"
	"dhsketch/internal/sim"
)

// snapshot is one node's protocol state, as Machine.State returns it.
type snapshot struct {
	pred    Ref
	succ    []Ref
	fingers [fingerBits]Ref
}

func snap(n *Node) snapshot {
	pred, succ, fingers := n.proto.State()
	return snapshot{pred, succ, fingers}
}

// sameMember reports whether two references name the same member, by
// identifier and address — so states of different rings compare.
func sameMember(a, b Ref) bool { return a.ID == b.ID && a.Addr == b.Addr }

// diff returns "" when got and want name the same predecessor, successor
// list and fingers, else the first difference.
func (got snapshot) diff(want snapshot) string {
	ids := func(list []Ref) (out []string) {
		for _, r := range list {
			out = append(out, fmt.Sprintf("%016x", r.ID))
		}
		return out
	}
	if !sameMember(got.pred, want.pred) {
		return fmt.Sprintf("pred = %016x, want %016x", got.pred.ID, want.pred.ID)
	}
	if !slices.EqualFunc(got.succ, want.succ, sameMember) {
		return fmt.Sprintf("succ = %v, want %v", ids(got.succ), ids(want.succ))
	}
	for i := range got.fingers {
		if !sameMember(got.fingers[i], want.fingers[i]) {
			return fmt.Sprintf("finger[%d] = %016x, want %016x", i, got.fingers[i].ID, want.fingers[i].ID)
		}
	}
	return ""
}

// checkConverged asserts every live node's protocol state equals the
// converged seed of the same live set. The seed is installed in place:
// it is the ground truth, idempotent when the repaired state is correct.
func checkConverged(t *testing.T, r *Ring, step string) {
	t.Helper()
	got := make([]snapshot, len(r.m.live))
	for i, n := range r.m.live {
		got[i] = snap(n)
	}
	r.m.SeedConverged()
	for i, n := range r.m.live {
		if d := got[i].diff(snap(n)); d != "" {
			t.Fatalf("%s: node %016x %s", step, n.id, d)
		}
	}
}

// checkRoutes asserts that a.RouteFrom and Machine.Route over the
// unmetered in-memory transport on b's nodes return the same owner and
// hop count for sampled (source index, key) pairs. With a == b it checks
// that RouteFrom is Route with every candidate answering; with a twin b
// it also checks that a's repaired state routes like b's.
func checkRoutes(t *testing.T, step string, a, b *Ring, rng *rand.Rand) {
	t.Helper()
	for probe := 0; probe < 16; probe++ {
		idx := rng.IntN(len(a.m.live))
		key := rng.Uint64()
		rt, err := a.RouteFrom(a.m.live[idx], key)
		if err != nil {
			t.Fatalf("%s: RouteFrom: %v", step, err)
		}
		f := b.m.live[idx].proto.Route(&memPeers{}, key, 0, 0)
		if f.Err != nil || f.Stale != 0 || f.Owner.ID != rt.Node.ID() || f.Hops != rt.Hops {
			t.Fatalf("%s: key %016x from node %d: RouteFrom = (%016x, %d), Route = (%016x, %d, stale %d, %v)",
				step, key, idx, rt.Node.ID(), rt.Hops, f.Owner.ID, f.Hops, f.Stale, f.Err)
		}
	}
}

// TestIncrementalFingersMatchFullRebuild drives a randomized churn
// schedule through Join/Fail/Revive and, after every membership event,
// asserts the incrementally repaired protocol state is entry-for-entry
// the converged seed of the live set, and that RouteFrom routes on it
// exactly as Machine.Route does. The converged state is a pure function
// of the live set, so any divergence is a repair bug.
func TestIncrementalFingersMatchFullRebuild(t *testing.T) {
	env := sim.NewEnv(61)
	r := New(env, 96)
	rng := env.Derive("incremental-test")

	var failed []dht.Node
	check := func(step string) {
		t.Helper()
		checkConverged(t, r, step)
		checkRoutes(t, step, r, r, rng)
	}

	for step := 0; step < 120; step++ {
		switch op := rng.IntN(3); {
		case op == 0 || r.Size() < 4:
			n := r.Join(fmt.Sprintf("churn-%d:4000", step))
			check(fmt.Sprintf("step %d join %016x", step, n.ID()))
		case op == 1 && len(failed) > 0:
			n := failed[len(failed)-1]
			failed = failed[:len(failed)-1]
			r.Revive(n)
			check(fmt.Sprintf("step %d revive %016x", step, n.ID()))
		default:
			n := r.m.live[rng.IntN(r.Size())]
			r.Fail(n)
			failed = append(failed, n)
			check(fmt.Sprintf("step %d fail %016x", step, n.ID()))
		}
	}
}

// TestIncrementalFingersRouteEquivalence compares routes on
// incrementally repaired state against an independently constructed twin
// ring that is reseeded from scratch after the same membership schedule —
// route-for-route equivalence without ever reseeding the primary.
func TestIncrementalFingersRouteEquivalence(t *testing.T) {
	a := New(sim.NewEnv(62), 64)
	b := New(sim.NewEnv(62), 64)
	rng := sim.NewEnv(62).Derive("route-equivalence")

	// Apply the same schedule to both rings; b is reseeded after every
	// event, a relies purely on incremental repair.
	for step := 0; step < 40; step++ {
		if rng.IntN(2) == 0 {
			name := fmt.Sprintf("eq-%d:4000", step)
			a.Join(name)
			b.Join(name)
		} else if a.Size() > 4 {
			idx := rng.IntN(a.Size())
			a.Fail(a.m.live[idx])
			b.Fail(b.m.live[idx])
		}
		b.m.SeedConverged()
		if a.Size() != b.Size() {
			t.Fatalf("step %d: rings diverged in size: %d vs %d", step, a.Size(), b.Size())
		}
		checkRoutes(t, fmt.Sprintf("step %d", step), a, b, rng)
	}
}

// TestRepairPoliciesAgree runs one crash/join schedule on a Ring and on a
// StabilizingRing at r = 1 and, once the protocol has converged, asserts
// every live node holds the same predecessor, successor list and fingers
// on both: the oracle's repair reaches the protocol's fixed point, which
// is what makes Ring the protocol, converged.
func TestRepairPoliciesAgree(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		oracle := New(sim.NewEnv(seed), 64)
		env := sim.NewEnv(seed)
		proto := NewStabilizing(env, 64, ProtocolConfig{SuccListLen: 1})
		rng := sim.NewEnv(seed).Derive("repair-policies")
		for round := 0; round < 3; round++ {
			for k := 0; k < 2; k++ {
				idx := rng.IntN(oracle.Size())
				oracle.Crash(oracle.Nodes()[idx])
				proto.Crash(proto.Nodes()[idx])
			}
			name := fmt.Sprintf("policy-%d:4000", round)
			oracle.Join(name)
			proto.Join(name)
			settle(t, proto, env)

			step := fmt.Sprintf("seed %d round %d", seed, round)
			if oracle.Size() != proto.Size() {
				t.Fatalf("%s: sizes %d vs %d", step, oracle.Size(), proto.Size())
			}
			for i, n := range oracle.m.live {
				if d := snap(proto.live[i]).diff(snap(n)); d != "" {
					t.Fatalf("%s: node %016x: protocol %s", step, n.id, d)
				}
			}
		}
	}
}
