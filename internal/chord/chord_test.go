package chord

import (
	"fmt"
	"math"
	"testing"

	"dhsketch/internal/dht"
	"dhsketch/internal/sim"
)

func newRing(t testing.TB, n int) *Ring {
	t.Helper()
	return New(sim.NewEnv(1), n)
}

func TestRingConstruction(t *testing.T) {
	r := newRing(t, 128)
	if r.Size() != 128 {
		t.Fatalf("Size = %d", r.Size())
	}
	nodes := r.Nodes()
	for i := 1; i < len(nodes); i++ {
		if nodes[i-1].ID() >= nodes[i].ID() {
			t.Fatal("nodes not strictly sorted by ID")
		}
	}
}

func TestOwnerConsistentHashing(t *testing.T) {
	r := newRing(t, 64)
	nodes := r.Nodes()
	// The owner of a key is the first node with ID >= key, wrapping.
	for i, n := range nodes {
		own, err := r.Owner(n.ID())
		if err != nil || own.ID() != n.ID() {
			t.Fatalf("node %d does not own its own ID", i)
		}
		own, _ = r.Owner(n.ID() - 1)
		if own.ID() != n.ID() {
			t.Fatalf("key just below node %d owned by %x, want %x", i, own.ID(), n.ID())
		}
	}
	// A key beyond the highest node wraps to the lowest.
	highest := nodes[len(nodes)-1]
	lowest := nodes[0]
	own, _ := r.Owner(highest.ID() + 1)
	if own.ID() != lowest.ID() {
		t.Error("wrap-around ownership broken")
	}
}

func TestLookupFindsOwner(t *testing.T) {
	r := newRing(t, 256)
	rng := r.Env().Derive("test")
	for i := 0; i < 2000; i++ {
		key := rng.Uint64()
		want, _ := r.Owner(key)
		got, hops, err := r.Lookup(key)
		if err != nil {
			t.Fatalf("Lookup: %v", err)
		}
		if got.ID() != want.ID() {
			t.Fatalf("Lookup(%x) = %x, want %x", key, got.ID(), want.ID())
		}
		if hops < 0 || hops > 64 {
			t.Fatalf("unreasonable hop count %d", hops)
		}
	}
}

func TestLookupFromEveryNodeAgrees(t *testing.T) {
	r := newRing(t, 100)
	key := uint64(0xDEADBEEFCAFEBABE)
	want, _ := r.Owner(key)
	for _, src := range r.Nodes() {
		rt, err := r.RouteFrom(src, key)
		if err != nil {
			t.Fatalf("RouteFrom: %v", err)
		}
		if rt.Node.ID() != want.ID() {
			t.Fatalf("lookup from %x found %x, want %x", src.ID(), rt.Node.ID(), want.ID())
		}
	}
}

func TestLookupHopsLogarithmic(t *testing.T) {
	// Average hop count must grow like O(log N): for N=1024 Chord's
	// greedy routing takes about (1/2)·log2 N ≈ 5 hops on average.
	for _, n := range []int{64, 1024} {
		r := newRing(t, n)
		rng := r.Env().Derive("hops")
		var total int
		const trials = 3000
		for i := 0; i < trials; i++ {
			_, hops, err := r.Lookup(rng.Uint64())
			if err != nil {
				t.Fatal(err)
			}
			total += hops
		}
		avg := float64(total) / trials
		logN := math.Log2(float64(n))
		if avg > logN || avg < 0.25*logN {
			t.Errorf("N=%d: average hops %.2f outside [%.2f, %.2f]", n, avg, 0.25*logN, logN)
		}
	}
}

func TestLookupZeroHopsWhenOwnerIsSource(t *testing.T) {
	r := newRing(t, 32)
	src := r.Nodes()[7]
	rt, err := r.RouteFrom(src, src.ID())
	if err != nil || rt.Node.ID() != src.ID() || rt.Hops != 0 {
		t.Errorf("self-lookup: route %+v err %v", rt, err)
	}
}

func TestSuccessorPredecessorInverse(t *testing.T) {
	r := newRing(t, 50)
	for _, n := range r.Nodes() {
		s, err := r.Successor(n)
		if err != nil {
			t.Fatal(err)
		}
		p, err := r.Predecessor(s)
		if err != nil {
			t.Fatal(err)
		}
		if p.ID() != n.ID() {
			t.Fatalf("Predecessor(Successor(%x)) = %x", n.ID(), p.ID())
		}
	}
}

func TestSuccessorCyclesThroughRing(t *testing.T) {
	r := newRing(t, 40)
	start := r.Nodes()[0]
	cur := start
	seen := map[uint64]bool{}
	for i := 0; i < 40; i++ {
		if seen[cur.ID()] {
			t.Fatal("successor cycle shorter than ring")
		}
		seen[cur.ID()] = true
		next, err := r.Successor(cur)
		if err != nil {
			t.Fatal(err)
		}
		cur = next
	}
	if cur.ID() != start.ID() {
		t.Error("walking N successors did not return to start")
	}
}

func TestSingleNodeRing(t *testing.T) {
	r := newRing(t, 1)
	n := r.Nodes()[0]
	got, hops, err := r.Lookup(12345)
	if err != nil || got.ID() != n.ID() || hops != 0 {
		t.Errorf("single-node lookup: %v %d %v", got, hops, err)
	}
	s, _ := r.Successor(n)
	p, _ := r.Predecessor(n)
	if s.ID() != n.ID() || p.ID() != n.ID() {
		t.Error("single node is not its own successor/predecessor")
	}
}

func TestJoin(t *testing.T) {
	r := newRing(t, 10)
	before := r.Size()
	n := r.Join("late-joiner:9999")
	if r.Size() != before+1 {
		t.Fatal("Join did not grow the ring")
	}
	// The joiner owns its own ID now.
	own, _ := r.Owner(n.ID())
	if own.ID() != n.ID() {
		t.Error("joined node does not own its ID")
	}
	// And lookups route to it.
	got, _, err := r.Lookup(n.ID())
	if err != nil || got.ID() != n.ID() {
		t.Error("lookup does not reach joined node")
	}
}

func TestFailRemovesFromRouting(t *testing.T) {
	r := newRing(t, 64)
	victim := r.Nodes()[10]
	succ, _ := r.Successor(victim)
	r.Fail(victim)
	if victim.Alive() {
		t.Fatal("victim still alive")
	}
	if r.Size() != 63 {
		t.Fatalf("Size after failure = %d", r.Size())
	}
	// Keys the victim owned now belong to its successor.
	own, _ := r.Owner(victim.ID())
	if own.ID() != succ.ID() {
		t.Errorf("victim's keys now owned by %x, want successor %x", own.ID(), succ.ID())
	}
	// Lookups from a failed node error out.
	if _, err := r.RouteFrom(victim, 1); err != dht.ErrNodeDown {
		t.Errorf("RouteFrom failed node: err = %v", err)
	}
	// Lookups still converge from everywhere.
	for _, src := range r.Nodes() {
		if _, err := r.RouteFrom(src, victim.ID()); err != nil {
			t.Fatalf("post-failure lookup: %v", err)
		}
	}
}

func TestReviveRestoresNodeWithoutState(t *testing.T) {
	r := newRing(t, 16)
	n := r.Nodes()[3]
	n.SetApp("precious soft state")
	r.Fail(n)
	r.Revive(n)
	if !n.Alive() || r.Size() != 16 {
		t.Fatal("revive did not restore ring membership")
	}
	if n.App() != nil {
		t.Error("revive preserved soft state; a crash must lose it")
	}
}

func TestFailRandom(t *testing.T) {
	r := newRing(t, 100)
	failed := r.FailRandom(30)
	if len(failed) != 30 {
		t.Fatalf("FailRandom returned %d nodes", len(failed))
	}
	if r.Size() != 70 {
		t.Errorf("Size = %d, want 70", r.Size())
	}
	for _, n := range failed {
		if n.Alive() {
			t.Error("failed node still alive")
		}
	}
	// Requesting more failures than nodes left must not panic.
	r2 := newRing(t, 5)
	if got := r2.FailRandom(10); len(got) != 5 {
		t.Errorf("FailRandom(10) on 5 nodes returned %d", len(got))
	}
}

func TestRoutedCountersIncrement(t *testing.T) {
	r := newRing(t, 128)
	var before int64
	for _, n := range r.Nodes() {
		before += n.Counters().Snapshot().Routed
	}
	rng := r.Env().Derive("ctr")
	var hops int
	for i := 0; i < 100; i++ {
		_, h, err := r.Lookup(rng.Uint64())
		if err != nil {
			t.Fatal(err)
		}
		hops += h
	}
	var after int64
	for _, n := range r.Nodes() {
		after += n.Counters().Snapshot().Routed
	}
	if after-before != int64(hops) {
		t.Errorf("Routed counters advanced by %d, want %d", after-before, hops)
	}
}

func TestRandomNodeUniform(t *testing.T) {
	r := newRing(t, 16)
	counts := map[uint64]int{}
	for i := 0; i < 16000; i++ {
		counts[r.RandomNode().ID()]++
	}
	for id, c := range counts {
		if c < 700 || c > 1300 {
			t.Errorf("node %x drawn %d times, expected ~1000", id, c)
		}
	}
}

func TestLookupDeterministicAcrossRuns(t *testing.T) {
	mkTrace := func() []int {
		r := New(sim.NewEnv(99), 200)
		rng := r.Env().Derive("trace")
		out := make([]int, 50)
		for i := range out {
			_, hops, err := r.Lookup(rng.Uint64())
			if err != nil {
				t.Fatal(err)
			}
			out[i] = hops
		}
		return out
	}
	a, b := mkTrace(), mkTrace()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different routing traces")
		}
	}
}

func TestMassiveFailureStillRoutes(t *testing.T) {
	r := newRing(t, 256)
	r.FailRandom(200)
	rng := r.Env().Derive("massive")
	for i := 0; i < 500; i++ {
		key := rng.Uint64()
		got, _, err := r.Lookup(key)
		if err != nil {
			t.Fatalf("lookup after massive failure: %v", err)
		}
		want, _ := r.Owner(key)
		if got.ID() != want.ID() {
			t.Fatal("lookup found wrong owner after failures")
		}
	}
}

func TestFingerCacheConsistentAcrossMembership(t *testing.T) {
	r := newRing(t, 64)
	checkConverged(t, r, "fresh")

	r.Join("newcomer:1")
	checkConverged(t, r, "join")

	victim := r.m.live[20]
	r.Fail(victim)
	checkConverged(t, r, "fail")

	r.Revive(victim)
	checkConverged(t, r, "revive")

	r.FailRandom(10)
	checkConverged(t, r, "fail random")

	r.Leave(r.Nodes()[0])
	checkConverged(t, r, "leave")
}

// BenchmarkLookup times the routing rule, Machine.candidate, under both
// of its drivers on the same ID population: Ring's loop over converged
// state, and a converged StabilizingRing's, which reaches each hop
// through the in-memory transport under the ring's read lock. Each
// lookup is a RouteFrom from a random origin.
func BenchmarkLookup(b *testing.B) {
	rings := []struct {
		name string
		new  func(env *sim.Env, n int) dht.Overlay
	}{
		{"", func(env *sim.Env, n int) dht.Overlay { return New(env, n) }},
		{"/stabilizing", func(env *sim.Env, n int) dht.Overlay {
			return NewStabilizing(env, n, ProtocolConfig{SuccListLen: 1})
		}},
	}
	for _, ring := range rings {
		for _, n := range []int{1024, 10240} {
			b.Run(fmt.Sprintf("N%d%s", n, ring.name), func(b *testing.B) {
				env := sim.NewEnv(1)
				r := ring.new(env, n)
				rng := env.Derive("bench")
				keys := make([]uint64, 4096)
				for i := range keys {
					keys[i] = rng.Uint64()
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					r.RouteFrom(r.RandomNode(), keys[i&4095])
				}
			})
		}
	}
}

// BenchmarkNew times building a converged Ring. Its B/op is the ring's
// footprint: what every node's Machine, fingers included, allocates.
func BenchmarkNew(b *testing.B) {
	for _, n := range []int{1024, 10240} {
		b.Run(fmt.Sprintf("N%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				New(sim.NewEnv(1), n)
			}
		})
	}
}
