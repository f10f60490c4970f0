package chord

import (
	"fmt"
	"slices"
	"testing"
	"unsafe"

	"dhsketch/internal/dht"
	"dhsketch/internal/sim"
)

// settle advances the clock and runs protocol rounds until convergence,
// failing the test if the ring never settles.
func settle(t *testing.T, r *StabilizingRing, env *sim.Env) {
	t.Helper()
	for i := 0; i < 512; i++ {
		if r.Converged() {
			return
		}
		env.Clock.Advance(8)
		r.Step()
	}
	t.Fatal("stabilization did not converge")
}

// checkInvariants asserts the converged protocol state agrees with the
// membership: every successor list holds the r true clockwise
// successors in order, every predecessor pointer the true predecessor,
// and every finger table matches the oracle.
func checkInvariants(t *testing.T, r *StabilizingRing, step string) {
	t.Helper()
	r.mu.RLock()
	defer r.mu.RUnlock()
	N := len(r.live)
	for i, n := range r.live {
		pred, succ, fingers := n.proto.State()
		wantLen := r.cfg.SuccListLen
		if wantLen > N-1 {
			wantLen = N - 1
		}
		if len(succ) != wantLen {
			t.Fatalf("%s: node %016x successor list has %d entries, want %d",
				step, n.id, len(succ), wantLen)
		}
		for j, s := range succ {
			if want := r.live[(i+j+1)%N]; s != want.proto.Self() {
				t.Fatalf("%s: node %016x succ[%d] = %016x, want %016x",
					step, n.id, j, s.ID, want.id)
			}
		}
		if N > 1 {
			if want := r.live[(i-1+N)%N]; pred != want.proto.Self() {
				t.Fatalf("%s: node %016x pred = %v, want %016x", step, n.id, pred, want.id)
			}
		}
		for b := range fingers {
			if want := r.live[r.ownerIndex(n.id+uint64(1)<<uint(b))]; fingers[b] != want.proto.Self() {
				t.Fatalf("%s: node %016x finger[%d] = %016x, want %016x",
					step, n.id, b, fingers[b].ID, want.id)
			}
		}
	}
}

// TestStabilizingRingStartsConverged asserts the constructor's state is
// the protocol's fixed point: invariants hold and Step changes nothing.
func TestStabilizingRingStartsConverged(t *testing.T) {
	env := sim.NewEnv(21)
	r := NewStabilizing(env, 64, ProtocolConfig{})
	if !r.Converged() {
		t.Fatal("fresh ring not converged")
	}
	checkInvariants(t, r, "fresh")
	env.Clock.Advance(200)
	r.Step()
	if got := r.Stats(); got.SuccRepairs != 0 || got.FingerFixes != 0 || got.PredRepairs != 0 {
		t.Fatalf("protocol rounds repaired a converged ring: %+v", got)
	}
}

// TestStabilizationRepairsCrashes crashes a batch of nodes and asserts
// the protocol repairs every successor list, predecessor pointer, and
// finger table back to the invariants — purely through timer-driven
// rounds, with no atomic rebuild.
func TestStabilizationRepairsCrashes(t *testing.T) {
	env := sim.NewEnv(22)
	r := NewStabilizing(env, 96, ProtocolConfig{})
	rng := env.Derive("crash-test")

	for round := 0; round < 5; round++ {
		for k := 0; k < 5; k++ {
			nodes := r.Nodes()
			r.Crash(nodes[rng.IntN(len(nodes))])
		}
		if r.Converged() {
			t.Fatal("ring claims convergence right after crashes")
		}
		settle(t, r, env)
		checkInvariants(t, r, fmt.Sprintf("round %d", round))
	}
	st := r.Stats()
	if st.Crashes != 25 {
		t.Fatalf("Crashes = %d, want 25", st.Crashes)
	}
	if st.SuccRepairs == 0 || st.FingerFixes == 0 || st.Timeouts == 0 {
		t.Fatalf("repair left no protocol trace: %+v", st)
	}
	if st.Messages == 0 || st.Bytes == 0 {
		t.Fatalf("protocol repaired for free: %+v", st)
	}
}

// TestStabilizationIntegratesJoins joins new nodes and asserts the
// protocol propagates them into every table.
func TestStabilizationIntegratesJoins(t *testing.T) {
	env := sim.NewEnv(23)
	r := NewStabilizing(env, 48, ProtocolConfig{})
	for i := 0; i < 8; i++ {
		n := r.Join(fmt.Sprintf("joiner-%d:4000", i))
		if !n.Alive() {
			t.Fatal("fresh joiner not alive")
		}
	}
	if r.Size() != 56 {
		t.Fatalf("Size = %d after 8 joins on 48", r.Size())
	}
	settle(t, r, env)
	checkInvariants(t, r, "after joins")
}

// TestMixedChurnConverges interleaves crashes and joins — the churn
// shape e15 drives at scale — and asserts repeated convergence.
func TestMixedChurnConverges(t *testing.T) {
	env := sim.NewEnv(24)
	r := NewStabilizing(env, 64, ProtocolConfig{SuccListLen: 3})
	rng := env.Derive("mixed-churn")
	for round := 0; round < 6; round++ {
		for k := 0; k < 3; k++ {
			nodes := r.Nodes()
			r.Crash(nodes[rng.IntN(len(nodes))])
			r.Join(fmt.Sprintf("churn-%d-%d:4000", round, k))
		}
		// Routing must keep working mid-repair (possibly with stale
		// hops), not just after settling.
		for probe := 0; probe < 16; probe++ {
			src := r.RandomNode()
			rt, err := r.RouteFrom(src, rng.Uint64())
			if err != nil {
				t.Fatalf("round %d: mid-churn route failed: %v", round, err)
			}
			if rt.Node == nil || !rt.Node.Alive() {
				t.Fatalf("round %d: route reached dead node", round)
			}
		}
		settle(t, r, env)
		checkInvariants(t, r, fmt.Sprintf("round %d", round))
	}
}

// TestRouteFromSurvivesDeadSuccessorRun crashes a run of consecutive
// nodes — the worst case for successor-based fallback — and asserts
// routing still reaches the correct owner before any repair round runs,
// paying stale hops for each corpse it climbs over.
func TestRouteFromSurvivesDeadSuccessorRun(t *testing.T) {
	env := sim.NewEnv(25)
	cfg := ProtocolConfig{SuccListLen: 4}
	r := NewStabilizing(env, 64, cfg)

	// Crash three consecutive nodes (fewer than SuccListLen, so every
	// list still holds at least one live entry).
	nodes := r.Nodes()
	for i := 20; i < 23; i++ {
		r.Crash(nodes[i])
	}

	staleSeen := 0
	for i := 0; i < 64; i++ {
		src := r.RandomNode()
		key := uint64(i)*0x9e3779b97f4a7c15 + 1
		rt, err := r.RouteFrom(src, key)
		if err != nil {
			t.Fatalf("route %d failed before repair: %v", i, err)
		}
		want, _ := r.Owner(key)
		if rt.Node.ID() != want.ID() {
			t.Fatalf("route %d reached %016x, owner is %016x", i, rt.Node.ID(), want.ID())
		}
		staleSeen += rt.Stale
	}
	if staleSeen == 0 {
		t.Fatal("64 routes over 3 fresh corpses reported zero stale hops")
	}

	// After settling, the stale hops disappear.
	settle(t, r, env)
	for i := 0; i < 64; i++ {
		src := r.RandomNode()
		rt, err := r.RouteFrom(src, uint64(i)*0x9e3779b97f4a7c15+1)
		if err != nil {
			t.Fatalf("post-repair route failed: %v", err)
		}
		if rt.Stale != 0 {
			t.Fatalf("post-repair route still paid %d stale hops", rt.Stale)
		}
	}
}

// TestSuccessorFallbackSurface asserts the Successor/SuccessorList pair
// behaves as the counting walk's fallback protocol expects: a dead
// believed successor surfaces as dht.ErrNodeDown, and the successor
// list then offers a live continuation.
func TestSuccessorFallbackSurface(t *testing.T) {
	env := sim.NewEnv(26)
	r := NewStabilizing(env, 32, ProtocolConfig{})
	nodes := r.Nodes()
	prev, victim := nodes[4], nodes[5]
	r.Crash(victim)

	if _, err := r.Successor(prev); err != dht.ErrNodeDown {
		t.Fatalf("Successor over fresh corpse: err = %v, want ErrNodeDown", err)
	}
	var live dht.Node
	for _, s := range r.SuccessorList(prev) {
		if s.Alive() {
			live = s
			break
		}
	}
	if live == nil {
		t.Fatal("successor list offers no live fallback")
	}
	if live.ID() != nodes[6].ID() {
		t.Fatalf("fallback = %016x, want next live node %016x", live.ID(), nodes[6].ID())
	}

	settle(t, r, env)
	s, err := r.Successor(prev)
	if err != nil || s.ID() != nodes[6].ID() {
		t.Fatalf("post-repair Successor = %v, %v, want %016x", s, err, nodes[6].ID())
	}
}

// TestRepairCallbackFiresOnSuccessorGrowth asserts the replica-repair
// hook fires exactly when stabilization hands a node new successors,
// with the receiving nodes as arguments.
func TestRepairCallbackFiresOnSuccessorGrowth(t *testing.T) {
	env := sim.NewEnv(27)
	r := NewStabilizing(env, 48, ProtocolConfig{SuccListLen: 3})

	type call struct {
		from uint64
		to   []uint64
	}
	var calls []call
	r.SetRepair(func(n dht.Node, added []dht.Node) {
		c := call{from: n.ID()}
		for _, a := range added {
			if !a.Alive() {
				t.Errorf("repair target %016x is dead", a.ID())
			}
			c.to = append(c.to, a.ID())
		}
		calls = append(calls, c)
	})

	// Converged ring: no repair calls, ever.
	env.Clock.Advance(100)
	r.Step()
	if len(calls) != 0 {
		t.Fatalf("converged ring fired %d repair calls", len(calls))
	}

	nodes := r.Nodes()
	victim := nodes[9]
	r.Crash(victim)
	settle(t, r, env)

	// The crash removed the victim from its predecessors' lists; each
	// affected node gained exactly one new successor and must have
	// re-replicated to it.
	if len(calls) == 0 {
		t.Fatal("crash repaired successor lists without firing the repair callback")
	}
	if st := r.Stats(); st.RepairCalls != int64(len(calls)) {
		t.Fatalf("RepairCalls = %d, callback fired %d times", st.RepairCalls, len(calls))
	}
	for _, c := range calls {
		if c.from == victim.ID() {
			t.Fatal("dead node acted as repair source")
		}
		for _, to := range c.to {
			if to == victim.ID() {
				t.Fatal("dead node chosen as repair target")
			}
		}
	}
}

// TestStabilizingDeterminism asserts two equally seeded rings driven
// through the same churn schedule stay identical, protocol counters
// included — the property every experiment's worker-count invariance
// rests on.
func TestStabilizingDeterminism(t *testing.T) {
	run := func() (ProtoStats, []uint64) {
		env := sim.NewEnv(28)
		r := NewStabilizing(env, 48, ProtocolConfig{})
		rng := env.Derive("det-test")
		for round := 0; round < 4; round++ {
			nodes := r.Nodes()
			r.Crash(nodes[rng.IntN(len(nodes))])
			r.Join(fmt.Sprintf("det-%d:4000", round))
			env.Clock.Advance(24)
			r.Step()
		}
		for i := 0; i < 256 && !r.Converged(); i++ {
			env.Clock.Advance(8)
			r.Step()
		}
		var ids []uint64
		for _, n := range r.Nodes() {
			ids = append(ids, n.ID())
		}
		return r.Stats(), ids
	}
	statsA, idsA := run()
	statsB, idsB := run()
	if statsA != statsB {
		t.Fatalf("protocol counters diverged:\n%+v\n%+v", statsA, statsB)
	}
	if fmt.Sprint(idsA) != fmt.Sprint(idsB) {
		t.Fatal("memberships diverged across equally seeded runs")
	}
}

// TestDueAtMatchesStepSchedule pins the DueAt schedule both clock
// domains share: rounds fire at exact multiples of their periods, tick
// 0 fires everything, and a zero period (possible only through a
// hand-built, non-defaulted config) disables its round instead of
// dividing by zero.
func TestDueAtMatchesStepSchedule(t *testing.T) {
	cfg := ProtocolConfig{}.WithDefaults()
	if cfg.StabilizeEvery == 0 || cfg.FixFingersEvery == 0 || cfg.CheckPredEvery == 0 {
		t.Fatal("WithDefaults left a zero period")
	}
	for tick := int64(0); tick <= 4*cfg.CheckPredEvery; tick++ {
		due := cfg.DueAt(tick)
		if got, want := due.Has(RoundStabilize), tick%cfg.StabilizeEvery == 0; got != want {
			t.Fatalf("tick %d: stabilize due=%v want %v", tick, got, want)
		}
		if got, want := due.Has(RoundFixFingers), tick%cfg.FixFingersEvery == 0; got != want {
			t.Fatalf("tick %d: fix-fingers due=%v want %v", tick, got, want)
		}
		if got, want := due.Has(RoundCheckPred), tick%cfg.CheckPredEvery == 0; got != want {
			t.Fatalf("tick %d: check-pred due=%v want %v", tick, got, want)
		}
	}
	disabled := ProtocolConfig{StabilizeEvery: 3, FixFingersEvery: 5, CheckPredEvery: 7}
	disabled.StabilizeEvery = 0
	if due := disabled.DueAt(15); due.Has(RoundStabilize) {
		t.Fatal("zero period should disable its round, not fire it")
	} else if !due.Has(RoundFixFingers) {
		t.Fatal("tick 15 should fire fix-fingers with period 5")
	}
}

// TestStabilizeQuietKeepsList: a stabilize round over a neighbourhood that
// has not changed leaves the node's successor list as it was — the same
// array, not an equal copy — and allocates nothing; a round that finds a
// successor gone installs a list of its own.
func TestStabilizeQuietKeepsList(t *testing.T) {
	env := sim.NewEnv(5)
	r := NewStabilizing(env, 16, ProtocolConfig{})
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.live[3].Protocol()
	before := n.succ
	if changes, gained := n.Stabilize(&r.protoPeers); changes != 0 || gained != nil {
		t.Fatalf("a converged node's round made %d changes, gained %v", changes, gained)
	}
	if &n.succ[0] != &before[0] {
		t.Error("a quiet round replaced the successor list with an equal copy")
	}
	if a := testing.AllocsPerRun(20, func() { n.Stabilize(&r.protoPeers) }); a != 0 {
		t.Errorf("a quiet round allocated %.1f/op, want 0", a)
	}

	dead := r.live[4] // the node's successor
	dead.alive.Store(false)
	if changes, _ := n.Stabilize(&r.protoPeers); changes == 0 {
		t.Fatal("a round past a dead successor changed nothing")
	}
	if &n.succ[0] == &before[0] || hasID(n.succ, dead.id) {
		t.Errorf("the list %v still names the dead successor %016x, or is the old array", n.succ, dead.id)
	}
	if !slices.Equal(before, []Ref{r.live[4].proto.self, r.live[5].proto.self, r.live[6].proto.self, r.live[7].proto.self}) {
		t.Errorf("the round edited the old list in place: %v", before)
	}
}

// TestKnownMatchesAddress: Machine.Known hands back the very string of a
// ref the node holds — a successor, a finger, its predecessor or itself —
// and only at the address it holds it at: the same identifier at another
// address, a restarted node, is not known.
func TestKnownMatchesAddress(t *testing.T) {
	env := sim.NewEnv(5)
	r := NewStabilizing(env, 16, ProtocolConfig{})
	n := r.live[3].Protocol()
	pred, succ, fingers := n.State()
	for _, want := range []Ref{n.self, pred, succ[2], fingers[63]} {
		got, ok := n.Known(want.ID, []byte(want.Addr))
		if !ok || got != want || unsafe.StringData(got.Addr) != unsafe.StringData(want.Addr) {
			t.Errorf("Known(%016x, %q) = %v, %v; want the held ref itself", want.ID, want.Addr, got, ok)
		}
		if got, ok := n.Known(want.ID, []byte(want.Addr+"x")); ok {
			t.Errorf("Known(%016x) at another address = %v, want not known", want.ID, got)
		}
	}
	for _, m := range r.live {
		held := m.id == n.self.ID || m.id == pred.ID || hasID(succ, m.id) || hasID(fingers[:], m.id)
		if got, ok := n.Known(m.id, []byte(m.proto.self.Addr)); ok != held {
			t.Errorf("node %016x, held %v: Known = %v, %v", m.id, held, got, ok)
		}
	}
}
