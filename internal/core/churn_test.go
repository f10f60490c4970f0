package core

// Churn tests: the paper's answer to overlay dynamics is soft state —
// every tuple carries a TTL and item holders periodically re-insert
// (§3.3). Under continuous node failures and joins, refreshed metrics
// must keep counting accurately while unrefreshed state ages out.

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"dhsketch/internal/chord"
	"dhsketch/internal/dht"
	"dhsketch/internal/sim"
	"dhsketch/internal/sketch"
)

func TestCountingSurvivesChurnWithRefresh(t *testing.T) {
	const (
		n      = 60000
		ttl    = 100
		rounds = 8
	)
	d, ring, env := testDHS(t, 61, 256, Config{M: 32, Kind: sketch.KindSuperLogLog, TTL: ttl})
	metric := MetricID("churn")

	ids := make([]uint64, n)
	for i := range ids {
		ids[i] = ItemID(fmt.Sprintf("churn-%d", i))
	}
	refresh := func() {
		for _, id := range ids {
			if _, err := d.Insert(metric, id); err != nil {
				t.Fatal(err)
			}
		}
	}
	refresh()

	rng := env.Derive("churn-driver")
	for round := 0; round < rounds; round++ {
		// 5% of nodes crash, an equal number of fresh nodes join.
		ring.FailRandom(12)
		for j := 0; j < 12; j++ {
			ring.Join(fmt.Sprintf("churn-joiner-%d-%d", round, j))
		}
		// Half a TTL passes; holders refresh their items.
		env.Clock.Advance(ttl / 2)
		refresh()
		_ = rng
		est, err := d.Count(metric)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if e := math.Abs(est.Value-n) / n; e > 0.45 {
			t.Errorf("round %d: error %.3f under churn", round, e)
		}
	}
	if ring.Size() != 256 {
		t.Errorf("ring size drifted to %d", ring.Size())
	}
}

func TestUnrefreshedStateDiesUnderChurn(t *testing.T) {
	// Without refresh, failures plus TTL expiry erase the metric: the
	// estimate must collapse toward the empty-sketch floor rather than
	// report stale data forever.
	const n = 20000
	const ttl = 50
	d, ring, env := testDHS(t, 67, 128, Config{M: 16, Kind: sketch.KindSuperLogLog, TTL: ttl})
	metric := MetricID("stale")
	insertItems(t, d, metric, n, "stale")

	ring.FailRandom(32)
	env.Clock.Advance(ttl + 1)

	est, err := d.Count(metric)
	if err != nil {
		t.Fatal(err)
	}
	if est.Value > float64(n)/10 {
		t.Errorf("stale estimate %v did not decay (n was %d)", est.Value, n)
	}
	if got := d.TotalTuples(); got != 0 {
		t.Errorf("%d tuples survived TTL expiry", got)
	}
}

func TestJoinersServeNewInsertions(t *testing.T) {
	// Nodes joining after a wave of insertions must participate in
	// storing subsequent rounds: their store fills up as refreshes land
	// on them.
	d, ring, _ := testDHS(t, 69, 64, Config{M: 16, K: 20, Kind: sketch.KindSuperLogLog})
	metric := MetricID("joiners")
	insertItems(t, d, metric, 20000, "pre")

	var joiners []*chord.Node
	for j := 0; j < 16; j++ {
		n := ring.Join(fmt.Sprintf("late-%d", j))
		joiners = append(joiners, n.(*chord.Node))
	}
	insertItems(t, d, metric, 20000, "post")

	withState := 0
	for _, j := range joiners {
		if s, ok := j.App().(*Store); ok && s.Len(0) > 0 {
			withState++
		}
	}
	if withState == 0 {
		t.Error("no joiner ever received DHS state")
	}
	// Counting still accurate over the mixed old/new placement.
	est, err := d.Count(metric)
	if err != nil {
		t.Fatal(err)
	}
	if e := math.Abs(est.Value-40000) / 40000; e > 0.6 {
		t.Errorf("error %.3f after joins", e)
	}
}

// TestRepairKeepsExpiry: a tuple stored with expiry E, which RepairFunc
// copies to a successor its holder's list gained after a crash, keeps E in
// the copy. So repair never extends a lifetime: the copy lives through E as
// the original does, and is gone with it one tick later.
func TestRepairKeepsExpiry(t *testing.T) {
	const ttl = 1000
	env := sim.NewEnv(31)
	ring := chord.NewStabilizing(env, 16, chord.ProtocolConfig{SuccListLen: 2})
	d, err := New(Config{Overlay: ring, Env: env, M: 32, Kind: sketch.KindSuperLogLog, TTL: ttl})
	if err != nil {
		t.Fatal(err)
	}
	repair := d.RepairFunc()
	gained := map[dht.Node][]dht.Node{}
	ring.SetRepair(func(n dht.Node, added []dht.Node) {
		gained[n] = append(gained[n], added...)
		repair(n, added)
	})
	env.Clock.Advance(10)
	if _, err := d.Insert(MetricID("repair/expiry"), ItemID("x")); err != nil {
		t.Fatal(err)
	}
	expiry := env.Clock.Now() + ttl
	var holder dht.Node
	for _, n := range ring.Nodes() {
		if st := storeIfPresent(n); st != nil && st.Len(env.Clock.Now()) > 0 {
			holder = n
		}
	}
	if holder == nil {
		t.Fatal("no node holds the inserted tuple")
	}
	want := storeIfPresent(holder).Entries(env.Clock.Now())
	if len(want) != 1 || want[0].Expiry != expiry {
		t.Fatalf("holder stores %+v, want one tuple expiring at %d", want, expiry)
	}

	succ, err := ring.Successor(holder)
	if err != nil {
		t.Fatal(err)
	}
	ring.Crash(succ)
	for i := 0; i < 64 && len(gained[holder]) == 0; i++ {
		env.Clock.Advance(8)
		ring.Step()
	}
	if len(gained[holder]) == 0 {
		t.Fatal("the holder's list gained no successor after its successor crashed")
	}
	if env.Clock.Now() >= expiry {
		t.Fatalf("repair ran at tick %d, not before the expiry %d", env.Clock.Now(), expiry)
	}
	for _, g := range gained[holder] {
		st := storeIfPresent(g)
		if st == nil {
			t.Fatalf("gained successor %016x got no copy", g.ID())
		}
		if got := st.Entries(expiry); !reflect.DeepEqual(got, want) {
			t.Errorf("gained successor %016x holds %+v at tick %d, want the holder's %+v", g.ID(), got, expiry, want)
		}
		if got := st.Entries(expiry + 1); len(got) != 0 {
			t.Errorf("gained successor %016x still holds %+v past the expiry", g.ID(), got)
		}
	}
	if got := storeIfPresent(holder).Entries(expiry + 1); len(got) != 0 {
		t.Errorf("holder still holds %+v past the expiry", got)
	}
}
