package faultdht

import (
	"errors"
	"testing"

	"dhsketch/internal/dht"
)

// TestDownAtWindowBoundaries pins the exact edges of the transient
// down-window duty cycle: a node is unreachable for precisely downFor
// consecutive ticks per period — down at the window's first tick, down
// at its last, and reachable again at the very tick the window ends.
func TestDownAtWindowBoundaries(t *testing.T) {
	cases := []struct {
		name                   string
		now, phase, period, df int64
		down                   bool
	}{
		{"window start", 0, 0, 100, 10, true},
		{"inside window", 5, 0, 100, 10, true},
		{"last down tick", 9, 0, 100, 10, true},
		{"first up tick (window end)", 10, 0, 100, 10, false},
		{"mid up-phase", 55, 0, 100, 10, false},
		{"last up tick", 99, 0, 100, 10, false},
		{"next period start", 100, 0, 100, 10, true},
		{"next period last down tick", 109, 0, 100, 10, true},
		{"next period window end", 110, 0, 100, 10, false},

		// A phase offset shifts the window but not its length: with
		// phase 95 and period 100 the window covers ticks 5..14.
		{"phased: before window", 4, 95, 100, 10, false},
		{"phased: window start", 5, 95, 100, 10, true},
		{"phased: last down tick", 14, 95, 100, 10, true},
		{"phased: window end", 15, 95, 100, 10, false},

		// Degenerate duty cycles.
		{"one-tick window, down", 0, 0, 100, 1, true},
		{"one-tick window, up at 1", 1, 0, 100, 1, false},
		{"always-down (df == period)", 42, 0, 10, 10, true},
	}
	for _, tc := range cases {
		if got := DownAt(tc.now, tc.phase, tc.period, tc.df); got != tc.down {
			t.Errorf("%s: DownAt(%d, %d, %d, %d) = %v, want %v",
				tc.name, tc.now, tc.phase, tc.period, tc.df, got, tc.down)
		}
	}
}

// TestDownWindowExpiryMakesNodeReachable drives the virtual clock across
// a flaky node's window boundary and asserts the wrapper's verdict flips
// exactly at the window end: unreachable on the last down tick,
// reachable on the first tick after — the window "expires" precisely on
// schedule, neither a tick early nor a tick late.
func TestDownWindowExpiryMakesNodeReachable(t *testing.T) {
	o, _, env := newFaulty(t, 7, 64, Config{
		TransientFrac: 1, // every node flaky: any node exercises the cycle
		DownPeriod:    50,
		DownFor:       8,
	})
	n := o.RandomNode()
	phase := o.phase(n.ID())

	// Walk two full periods tick by tick and compare the wrapper's
	// verdict with the closed-form window at every tick.
	for tick := int64(0); tick < 100; tick++ {
		if now := env.Clock.Now(); now != tick {
			t.Fatalf("clock drifted: at %d, want %d", now, tick)
		}
		want := DownAt(tick, phase, 50, 8)
		if got := o.Down(n); got != want {
			t.Fatalf("tick %d (phase %d): Down = %v, want %v", tick, phase, got, want)
		}
		env.Clock.Advance(1)
	}

	// Land exactly on the first tick of a window, then on its end.
	start := (2*50 - phase + 50*4) % 50 // smallest t ≥ 0 with (t+phase)%50 == 0
	base := int64(100 + start)
	env.Clock.Advance(base - env.Clock.Now())
	if !o.Down(n) {
		t.Fatalf("tick %d: window start not down", base)
	}
	env.Clock.Advance(7) // last down tick: (t+phase)%50 == 7 < 8
	if !o.Down(n) {
		t.Fatalf("tick %d: last window tick not down", base+7)
	}
	env.Clock.Advance(1) // window end: (t+phase)%50 == 8
	if o.Down(n) {
		t.Fatalf("tick %d: node still down at window end", base+8)
	}
}

// TestCrashStopIsPermanent asserts the crash-stop fault mode is truly
// permanent: unlike a down-window, no amount of clock advancement makes
// a crashed node reachable again, and exchanges addressed to it keep
// failing with dht.ErrNodeDown across many duty-cycle periods.
func TestCrashStopIsPermanent(t *testing.T) {
	o, ring, env := newFaulty(t, 9, 64, Config{
		TransientFrac: 0.2,
		DownPeriod:    20,
		DownFor:       5,
	})
	victim := o.RandomNode()
	o.Crash(victim)

	if victim.Alive() {
		t.Fatal("the crashed node reports itself alive")
	}
	// The static ring forwards crash-stop to Fail: the victim left the
	// membership for good.
	for _, n := range ring.Nodes() {
		if n.ID() == victim.ID() {
			t.Fatal("crashed node still in the membership")
		}
	}
	// No resurrection, ever: sample well past several duty cycles. A
	// transient window would flip the verdict within one period.
	for i := 0; i < 10; i++ {
		if !o.Down(victim) {
			t.Fatalf("crashed node reachable at tick %d", env.Clock.Now())
		}
		src := o.RandomNode()
		if _, err := o.RouteFrom(victim, src.ID()); !errors.Is(err, dht.ErrNodeDown) {
			t.Fatalf("lookup from crashed node: err = %v, want ErrNodeDown", err)
		}
		env.Clock.Advance(33) // co-prime with the period: samples all phases
	}
	// Crashing twice is idempotent.
	before := o.Stats()
	o.Crash(victim)
	if after := o.Stats(); after != before {
		t.Errorf("second Crash changed stats: %+v -> %+v", before, after)
	}
}
