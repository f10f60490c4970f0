package faultdht

import (
	"errors"
	"math"
	"testing"

	"dhsketch/internal/chord"
	"dhsketch/internal/dht"
	"dhsketch/internal/sim"
)

func newFaulty(t *testing.T, seed uint64, n int, cfg Config) (*Overlay, *chord.Ring, *sim.Env) {
	t.Helper()
	env := sim.NewEnv(seed)
	ring := chord.New(env, n)
	return New(ring, env, cfg), ring, env
}

func TestZeroConfigIsTransparent(t *testing.T) {
	o, ring, _ := newFaulty(t, 1, 64, Config{})
	if o.Config().Active() {
		t.Error("zero config reports active faults")
	}
	for i := 0; i < 200; i++ {
		src := o.RandomNode()
		key := uint64(i) * 0x9e3779b97f4a7c15
		rt, err := o.RouteFrom(src, key)
		if err != nil {
			t.Fatalf("clean lookup failed: %v", err)
		}
		n := rt.Node
		want, _ := ring.Owner(key)
		if n != want || rt.Hops < 0 || rt.Stale != 0 {
			t.Fatalf("lookup resolved %+v, want %v", rt, want)
		}
		if _, err := o.Successor(n); err != nil {
			t.Fatalf("clean successor failed: %v", err)
		}
		if _, err := o.Predecessor(n); err != nil {
			t.Fatalf("clean predecessor failed: %v", err)
		}
	}
	st := o.Stats()
	if st.Failed() != 0 {
		t.Errorf("clean network injected faults: %+v", st)
	}
}

func TestDropRateApproximatesConfig(t *testing.T) {
	const p = 0.2
	o, _, _ := newFaulty(t, 2, 64, Config{DropProb: p})
	lost := 0
	const trials = 5000
	for i := 0; i < trials; i++ {
		_, err := o.RouteFrom(o.RandomNode(), uint64(i)*0x9e3779b97f4a7c15)
		if errors.Is(err, dht.ErrLost) {
			lost++
		} else if err != nil {
			t.Fatalf("unexpected error class: %v", err)
		}
	}
	got := float64(lost) / trials
	if math.Abs(got-p) > 0.03 {
		t.Errorf("observed drop rate %.3f, configured %.3f", got, p)
	}
	if o.Stats().Lost != int64(lost) {
		t.Errorf("stats.Lost = %d, observed %d", o.Stats().Lost, lost)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() (Stats, []error) {
		o, _, _ := newFaulty(t, 7, 32, Config{DropProb: 0.3, TransientFrac: 0.3, SlowFrac: 0.3, SlowTimeoutProb: 0.5})
		var errs []error
		for i := 0; i < 500; i++ {
			_, err := o.RouteFrom(o.RandomNode(), uint64(i)*12345)
			errs = append(errs, err)
		}
		return o.Stats(), errs
	}
	s1, e1 := run()
	s2, e2 := run()
	if s1 != s2 {
		t.Errorf("stats diverged across identical runs: %+v vs %+v", s1, s2)
	}
	for i := range e1 {
		if !errors.Is(e2[i], e1[i]) && (e1[i] != nil || e2[i] != nil) {
			t.Fatalf("error sequence diverged at %d: %v vs %v", i, e1[i], e2[i])
		}
	}
}

func TestTransientDownWindowsFollowClock(t *testing.T) {
	cfg := Config{TransientFrac: 0.5, DownPeriod: 100, DownFor: 10}
	o, ring, env := newFaulty(t, 11, 64, cfg)

	// Some node must be flaky at 50%.
	var flakyNode dht.Node
	for _, n := range ring.Nodes() {
		if o.flaky(n.ID()) {
			flakyNode = n
			break
		}
	}
	if flakyNode == nil {
		t.Fatal("no flaky node at TransientFrac=0.5")
	}

	// Over one full period the node must be down for exactly DownFor ticks,
	// in one contiguous window (possibly wrapping the period boundary).
	downTicks := 0
	transitions := 0
	prev := o.Down(flakyNode)
	for tick := int64(0); tick < cfg.DownPeriod; tick++ {
		cur := o.Down(flakyNode)
		if cur {
			downTicks++
		}
		if cur != prev {
			transitions++
		}
		prev = cur
		env.Clock.Advance(1)
	}
	if int64(downTicks) != cfg.DownFor {
		t.Errorf("down for %d ticks per period, want %d", downTicks, cfg.DownFor)
	}
	if transitions > 2 {
		t.Errorf("down-window fragmented: %d transitions in one period", transitions)
	}

	// A node outside the flaky population never goes down.
	for _, n := range ring.Nodes() {
		if !o.flaky(n.ID()) {
			for tick := 0; tick < 200; tick++ {
				if o.Down(n) {
					t.Fatal("non-flaky node reported down")
				}
				env.Clock.Advance(1)
			}
			break
		}
	}
}

func TestDownOriginRefusesLookup(t *testing.T) {
	cfg := Config{TransientFrac: 1, DownPeriod: 10, DownFor: 10} // everyone always down
	o, ring, _ := newFaulty(t, 13, 16, cfg)
	src := ring.Nodes()[0]
	if _, err := o.RouteFrom(src, 42); !errors.Is(err, dht.ErrNodeDown) {
		t.Errorf("lookup from down origin: err = %v, want ErrNodeDown", err)
	}
}

func TestSlowNodeTimeouts(t *testing.T) {
	cfg := Config{SlowFrac: 1, SlowTimeoutProb: 1} // every exchange times out
	o, _, _ := newFaulty(t, 17, 16, cfg)
	if _, err := o.RouteFrom(o.RandomNode(), 42); !errors.Is(err, dht.ErrTimeout) {
		t.Errorf("err = %v, want ErrTimeout", err)
	}
	if o.Stats().Timeouts == 0 {
		t.Error("no timeout recorded")
	}
}

func TestFaultFractionsAreNodeDeterministic(t *testing.T) {
	// A node's flaky/slow classification must not depend on call order.
	o, ring, _ := newFaulty(t, 19, 128, Config{TransientFrac: 0.3, SlowFrac: 0.3})
	nodes := ring.Nodes()
	first := make([]bool, len(nodes))
	for i, n := range nodes {
		first[i] = o.flaky(n.ID())
	}
	for i := len(nodes) - 1; i >= 0; i-- {
		if o.flaky(nodes[i].ID()) != first[i] {
			t.Fatal("flaky classification unstable")
		}
	}
	frac := 0
	for _, f := range first {
		if f {
			frac++
		}
	}
	if frac == 0 || frac == len(nodes) {
		t.Errorf("flaky population %d/%d implausible for 30%%", frac, len(nodes))
	}
}
