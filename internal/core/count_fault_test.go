package core

// Failure-model tests: counting and insertion must survive injected
// faults — lost messages, transient down-windows, slow-node timeouts —
// by spending probe budget and retrying, never by aborting, and must
// report what was lost through Estimate.Quality.

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"dhsketch/internal/chord"
	"dhsketch/internal/dht"
	"dhsketch/internal/faultdht"
	"dhsketch/internal/sim"
	"dhsketch/internal/sketch"
)

func TestInIntervalRangeWrapAround(t *testing.T) {
	cases := []struct {
		id, lo, size uint64
		want         bool
	}{
		// Top interval of a 64-bit space: [2^63, 2^64); lo+size wraps to 0.
		{1 << 63, 1 << 63, 1 << 63, true},
		{^uint64(0), 1 << 63, 1 << 63, true},
		{1<<63 - 1, 1 << 63, 1 << 63, false},
		{0, 1 << 63, 1 << 63, false},
		// Interval straddling the origin: [2^64-4, 2^64+4 mod 2^64).
		{^uint64(0) - 3, ^uint64(0) - 3, 8, true},
		{^uint64(0), ^uint64(0) - 3, 8, true},
		{0, ^uint64(0) - 3, 8, true},
		{3, ^uint64(0) - 3, 8, true},
		{4, ^uint64(0) - 3, 8, false},
		{^uint64(0) - 4, ^uint64(0) - 3, 8, false},
		// Ordinary interior interval.
		{100, 100, 8, true},
		{107, 100, 8, true},
		{108, 100, 8, false},
		{99, 100, 8, false},
	}
	for _, c := range cases {
		if got := inIntervalRange(c.id, c.lo, c.size); got != c.want {
			t.Errorf("inIntervalRange(%#x, %#x, %#x) = %v, want %v", c.id, c.lo, c.size, got, c.want)
		}
	}
}

// faultyDHS builds an n-node ring behind a fault-injection layer and a
// DHS over it.
func faultyDHS(t *testing.T, seed uint64, n int, fcfg faultdht.Config, mutate func(*Config)) (*DHS, *faultdht.Overlay, *sim.Env) {
	t.Helper()
	env := sim.NewEnv(seed)
	ring := chord.New(env, n)
	fo := faultdht.New(ring, env, fcfg)
	cfg := Config{Overlay: fo, Env: env, K: 16, M: 16, Kind: sketch.KindSuperLogLog}
	if mutate != nil {
		mutate(&cfg)
	}
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d, fo, env
}

// insertN inserts n distinct items, tolerating (and counting) exhausted-
// retry failures, and returns how many succeeded.
func insertN(t *testing.T, d *DHS, metric uint64, n int, label string) int {
	t.Helper()
	ok := 0
	for i := 0; i < n; i++ {
		if _, err := d.Insert(metric, ItemID(fmt.Sprintf("%s-%d", label, i))); err == nil {
			ok++
		}
	}
	return ok
}

func TestCountSurvivesFaultsAcceptance(t *testing.T) {
	// The PR's acceptance scenario: a 1024-node overlay with 10% message
	// loss and 10% of nodes cycling through transient down-windows must
	// return a non-error, quality-annotated estimate.
	const items = 30000
	d, _, _ := faultyDHS(t, 42, 1024,
		faultdht.Config{DropProb: 0.10, TransientFrac: 0.10},
		func(c *Config) { c.Replication = 3 })
	metric := MetricID("acceptance")
	stored := insertN(t, d, metric, items, "acc")
	if stored < items*95/100 {
		t.Fatalf("only %d/%d inserts survived the failure model with retries", stored, items)
	}
	est, err := d.Count(metric)
	if err != nil {
		t.Fatalf("Count errored under faults: %v", err)
	}
	q := est.Quality
	if q.ProbesFailed == 0 || !q.Degraded {
		t.Errorf("quality not annotated under 10%%/10%% faults: %+v", q)
	}
	if q.ProbesAttempted < q.ProbesFailed {
		t.Errorf("inconsistent quality accounting: %+v", q)
	}
	if e := math.Abs(est.Value-items) / items; e > 0.5 {
		t.Errorf("estimate %.0f off true %d by %.0f%%", est.Value, items, 100*e)
	}
}

func TestCountPathNoLongerAbortsOnDeadSteps(t *testing.T) {
	// Regression for the count-path abort bug: with every message
	// exchange failing half the time, lookups and successor steps fail
	// mid-walk constantly; the pass must still complete and keep the
	// vectors it resolved.
	d, fo, _ := faultyDHS(t, 5, 256, faultdht.Config{DropProb: 0.5}, nil)
	metric := MetricID("no-abort")
	insertN(t, d, metric, 20000, "na")
	for trial := 0; trial < 5; trial++ {
		est, err := d.Count(metric)
		if err != nil {
			t.Fatalf("trial %d: count aborted: %v", trial, err)
		}
		if est.Quality.ProbesFailed == 0 {
			t.Fatalf("trial %d: 50%% drop rate injected no failures", trial)
		}
		if est.Value <= 0 {
			t.Errorf("trial %d: degraded pass discarded all resolved vectors", trial)
		}
	}
	if fo.Stats().Lost == 0 {
		t.Error("fault layer reports no drops")
	}
}

func TestCountEdgeAwareSurvivesFaults(t *testing.T) {
	d, _, _ := faultyDHS(t, 9, 256, faultdht.Config{DropProb: 0.3, TransientFrac: 0.2},
		func(c *Config) { c.EdgeAware = true })
	metric := MetricID("edge-faults")
	insertN(t, d, metric, 20000, "ef")
	est, err := d.Count(metric)
	if err != nil {
		t.Fatalf("edge-aware count aborted: %v", err)
	}
	if !est.Quality.Degraded {
		t.Error("30% drops left no degradation mark")
	}
}

func TestCountAdaptiveSurvivesFaults(t *testing.T) {
	d, _, _ := faultyDHS(t, 15, 256, faultdht.Config{DropProb: 0.2}, nil)
	metric := MetricID("adaptive-faults")
	insertN(t, d, metric, 10000, "af")
	est, err := d.CountAdaptive(metric, 0.99)
	if err != nil {
		t.Fatalf("adaptive count aborted: %v", err)
	}
	if est.Quality.ProbesFailed == 0 || !est.Quality.Degraded {
		t.Errorf("adaptive quality not annotated: %+v", est.Quality)
	}
}

func TestQualityCleanOnPerfectNetwork(t *testing.T) {
	d, _, _ := faultyDHS(t, 21, 64, faultdht.Config{}, nil)
	metric := MetricID("clean")
	insertN(t, d, metric, 5000, "cl")
	est, err := d.Count(metric)
	if err != nil {
		t.Fatal(err)
	}
	q := est.Quality
	if q.Degraded || q.ProbesFailed != 0 || q.IntervalsSkipped != 0 {
		t.Errorf("clean network produced degraded quality: %+v", q)
	}
	if q.ProbesAttempted == 0 {
		t.Error("no probes accounted")
	}
}

func TestInsertRetriesRecoverFromDrops(t *testing.T) {
	// With 30% drops and retries, nearly all inserts succeed; retries
	// are visible in the cost. With retries disabled, failures surface
	// as errors at roughly the drop rate.
	const items = 2000
	d, _, _ := faultyDHS(t, 33, 128, faultdht.Config{DropProb: 0.3}, nil)
	metric := MetricID("retry")
	var retries, failed int
	for i := 0; i < items; i++ {
		c, err := d.Insert(metric, ItemID(fmt.Sprintf("rt-%d", i)))
		retries += c.Retries
		if err != nil {
			failed++
		}
	}
	if retries == 0 {
		t.Error("30% drops triggered no retries")
	}
	// P(4 consecutive drops) ≈ 0.8%, so nearly everything lands.
	if float64(failed)/items > 0.05 {
		t.Errorf("%d/%d inserts failed despite retries", failed, items)
	}

	dNo, _, _ := faultyDHS(t, 33, 128, faultdht.Config{DropProb: 0.3},
		func(c *Config) { c.InsertRetries = -1 })
	failedNo := 0
	for i := 0; i < items; i++ {
		if _, err := dNo.Insert(metric, ItemID(fmt.Sprintf("rt-%d", i))); err != nil {
			failedNo++
		}
	}
	if got := float64(failedNo) / items; got < 0.2 || got > 0.4 {
		t.Errorf("fail-fast failure rate %.3f, expected ≈ drop rate 0.3", got)
	}
}

func TestInsertReplicationBestEffortUnderFaults(t *testing.T) {
	d, _, _ := faultyDHS(t, 37, 128, faultdht.Config{DropProb: 0.4},
		func(c *Config) { c.Replication = 3 })
	metric := MetricID("repl")
	var lost int
	ok := 0
	for i := 0; i < 1000; i++ {
		c, err := d.Insert(metric, ItemID(fmt.Sprintf("rl-%d", i)))
		if err != nil {
			continue
		}
		ok++
		lost += c.ReplicasLost
	}
	if ok == 0 {
		t.Fatal("no insert succeeded")
	}
	if lost == 0 {
		t.Error("40% drops lost no replicas — best-effort accounting broken")
	}
}

func TestInsertRetriesDoNotPerturbCleanPath(t *testing.T) {
	// On a perfect network the retry machinery must be invisible: same
	// placements, costs, and RNG consumption as a direct insert.
	run := func(mutate func(*Config)) (InsertCost, float64) {
		env := sim.NewEnv(55)
		ring := chord.New(env, 64)
		cfg := Config{Overlay: ring, Env: env, K: 16, M: 8, Kind: sketch.KindSuperLogLog}
		if mutate != nil {
			mutate(&cfg)
		}
		d, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		metric := MetricID("clean-path")
		var total InsertCost
		for i := 0; i < 2000; i++ {
			c, err := d.Insert(metric, ItemID(fmt.Sprintf("cp-%d", i)))
			if err != nil {
				t.Fatal(err)
			}
			total.add(c)
		}
		est, err := d.Count(metric)
		if err != nil {
			t.Fatal(err)
		}
		return total, est.Value
	}
	cDefault, vDefault := run(nil)
	cNoRetry, vNoRetry := run(func(c *Config) { c.InsertRetries = -1 })
	if cDefault != cNoRetry || vDefault != vNoRetry {
		t.Errorf("retry machinery perturbed the clean path: %+v/%v vs %+v/%v",
			cDefault, vDefault, cNoRetry, vNoRetry)
	}
	if cDefault.Retries != 0 || cDefault.ReplicasLost != 0 {
		t.Errorf("clean path recorded failure artifacts: %+v", cDefault)
	}
}

func TestCountFromTransientlyDownOriginDegrades(t *testing.T) {
	// An origin inside a down-window is a remote-style transient fault:
	// the pass returns a (fully degraded) estimate, not an error — only
	// fail-stop-dead origins error.
	d, _, env := faultyDHS(t, 61, 64,
		faultdht.Config{TransientFrac: 1, DownPeriod: 10, DownFor: 10}, nil)
	metric := MetricID("down-origin")
	_ = env
	est, err := d.Count(metric)
	if err != nil {
		t.Fatalf("transiently down origin errored: %v", err)
	}
	if !est.Quality.Degraded || est.Quality.IntervalsSkipped == 0 {
		t.Errorf("all-down overlay not marked degraded: %+v", est.Quality)
	}
}

func TestLimScheduleWiredIntoCount(t *testing.T) {
	// A per-bit schedule must change the probing behaviour of a counting
	// pass: eq. 6 budgets for a sparse regime allocate more probes than
	// the constant default. The metric is deliberately left empty: no
	// vector ever resolves, so every interval spends its full budget and
	// each pass's NodesVisited is exactly the sum of its per-bit lims —
	// the comparison is deterministic regardless of which random targets
	// the walk draws. (With data present the comparison is not even
	// monotone: a bigger budget at high bits can resolve all vectors
	// sooner and end the scan earlier.)
	env := sim.NewEnv(77)
	ring := chord.New(env, 256)
	base := Config{Overlay: ring, Env: env, K: 16, M: 16, Kind: sketch.KindSuperLogLog}
	d, err := New(base)
	if err != nil {
		t.Fatal(err)
	}
	metric := MetricID("sched")
	src := ring.Nodes()[0]
	plain, err := d.CountFrom(src, metric)
	if err != nil {
		t.Fatal(err)
	}

	sched := d.scanPass(src, []uint64{metric}, d.eq6LimSchedule(3000, 0.999))[0]
	if sched.Cost.NodesVisited <= plain.Cost.NodesVisited {
		t.Errorf("eq.6 schedule did not raise probing: %d vs %d nodes",
			sched.Cost.NodesVisited, plain.Cost.NodesVisited)
	}
}

func TestTypedFaultErrorsSurfaceInFailFast(t *testing.T) {
	// With retries disabled, the typed fault errors pass through to the
	// caller unchanged.
	d, _, _ := faultyDHS(t, 91, 32, faultdht.Config{SlowFrac: 1, SlowTimeoutProb: 1},
		func(c *Config) { c.InsertRetries = -1 })
	_, err := d.Insert(MetricID("typed"), ItemID("x"))
	if !errors.Is(err, dht.ErrTimeout) {
		t.Errorf("err = %v, want wrapped ErrTimeout", err)
	}
}
