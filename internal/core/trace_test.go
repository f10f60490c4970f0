package core

import (
	"testing"

	"dhsketch/internal/dht"
	"dhsketch/internal/obs"
	"dhsketch/internal/sketch"
)

// passEvents filters a trace down to one counting pass.
func passEvents(events []obs.Event, pass uint64) []obs.Event {
	var out []obs.Event
	for _, e := range events {
		if e.Pass == pass {
			out = append(out, e)
		}
	}
	return out
}

// TestWalkReconstructionFromRing replays a single counting walk hop by
// hop from the ring-buffer trace and checks that the trace and the
// returned Estimate tell the same story: every probed node appears as a
// probe event, every routed entry as a lookup event, and the pass is
// bracketed by count-start/count-done.
func TestWalkReconstructionFromRing(t *testing.T) {
	d, ring, env := testDHS(t, 7, 256, Config{K: 16, M: 16, Lim: 4, Kind: sketch.KindSuperLogLog})
	metric := MetricID("trace-walk")
	insertItems(t, d, metric, 2000, "tw")

	ring.Nodes() // ensure the ring is materialized before tracing
	r := obs.NewRing(1 << 16)
	env.SetTracer(r)
	src := ring.Nodes()[3]
	est, err := d.CountFrom(src, metric)
	if err != nil {
		t.Fatal(err)
	}
	env.SetTracer(nil)

	events := r.Events()
	if len(events) == 0 {
		t.Fatal("no events traced")
	}

	// All events belong to the one pass we ran, and the pass brackets
	// hold: first count-start, last count-done.
	pass := events[0].Pass
	if pass == 0 {
		t.Fatalf("first event %+v has no pass number", events[0])
	}
	if got := passEvents(events, pass); len(got) != len(events) {
		t.Fatalf("%d of %d events belong to other passes", len(events)-len(got), len(events))
	}
	first, last := events[0], events[len(events)-1]
	if first.Kind != obs.KindCountStart || first.Node != src.ID() {
		t.Fatalf("first event %+v, want count-start at node %d", first, src.ID())
	}
	if last.Kind != obs.KindCountDone || last.Metric != metric {
		t.Fatalf("last event %+v, want count-done for the metric", last)
	}
	if last.Arg != int64(est.Quality.VectorsUnresolved) {
		t.Fatalf("count-done Arg = %d, want VectorsUnresolved %d", last.Arg, est.Quality.VectorsUnresolved)
	}

	// Replay: count the walk's building blocks and mirror them against
	// the Estimate's cost accounting.
	var probes, lookups, lookupHops, probeHops int
	for _, e := range events {
		switch e.Kind {
		case obs.KindProbe:
			probes++
			probeHops += int(e.Arg)
			if e.Node == 0 {
				t.Fatalf("probe event without a node: %+v", e)
			}
		case obs.KindLookup:
			if e.Err == dht.ClassNone {
				lookups++
				lookupHops += int(e.Arg)
			}
		case obs.KindWalkStep:
			if e.Arg != 1 && e.Arg != -1 {
				t.Fatalf("walk step with direction %d: %+v", e.Arg, e)
			}
		}
	}
	if probes != est.Cost.NodesVisited {
		t.Errorf("trace shows %d probes, Cost.NodesVisited = %d", probes, est.Cost.NodesVisited)
	}
	if lookups != est.Cost.Lookups {
		t.Errorf("trace shows %d successful lookups, Cost.Lookups = %d", lookups, est.Cost.Lookups)
	}
	if int64(probeHops) != est.Cost.Hops {
		t.Errorf("trace hop total %d, Cost.Hops = %d", probeHops, est.Cost.Hops)
	}

	// The walk is sequential on one clean overlay: each interval entry is
	// a lookup followed by its probe of the same node.
	for i, e := range events {
		if e.Kind == obs.KindLookup && e.Err == dht.ClassNone {
			next := events[i+1]
			if next.Kind != obs.KindProbe || next.Node != e.Node || next.Bit != e.Bit {
				t.Fatalf("lookup at event %d (node %d bit %d) not followed by its probe: %+v", i, e.Node, e.Bit, next)
			}
		}
	}
}

// TestTraceDisabledIsSilent checks the zero-cost contract's functional
// half: with no tracer attached nothing observable happens, and the same
// seed yields the same estimate with tracing on and off (instrumentation
// does not perturb the walk's randomness).
func TestTraceDisabledIsSilent(t *testing.T) {
	run := func(trace bool) (Estimate, uint64) {
		d, ring, env := testDHS(t, 11, 128, Config{K: 16, M: 8, Kind: sketch.KindSuperLogLog})
		metric := MetricID("silent")
		insertItems(t, d, metric, 500, "sl")
		r := obs.NewRing(1024)
		if trace {
			env.SetTracer(r)
		}
		est, err := d.CountFrom(ring.Nodes()[0], metric)
		if err != nil {
			t.Fatal(err)
		}
		return est, r.Total()
	}
	offEst, offTotal := run(false)
	onEst, onTotal := run(true)
	if offTotal != 0 {
		t.Fatalf("untraced run emitted %d events", offTotal)
	}
	if onTotal == 0 {
		t.Fatal("traced run emitted nothing")
	}
	if offEst.Value != onEst.Value || offEst.Cost != onEst.Cost {
		t.Fatalf("tracing changed the run: off %+v, on %+v", offEst, onEst)
	}
}

// TestCountAllSharesOnePass checks that multi-metric counting emits one
// count-start and one count-done per metric, all under a single pass
// number.
func TestCountAllSharesOnePass(t *testing.T) {
	d, ring, env := testDHS(t, 3, 128, Config{K: 16, M: 8, Kind: sketch.KindSuperLogLog})
	metrics := []uint64{MetricID("a"), MetricID("b"), MetricID("c")}
	for i, m := range metrics {
		insertItems(t, d, m, 200+100*i, "multi")
	}
	r := obs.NewRing(1 << 16)
	env.SetTracer(r)
	if _, err := d.CountAllFrom(ring.Nodes()[0], metrics); err != nil {
		t.Fatal(err)
	}
	events := r.Events()
	starts, dones := 0, 0
	doneMetrics := map[uint64]bool{}
	for _, e := range events {
		if e.Pass != events[0].Pass {
			t.Fatalf("event from foreign pass: %+v", e)
		}
		switch e.Kind {
		case obs.KindCountStart:
			starts++
			if e.Arg != int64(len(metrics)) {
				t.Fatalf("count-start Arg = %d, want metric count %d", e.Arg, len(metrics))
			}
		case obs.KindCountDone:
			dones++
			doneMetrics[e.Metric] = true
		}
	}
	if starts != 1 || dones != len(metrics) {
		t.Fatalf("starts=%d dones=%d, want 1 and %d", starts, dones, len(metrics))
	}
	for _, m := range metrics {
		if !doneMetrics[m] {
			t.Fatalf("no count-done for metric %d", m)
		}
	}
}

// TestStoreAndExpireEvents drives insertion and TTL expiry through a
// traced store and checks the bookkeeping events.
func TestStoreAndExpireEvents(t *testing.T) {
	d, ring, env := testDHS(t, 5, 64, Config{K: 16, M: 4, TTL: 10, Replication: 2, Kind: sketch.KindSuperLogLog})
	r := obs.NewRing(1 << 16)
	env.SetTracer(r)
	metric := MetricID("expiring")
	insertItems(t, d, metric, 100, "ex")

	stores, replicas := 0, 0
	for _, e := range r.Events() {
		switch e.Kind {
		case obs.KindStore:
			stores++
			if e.Node == 0 || e.Metric != metric {
				t.Fatalf("malformed store event %+v", e)
			}
		case obs.KindReplica:
			replicas++
			if e.Arg < 1 || e.Arg > 2 {
				t.Fatalf("replica ordinal %d out of range: %+v", e.Arg, e)
			}
		}
	}
	if stores == 0 {
		t.Fatal("no store events")
	}
	if replicas == 0 {
		t.Fatal("no replica events despite Replication=2")
	}

	// Age everything out, then count: the probes' GC sweeps must report
	// the expired tuples.
	r.Reset()
	env.Clock.Advance(100)
	if _, err := d.CountFrom(ring.Nodes()[0], metric); err != nil {
		t.Fatal(err)
	}
	var expired int64
	for _, e := range r.Events() {
		if e.Kind == obs.KindExpire {
			if e.Node == 0 || e.Arg <= 0 {
				t.Fatalf("malformed expire event %+v", e)
			}
			expired += e.Arg
		}
	}
	if expired == 0 {
		t.Fatal("TTL expiry left no expire events")
	}
}
