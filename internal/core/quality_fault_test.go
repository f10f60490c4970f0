package core

// Satellite of the observability PR: the Quality annotations on an
// Estimate must be arithmetic over the walk the trace records, under
// every fault regime of the E12F sweep — not just plausible numbers.

import (
	"fmt"
	"testing"

	"dhsketch/internal/chord"
	"dhsketch/internal/dht"
	"dhsketch/internal/faultdht"
	"dhsketch/internal/obs"
	"dhsketch/internal/sim"
	"dhsketch/internal/sketch"
)

// faultQualityConfigs mirrors experiments.DefaultE12FScenarios.
var faultQualityConfigs = []struct {
	name  string
	fault faultdht.Config
}{
	{"clean", faultdht.Config{}},
	{"loss10", faultdht.Config{DropProb: 0.10}},
	{"loss10-down10", faultdht.Config{DropProb: 0.10, TransientFrac: 0.10}},
	{"loss20-down20", faultdht.Config{DropProb: 0.20, TransientFrac: 0.20}},
	{"slow", faultdht.Config{SlowFrac: 0.25, SlowTimeoutProb: 0.5}},
}

// traceQuality recomputes the Quality fields of one pass from its trace.
func traceQuality(events []obs.Event, pass uint64) (probes, failed, skipped int) {
	type bitSeen struct{ entered, probed bool }
	bits := map[int16]*bitSeen{}
	seen := func(b int16) *bitSeen {
		s := bits[b]
		if s == nil {
			s = &bitSeen{}
			bits[b] = s
		}
		return s
	}
	for _, e := range events {
		if e.Pass != pass {
			continue
		}
		switch e.Kind {
		case obs.KindProbe:
			probes++
			seen(e.Bit).probed = true
		case obs.KindLookup:
			seen(e.Bit).entered = true
			if e.Err != dht.ClassNone {
				failed++
			}
		case obs.KindWalkStep:
			seen(e.Bit).entered = true
			if e.Err != dht.ClassNone {
				failed++
			}
		}
	}
	for _, s := range bits {
		if s.entered && !s.probed {
			skipped++
		}
	}
	return probes, failed, skipped
}

func TestQualityArithmeticUnderFaults(t *testing.T) {
	for _, kind := range []sketch.Kind{sketch.KindSuperLogLog, sketch.KindPCSA} {
		for _, fc := range faultQualityConfigs {
			t.Run(fmt.Sprintf("%v/%s", kind, fc.name), func(t *testing.T) {
				env := sim.NewEnv(42)
				// A large ring: the tiny-ring wrap path (successor walk
				// returning to its anchor) would end an interval without
				// spending its last attempted unit on a probe or failure,
				// which is the one sanctioned exception to the arithmetic.
				ring := chord.New(env, 512)
				fo := faultdht.New(ring, env, fc.fault)
				d, err := New(Config{Overlay: fo, Env: env, K: 16, M: 16, Lim: 4, Kind: kind})
				if err != nil {
					t.Fatal(err)
				}
				metric := MetricID("quality-" + fc.name)
				for i := 0; i < 3000; i++ {
					// Exhausted insertion retries under injected faults are
					// a measured outcome (the item is absent), not a test
					// failure.
					_, _ = d.Insert(metric, ItemID(fmt.Sprintf("qf-%d", i)))
				}

				r := obs.NewRing(1 << 18)
				env.SetTracer(r)
				for trial := 0; trial < 10; trial++ {
					r.Reset()
					before := r.Total()
					src := ring.Nodes()[trial]
					est, err := d.CountFrom(src, metric)
					if err != nil {
						t.Fatalf("trial %d: counting must degrade, not fail: %v", trial, err)
					}
					q := est.Quality

					// The probe budget is spent on successes and failures,
					// nothing else.
					if q.ProbesAttempted != est.Cost.NodesVisited+q.ProbesFailed {
						t.Fatalf("trial %d: attempted %d != visited %d + failed %d",
							trial, q.ProbesAttempted, est.Cost.NodesVisited, q.ProbesFailed)
					}
					if fc.fault.Active() == false && q.ProbesFailed != 0 {
						t.Fatalf("trial %d: clean network reported %d failed probes", trial, q.ProbesFailed)
					}

					// The trace must recount to the same numbers.
					events := r.Events()
					if r.Total()-before != uint64(len(events)) {
						t.Fatalf("trial %d: ring overflowed (%d events, kept %d) — grow the buffer",
							trial, r.Total()-before, len(events))
					}
					pass := events[0].Pass
					probes, failed, skipped := traceQuality(events, pass)
					if probes != est.Cost.NodesVisited {
						t.Fatalf("trial %d: trace probes %d != NodesVisited %d", trial, probes, est.Cost.NodesVisited)
					}
					if failed != q.ProbesFailed {
						t.Fatalf("trial %d: trace failures %d != ProbesFailed %d", trial, failed, q.ProbesFailed)
					}
					if skipped != q.IntervalsSkipped {
						t.Fatalf("trial %d: trace skipped intervals %d != IntervalsSkipped %d",
							trial, skipped, q.IntervalsSkipped)
					}

					// And the pass's count-done event agrees on unresolved
					// vectors.
					last := events[len(events)-1]
					if last.Kind != obs.KindCountDone || last.Arg != int64(q.VectorsUnresolved) {
						t.Fatalf("trial %d: count-done %+v disagrees with VectorsUnresolved %d",
							trial, last, q.VectorsUnresolved)
					}

					env.Clock.Advance(7) // rotate down-windows between trials
				}
			})
		}
	}
}
