package core

import (
	"reflect"
	"testing"

	"dhsketch/internal/dht"
	"dhsketch/internal/obs"
	"dhsketch/internal/sketch"
)

// The shared scan against a scripted prober: what Geometry.Scan does with
// the replies, independent of any transport. The in-process walk and the
// RPC prober are covered where they live (this package's Count tests,
// netdht's client tests); the cases here are the behaviour both inherit.

// fakeReply answers with a fixed set of vector indexes per metric.
type fakeReply map[uint64][]int

func (r fakeReply) AppendVectors(dst []uint64, metric uint64) []uint64 {
	dst = dst[:0]
	for _, v := range r[metric] {
		for len(dst) <= v/64 {
			dst = append(dst, 0)
		}
		dst[v/64] |= 1 << (v % 64)
	}
	return dst
}

// fakeInterval scripts one bit position: the nodes that answer, in order,
// how many further budget units are lost to failures, and what the
// interval reports of stale routing state.
type fakeInterval struct {
	replies []fakeReply
	failed  int
	stale   int
	repair  bool
}

// fakeProber replays a script and records how the scan drove it.
type fakeProber struct {
	script map[uint]fakeInterval
	bits   []uint // positions probed, in order
	lims   []int  // budget handed to each
	open   []int  // Visitor.Open() at each interval's entry
	asked  [][]uint64
	cutAt  map[uint]int // replies delivered before Visit said stop
}

func (p *fakeProber) ProbeInterval(bit uint, lim int, v *Visitor) IntervalOutcome {
	p.bits = append(p.bits, bit)
	p.lims = append(p.lims, lim)
	p.open = append(p.open, v.Open())
	p.asked = append(p.asked, v.Metrics())
	iv := p.script[bit]
	out := IntervalOutcome{Attempted: iv.failed, Failed: iv.failed, Stale: iv.stale, Repair: iv.repair}
	for i, r := range iv.replies {
		out.Attempted++
		out.Visited++
		if v.Visit(0, 0, r) {
			if p.cutAt == nil {
				p.cutAt = make(map[uint]int)
			}
			p.cutAt[bit] = i + 1
			break
		}
	}
	return out
}

func TestScanScripted(t *testing.T) {
	const a, b = uint64(0xA), uint64(0xB)
	one := func(r fakeReply) fakeInterval { return fakeInterval{replies: []fakeReply{r}} }

	cases := []struct {
		name    string
		geom    Geometry
		metrics []uint64
		script  map[uint]fakeInterval

		wantBits []uint           // positions probed, in order
		wantOpen []int            // open metrics at each interval's entry
		wantR    map[uint64][]int // per metric
		wantQ    Quality          // of the first metric
		wantCut  map[uint]int
	}{
		{
			// Descending: the first set bit seen per vector is its
			// maximum; later (lower) sightings change nothing; a vector
			// never seen stays −1. Untrimmed, the scan starts at k−1.
			name:    "loglog family descends from k-1",
			geom:    Geometry{K: 6, M: 4, Kind: sketch.KindSuperLogLog},
			metrics: []uint64{a},
			script: map[uint]fakeInterval{
				3: one(fakeReply{a: {0}}),
				2: one(fakeReply{a: {0, 1}}),
				0: one(fakeReply{a: {1, 2}}),
			},
			wantBits: []uint{5, 4, 3, 2, 1, 0},
			wantOpen: []int{1, 1, 1, 1, 1, 1},
			wantR:    map[uint64][]int{a: {3, 2, 0, -1}},
			// Bits 5, 4 and 1 had no answering node.
			wantQ: Quality{ProbesAttempted: 3, IntervalsSkipped: 3, VectorsUnresolved: 1, Degraded: true},
		},
		{
			// The wire's range: TrimmedScan starts at k − log₂ m.
			name:     "trimmed scan starts at MaxBit",
			geom:     Geometry{K: 6, M: 4, Kind: sketch.KindHyperLogLog, TrimmedScan: true},
			metrics:  []uint64{a},
			script:   map[uint]fakeInterval{},
			wantBits: []uint{4, 3, 2, 1, 0},
			wantOpen: []int{1, 1, 1, 1, 1},
			wantR:    map[uint64][]int{a: {-1, -1, -1, -1}},
			wantQ:    Quality{IntervalsSkipped: 5, VectorsUnresolved: 4, Degraded: true},
		},
		{
			// Early exit: once every vector is resolved the scan stops —
			// mid-interval (the second node of bit 3 is never asked) and
			// for all lower positions.
			name:    "descending stops once all vectors resolve",
			geom:    Geometry{K: 6, M: 2, Kind: sketch.KindLogLog, TrimmedScan: true},
			metrics: []uint64{a},
			script: map[uint]fakeInterval{
				4: one(fakeReply{a: {1}}),
				3: {replies: []fakeReply{{a: {0}}, {a: {0, 1}}}},
				2: one(fakeReply{a: {0, 1}}),
			},
			wantBits: []uint{5, 4, 3},
			wantOpen: []int{1, 1, 1},
			wantR:    map[uint64][]int{a: {3, 4}},
			wantQ:    Quality{ProbesAttempted: 2, IntervalsSkipped: 1, Degraded: true},
			wantCut:  map[uint]int{3: 1},
		},
		{
			// Ascending: a vector's statistic is the first position where
			// an answering interval did not show it; the interval ends
			// early once every open vector was seen set (bit 0's second
			// node is never asked). Vectors that never show a zero get
			// MaxBit+1.
			name:    "pcsa ascends and declares leftmost zeros",
			geom:    Geometry{K: 4, M: 2, Kind: sketch.KindPCSA},
			metrics: []uint64{a},
			script: map[uint]fakeInterval{
				0: {replies: []fakeReply{{a: {0, 1}}, {a: {}}}},
				1: {replies: []fakeReply{{a: {0}}, {a: {}}}},
				2: one(fakeReply{a: {0}}),
				3: one(fakeReply{a: {0}}),
			},
			wantBits: []uint{0, 1, 2, 3},
			wantOpen: []int{1, 1, 1, 1},
			wantR:    map[uint64][]int{a: {4, 1}},
			wantQ:    Quality{ProbesAttempted: 5, VectorsUnresolved: 1},
			wantCut:  map[uint]int{0: 1, 2: 1, 3: 1},
		},
		{
			// No evidence ⇒ skip, never declare zeros: every probe of
			// bit 1 failed, so both vectors stay open there and resolve
			// at bit 2, where a node answered without them.
			name:    "pcsa skips an interval with zero evidence",
			geom:    Geometry{K: 4, M: 2, Kind: sketch.KindPCSA},
			metrics: []uint64{a},
			script: map[uint]fakeInterval{
				0: one(fakeReply{a: {0, 1}}),
				1: {failed: 3},
				2: one(fakeReply{}),
			},
			wantBits: []uint{0, 1, 2},
			wantOpen: []int{1, 1, 1},
			wantR:    map[uint64][]int{a: {2, 2}},
			wantQ:    Quality{ProbesAttempted: 5, ProbesFailed: 3, IntervalsSkipped: 1, Degraded: true},
			wantCut:  map[uint]int{0: 1},
		},
		{
			// §4.2: one pass, every probed node answers for all open
			// metrics; a metric that resolves drops out of what later
			// probes ask for, and the pass-wide accounting is shared.
			name:    "multi-metric pass closes metrics independently",
			geom:    Geometry{K: 5, M: 2, Kind: sketch.KindSuperLogLog, TrimmedScan: true},
			metrics: []uint64{a, b},
			script: map[uint]fakeInterval{
				4: one(fakeReply{a: {0, 1}, b: {1}}),
				2: {replies: []fakeReply{{a: {0}, b: {0}}}, failed: 1},
			},
			wantBits: []uint{4, 3, 2},
			wantOpen: []int{2, 1, 1},
			wantR:    map[uint64][]int{a: {4, 4}, b: {2, 4}},
			wantQ:    Quality{ProbesAttempted: 3, ProbesFailed: 1, IntervalsSkipped: 1, Degraded: true},
			wantCut:  map[uint]int{2: 1},
		},
		{
			// A writer with a larger m shares the ring: vector indexes at
			// or beyond this reader's m are ignored, in either direction.
			name:    "foreign vector index ignored (descending)",
			geom:    Geometry{K: 5, M: 2, Kind: sketch.KindSuperLogLog, TrimmedScan: true},
			metrics: []uint64{a},
			script: map[uint]fakeInterval{
				4: one(fakeReply{a: {2, 7, 64, 200}}),
				1: one(fakeReply{a: {0, 1, 3}}),
			},
			wantBits: []uint{4, 3, 2, 1},
			wantOpen: []int{1, 1, 1, 1},
			wantR:    map[uint64][]int{a: {1, 1}},
			wantQ:    Quality{ProbesAttempted: 2, IntervalsSkipped: 2, Degraded: true},
			wantCut:  map[uint]int{1: 1},
		},
		{
			name:    "foreign vector index ignored (ascending)",
			geom:    Geometry{K: 3, M: 2, Kind: sketch.KindPCSA},
			metrics: []uint64{a},
			script: map[uint]fakeInterval{
				0: one(fakeReply{a: {1, 2, 70}}),
				1: one(fakeReply{a: {5}}),
			},
			wantBits: []uint{0, 1},
			wantOpen: []int{1, 1},
			wantR:    map[uint64][]int{a: {0, 1}},
			wantQ:    Quality{ProbesAttempted: 2},
		},
		{
			// Degraded has one rule, whatever the transport: a repair
			// window crossed without a failed or stale step is reported
			// and degrades nothing, and neither does an empty vector.
			name:    "repair window alone is not degraded",
			geom:    Geometry{K: 2, M: 2, Kind: sketch.KindSuperLogLog, TrimmedScan: true},
			metrics: []uint64{a},
			script: map[uint]fakeInterval{
				1: {replies: []fakeReply{{a: {1}}}, repair: true},
				0: one(fakeReply{}),
			},
			wantBits: []uint{1, 0},
			wantOpen: []int{1, 1},
			wantR:    map[uint64][]int{a: {-1, 1}},
			wantQ:    Quality{ProbesAttempted: 2, VectorsUnresolved: 1, RepairWindow: true},
		},
		{
			// A stale retry degrades the pass even when it lost nothing.
			name:    "stale retries degrade",
			geom:    Geometry{K: 2, M: 2, Kind: sketch.KindSuperLogLog, TrimmedScan: true},
			metrics: []uint64{a},
			script: map[uint]fakeInterval{
				1: {replies: []fakeReply{{a: {1}}}, stale: 2},
				0: one(fakeReply{}),
			},
			wantBits: []uint{1, 0},
			wantOpen: []int{1, 1},
			wantR:    map[uint64][]int{a: {-1, 1}},
			wantQ:    Quality{ProbesAttempted: 2, VectorsUnresolved: 1, StaleRetries: 2, Degraded: true},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g, err := NewGeometry(tc.geom)
			if err != nil {
				t.Fatal(err)
			}
			p := &fakeProber{script: tc.script}
			ests := g.Scan(p, tc.metrics, func(bit int) int { return 10 + bit }, Trace{})

			if !reflect.DeepEqual(p.bits, tc.wantBits) {
				t.Errorf("probed bits %v, want %v", p.bits, tc.wantBits)
			}
			if !reflect.DeepEqual(p.open, tc.wantOpen) {
				t.Errorf("open metrics per interval %v, want %v", p.open, tc.wantOpen)
			}
			for i, bit := range p.bits {
				if p.lims[i] != 10+int(bit) {
					t.Errorf("bit %d probed with lim %d, want limFor(bit) = %d", bit, p.lims[i], 10+bit)
				}
			}
			if !reflect.DeepEqual(p.cutAt, tc.wantCut) {
				t.Errorf("intervals cut short at %v, want %v", p.cutAt, tc.wantCut)
			}
			if len(ests) != len(tc.metrics) {
				t.Fatalf("%d estimates for %d metrics", len(ests), len(tc.metrics))
			}
			for i, metric := range tc.metrics {
				if !reflect.DeepEqual(ests[i].R, tc.wantR[metric]) {
					t.Errorf("metric %x: R = %v, want %v", metric, ests[i].R, tc.wantR[metric])
				}
				if want := g.estimateFromR(tc.wantR[metric]); ests[i].Value != want {
					t.Errorf("metric %x: Value = %v, want the %v estimate of R, %v", metric, ests[i].Value, g.Kind, want)
				}
				if (ests[i].Cost != CountCost{}) {
					t.Errorf("metric %x: Scan filled Cost %+v; that is the transport's to report", metric, ests[i].Cost)
				}
			}
			if got := ests[0].Quality; got != tc.wantQ {
				t.Errorf("quality %+v, want %+v", got, tc.wantQ)
			}
		})
	}
}

// TestScanAsksOnlyOpenMetrics: what the prober is told to ask for
// shrinks as metrics resolve — the reply-size accounting of the
// in-process walk and the request the RPC prober encodes both read it.
func TestScanAsksOnlyOpenMetrics(t *testing.T) {
	const a, b = uint64(1), uint64(2)
	g, err := NewGeometry(Geometry{K: 4, M: 2, Kind: sketch.KindSuperLogLog, TrimmedScan: true})
	if err != nil {
		t.Fatal(err)
	}
	p := &fakeProber{script: map[uint]fakeInterval{
		3: {replies: []fakeReply{{a: {0, 1}}}},
	}}
	g.Scan(p, []uint64{a, b}, func(int) int { return 1 }, Trace{})
	want := [][]uint64{{a, b}, {b}, {b}, {b}}
	if !reflect.DeepEqual(p.asked, want) {
		t.Errorf("metrics asked per interval %v, want %v", p.asked, want)
	}
}

// newMetricState is a metricState of its own for metric at m vectors.
func newMetricState(metric uint64, m int) metricState {
	var st metricState
	st.reset(metric, m)
	return st
}

// TestVisitorUntracedZeroAlloc: an empty Trace costs the pass's emission
// sites nothing — Visit's probe event and a prober's Note each pay one nil
// check and construct no event.
func TestVisitorUntracedZeroAlloc(t *testing.T) {
	v := &Visitor{states: []metricState{newMetricState(1, 64)}, open: 1}
	var r Reply = fakeReply{1: {3}}
	if n := testing.AllocsPerRun(100, func() {
		v.Note(obs.KindLookup, 7, 2, nil)
		v.Note(obs.KindWalkStep, 0, 1, dht.ErrTimeout)
		v.Visit(7, 1, r)
	}); n != 0 {
		t.Errorf("untraced Visit and Note allocated %.1f/op, want 0", n)
	}
}

// TestNewGeometryRejects: layouts that would be accepted and then panic
// or index out of range in a later count are refused up front, for every
// transport. m = 1 with a LogLog-family kind has no α constant; m = 65536
// does not fit the wire's 16-bit vector count.
func TestNewGeometryRejects(t *testing.T) {
	bad := []Geometry{
		{K: 16, M: 1, Kind: sketch.KindSuperLogLog},
		{K: 16, M: 1, Kind: sketch.KindLogLog},
		{K: 24, M: 1 << 16, Kind: sketch.KindPCSA},
		{K: 16, M: 48, Kind: sketch.KindPCSA},
		{K: 16, M: 0, Kind: sketch.KindPCSA},
		{K: 4, M: 16, Kind: sketch.KindPCSA},
		{K: 65, M: 16, Kind: sketch.KindPCSA},
		{K: 8, M: 16, Kind: sketch.KindPCSA, ShiftBits: 4},
	}
	for _, g := range bad {
		if _, err := NewGeometry(g); err == nil {
			t.Errorf("NewGeometry(%+v) accepted", g)
		}
	}
	good := []Geometry{
		{K: 16, M: 1, Kind: sketch.KindPCSA},
		{K: 16, M: 1, Kind: sketch.KindHyperLogLog},
		{K: 24, M: 1 << 15, Kind: sketch.KindSuperLogLog},
		{K: 8, M: 16, Kind: sketch.KindPCSA, ShiftBits: 3},
	}
	for _, g := range good {
		if _, err := NewGeometry(g); err != nil {
			t.Errorf("NewGeometry(%+v): %v", g, err)
		}
	}
}
