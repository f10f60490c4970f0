package netdht

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"dhsketch/internal/chord"
	"dhsketch/internal/core"
	"dhsketch/internal/metrics"
	"dhsketch/internal/sim"
	"dhsketch/internal/sketch"
	"dhsketch/internal/wire"
)

// Tests for the counting scan's segment map: what the map resolves, that
// a scan with it gathers the evidence a scan without it gathers at a
// fifth of the lookups, and that a stale entry costs a failed probe and
// a real lookup, nothing more.

// TestSegmentMapResolve: one reply's neighbourhood spells out the arcs
// (pred, owner], (owner, s₀], (s₀, s₁]; targets inside them resolve
// locally — across the identifier wrap too — and targets outside do not.
func TestSegmentMapResolve(t *testing.T) {
	ref := func(id uint64) chord.Ref { return chord.Ref{ID: id, Addr: fmt.Sprint("n", id)} }
	var m segmentMap
	if _, ok := m.resolve(5); ok {
		t.Fatal("empty map resolved a target")
	}
	// Ring order 900 → 100 → 300 → 500 (wrapping past zero); 700 is a
	// member nobody has mentioned yet.
	m.learn(findSuccRespMsg{owner: ref(100), near: &chord.Neighbors{
		Pred: ref(900), Succ: []chord.Ref{ref(300), ref(500)}}})
	for target, want := range map[uint64]uint64{
		901: 100, math.MaxUint64: 100, 0: 100, 100: 100,
		101: 300, 300: 300, 301: 500, 500: 500,
	} {
		if got, ok := m.resolve(target); !ok || got.ID != want {
			t.Errorf("resolve(%d) = %v, %v; want node %d", target, got, ok, want)
		}
	}
	for _, target := range []uint64{501, 700, 900} {
		if got, ok := m.resolve(target); ok {
			t.Errorf("resolve(%d) = %v, but no reply covers it", target, got)
		}
	}

	// A later reply replaces what an earlier one said about a node: 200
	// joined in front of 300. An unknown predecessor leaves the owner's
	// own arc alone and still teaches the arcs behind it.
	m.learn(findSuccRespMsg{owner: ref(200), near: &chord.Neighbors{Pred: ref(100), Succ: []chord.Ref{ref(300)}}})
	m.learn(findSuccRespMsg{owner: ref(500), near: &chord.Neighbors{Succ: []chord.Ref{ref(700)}}})
	for target, want := range map[uint64]uint64{150: 200, 250: 300, 400: 500, 600: 700} {
		if got, ok := m.resolve(target); !ok || got.ID != want {
			t.Errorf("after relearning, resolve(%d) = %v, %v; want node %d", target, got, ok, want)
		}
	}
	if !sort.SliceIsSorted(m, func(i, j int) bool { return m[i].owner.ID < m[j].owner.ID }) || len(m) != 5 {
		t.Errorf("map not a sorted set of 5 owners: %+v", m)
	}
	// A reply without a neighbourhood, or one that repeats a node, teaches
	// nothing — in particular no arc that spans the whole circle.
	m = nil
	m.learn(findSuccRespMsg{owner: ref(100)})
	m.learn(findSuccRespMsg{owner: ref(100), near: &chord.Neighbors{Pred: ref(100), Succ: []chord.Ref{ref(100)}}})
	if got, ok := m.resolve(42); ok {
		t.Errorf("degenerate replies resolved a target to %v", got)
	}
}

// recordingProber wraps a scan's prober and notes, per interval, which
// servers' probe counters moved: the (bit, owner) set of the scan. An
// interval probes an owner at most once, so a moved counter is one probe.
type recordingProber struct {
	inner   core.Prober
	servers []*Server
	probed  map[string]bool // "bit/ownerID"
}

func (r *recordingProber) ProbeInterval(bit uint, lim int, v *core.Visitor) core.IntervalOutcome {
	before := make([]int64, len(r.servers))
	for i, s := range r.servers {
		before[i] = s.counters.Snapshot().Probed
	}
	out := r.inner.ProbeInterval(bit, lim, v)
	for i, s := range r.servers {
		if s.counters.Snapshot().Probed != before[i] {
			r.probed[fmt.Sprintf("%d/%016x", bit, s.ID())] = true
		}
	}
	return out
}

// outRPCs reads a client registry's outbound exchange counter for tag.
func outRPCs(reg *metrics.Registry, tag string) uint64 {
	return reg.Counter("netdht_out_rpc_total", "outbound RPC exchanges", metrics.L("tag", tag)).Value()
}

// outExchanges sums that counter over every tag: all the exchanges a
// client started, the repo benchmark's msgs_per_op numerator.
func outExchanges(reg *metrics.Registry) (sum uint64) {
	for _, tag := range tagSlotNames {
		sum += outRPCs(reg, tag)
	}
	return sum
}

// TestScanSegmentMapEquivalence: on a converged ring the segment map
// changes what a scan costs, not what it learns. Two clients with one
// seed — one with the map bypassed — draw the same targets, probe the
// same (bit, owner) set and return the identical CountResult; the one
// with the map routes at most once per scanned interval, where routing
// every target costs Lim times that.
func TestScanSegmentMapEquivalence(t *testing.T) {
	for _, kind := range []sketch.Kind{sketch.KindSuperLogLog, sketch.KindPCSA} {
		t.Run(kind.String(), func(t *testing.T) {
			env := sim.NewEnv(21)
			cl := newTestCluster(t, env, 8)
			settleCluster(t, cl, env)
			servers := cl.Servers()

			const lim = 5
			regs := [2]*metrics.Registry{metrics.New(), metrics.New()}
			var clients [2]*Client
			for i := range clients {
				c, err := NewClient(ClientConfig{
					Entry: servers[0].Addr(), K: 16, M: 64, Kind: kind, Lim: lim, Seed: 9,
					DialTimeout: time.Second, RPCTimeout: 5 * time.Second, Metrics: regs[i],
				})
				if err != nil {
					t.Fatalf("NewClient: %v", err)
				}
				t.Cleanup(c.Close)
				clients[i] = c
			}
			clients[1].scanFlags = 0 // no neighbourhoods, no map; clients[0] keeps it

			// Both clients insert half the items each: their target
			// streams stay in step, draw for draw.
			for i := 0; i < 600; i++ {
				if err := clients[i%2].Insert(5, uint64(i)*0x9e3779b97f4a7c15+1); err != nil {
					t.Fatalf("insert %d: %v", i, err)
				}
			}

			var results [2]CountResult
			var lookups, probes [2]uint64
			for i, c := range clients {
				l0, p0 := outRPCs(regs[i], "find_succ"), outRPCs(regs[i], "probe")
				res, err := c.Count(5)
				if err != nil {
					t.Fatalf("Count: %v", err)
				}
				results[i] = res
				lookups[i], probes[i] = outRPCs(regs[i], "find_succ")-l0, outRPCs(regs[i], "probe")-p0
			}
			if results[0] != results[1] {
				t.Errorf("CountResult differs:\n with map %+v\n without  %+v", results[0], results[1])
			}
			if results[0].Degraded || results[0].Estimate == 0 {
				t.Errorf("healthy loaded ring counted as %+v", results[0])
			}
			intervals := uint64(results[0].ProbesAttempted / lim)
			if lookups[0] == 0 || lookups[0] > intervals {
				t.Errorf("scan with the map made %d lookups over %d intervals, want 1..%d", lookups[0], intervals, intervals)
			}
			if lookups[1] != intervals*lim {
				t.Errorf("scan without the map made %d lookups, want every target routed (%d)", lookups[1], intervals*lim)
			}
			if probes[0] != probes[1] || probes[0] == 0 {
				t.Errorf("probes per Count: %d with the map, %d without", probes[0], probes[1])
			}
			byMap := regs[0].Counter("netdht_scan_targets_total", "", metrics.L("resolved", "map")).Value()
			byLookup := regs[0].Counter("netdht_scan_targets_total", "", metrics.L("resolved", "lookup")).Value()
			if byLookup != lookups[0] || byMap+byLookup != intervals*lim {
				t.Errorf("scan_targets_total map=%d lookup=%d, want lookup=%d and %d in all", byMap, byLookup, lookups[0], intervals*lim)
			}

			// A second scan, recorded interval by interval.
			var sets [2]map[string]bool
			var ests [2]core.Estimate
			for i, c := range clients {
				rec := &recordingProber{inner: &rpcProber{c: c}, servers: servers, probed: map[string]bool{}}
				ests[i] = c.geom.Scan(rec, []uint64{5}, func(int) int { return lim })[0]
				sets[i] = rec.probed
			}
			if !reflect.DeepEqual(sets[0], sets[1]) {
				t.Errorf("(bit, owner) sets differ:\n with map %v\n without  %v", sets[0], sets[1])
			}
			if len(sets[0]) == 0 || !reflect.DeepEqual(ests[0], ests[1]) {
				t.Errorf("recorded scans differ or probed nothing: %+v vs %+v", ests[0], ests[1])
			}
		})
	}
}

// TestScanStaleMapEntry: a lookup reply names a successor that is dead
// by the time the scan probes it. The probe fails, the target goes back
// through find_succ, and the books follow the rules a dead owner named
// by a lookup has always followed: a ring that now names a live node
// costs nothing but the detour, a ring that still names the dead one
// costs a failed attempt per interval.
func TestScanStaleMapEntry(t *testing.T) {
	// Two members: the fake peer at 2⁶², owning bit 2's interval, and a
	// dead node at the top of the circle, owning those of bits 1 and 0.
	const liveID, deadID = 1 << 62, math.MaxUint64
	for name, tc := range map[string]struct {
		repaired bool
		want     CountResult
	}{
		"ring repaired":       {true, CountResult{ProbesAttempted: 6}},
		"ring still names it": {false, CountResult{ProbesAttempted: 6, ProbesFailed: 2, IntervalsSkipped: 2, Degraded: true}},
	} {
		t.Run(name, func(t *testing.T) {
			dead := chord.Ref{ID: deadID, Addr: deadAddr(t)}
			var lookups atomic.Int32
			entry := fakePeer(t, func(self string, req []byte) []byte {
				live := chord.Ref{ID: liveID, Addr: self}
				switch req[1] {
				case tagFindSucc:
					m, err := decodeFindSucc(req)
					if err != nil || m.flags&flagNeighbors == 0 {
						t.Errorf("scan lookup %x: err %v, want flagNeighbors set", req, err)
					}
					lookups.Add(1)
					switch {
					case m.key <= liveID:
						return encodeFindSuccResp(findSuccRespMsg{owner: live,
							near: &chord.Neighbors{Pred: dead, Succ: []chord.Ref{dead}}})
					case tc.repaired:
						return encodeFindSuccResp(findSuccRespMsg{owner: live, near: &chord.Neighbors{}})
					default:
						return encodeFindSuccResp(findSuccRespMsg{owner: dead,
							near: &chord.Neighbors{Pred: live, Succ: []chord.Ref{live}}})
					}
				case wire.TagProbeReq:
					raw, err := wire.EncodeProbeResp(wire.ProbeResp{NumVecs: 64, VecMasks: [][]byte{make([]byte, 8)}})
					if err != nil {
						t.Errorf("EncodeProbeResp: %v", err)
					}
					return raw
				}
				return encodeErr(errnoBad, 0, 0)
			})
			// K=8, M=64: the descending scan covers bits 2..0.
			c, err := NewClient(ClientConfig{
				Entry: entry, K: 8, M: 64, Kind: sketch.KindSuperLogLog, Lim: 2,
				Retries: 1, Backoff: time.Millisecond,
				DialTimeout: 500 * time.Millisecond, RPCTimeout: 2 * time.Second,
			})
			if err != nil {
				t.Fatalf("NewClient: %v", err)
			}
			defer c.Close()

			start := time.Now()
			res, err := c.Count(42)
			if err != nil {
				t.Fatalf("Count: %v", err)
			}
			if took := time.Since(start); took > c.cfg.RPCTimeout {
				t.Errorf("scan over a stale map entry took %v, past the RPC timeout", took)
			}
			tc.want.Estimate = res.Estimate // the empty sketch's estimate is the estimator's affair
			if res != tc.want {
				t.Errorf("Count = %+v, want %+v", res, tc.want)
			}
			// One lookup fills the map; bits 1 and 0 each resolve both
			// targets to the dead node, probe it once and re-route once.
			if n := lookups.Load(); n != 3 {
				t.Errorf("fake entry served %d lookups, want 3", n)
			}
		})
	}
}

// TestFindSuccRespNeighbourhoodCodec: the flagged reply is a fixpoint,
// the unflagged one is byte for byte what it was, and the decoder
// refuses what a peer could use to smuggle state in — a successor count
// the frame cannot hold, an empty address, bytes after the end.
func TestFindSuccRespNeighbourhoodCodec(t *testing.T) {
	a, b, c := chord.Ref{ID: 1, Addr: "a:1"}, chord.Ref{ID: 2, Addr: "b:2"}, chord.Ref{ID: 3, Addr: "c:3"}
	short := encodeFindSuccResp(findSuccRespMsg{hops: 3, stale: 1, owner: a})
	if want := 6 + 10 + len(a.Addr); len(short) != want {
		t.Fatalf("unflagged reply is %d bytes, want %d", len(short), want)
	}
	for _, near := range []*chord.Neighbors{
		{Pred: b, Succ: []chord.Ref{c, b}},
		{Succ: []chord.Ref{c}},
		{Pred: b},
		{}, // a ring of one still answers a flagged request with a neighbourhood
	} {
		m := findSuccRespMsg{hops: 3, stale: 1, owner: a, near: near}
		got, err := decodeFindSuccResp(encodeFindSuccResp(m))
		if err != nil || !reflect.DeepEqual(got, m) {
			t.Errorf("round trip of %+v: %+v, %v", near, got, err)
		}
	}

	full := encodeFindSuccResp(findSuccRespMsg{owner: a, near: &chord.Neighbors{Pred: b, Succ: []chord.Ref{c}}})
	countAt := len(short) + 1 + 10 + len(b.Addr)
	huge := append([]byte(nil), full...)
	huge[countAt] = 255
	for name, frame := range map[string][]byte{
		"trailing byte":       append(append([]byte(nil), full...), 0),
		"count beyond frame":  huge,
		"truncated successor": full[:len(full)-1],
		"missing count":       full[:countAt],
		"empty pred address":  append(append([]byte(nil), short...), append([]byte{1}, make([]byte, 10)...)...),
		"empty succ address":  append(append([]byte(nil), short...), append([]byte{0, 1}, make([]byte, 10)...)...),
	} {
		if m, err := decodeFindSuccResp(frame); err == nil {
			t.Errorf("%s: accepted as %+v", name, m)
		} else if !errors.Is(err, wire.ErrShort) && !errors.Is(err, wire.ErrBadMessage) {
			t.Errorf("%s: error %v is not a wire decode error", name, err)
		}
	}
}

// TestNilPoolMetricsScanTargets: the scan's per-interval hook is a
// one-branch no-op with metrics off, like every other pool hook.
func TestNilPoolMetricsScanTargets(t *testing.T) {
	var m *poolMetrics
	if n := testing.AllocsPerRun(100, func() {
		m.scanTargets(3, 2)
	}); n != 0 {
		t.Errorf("nil poolMetrics.scanTargets allocated %.1f/op, want 0", n)
	}
}
