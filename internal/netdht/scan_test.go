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
	"dhsketch/internal/obs"
	"dhsketch/internal/sim"
	"dhsketch/internal/sketch"
	"dhsketch/internal/wire"
)

// Tests for the counting scan's segment map and remembered answers: what
// the map resolves, that a scan with it gathers the evidence a scan
// without it gathers at a fifth of the lookups and one probe exchange per
// owner, and that a stale entry costs a failed probe and a real lookup,
// once.

// TestSegmentMapResolve: one reply's neighbourhood spells out the arcs
// (pred, owner], (owner, s₀], (s₀, s₁]; targets inside them resolve
// locally — across the identifier wrap too — and targets outside do not.
func TestSegmentMapResolve(t *testing.T) {
	ref := func(id uint64) chord.Ref { return chord.Ref{ID: id, Addr: fmt.Sprint("n", id)} }
	var m ringView
	if _, ok := m.resolve(5); ok {
		t.Fatal("empty map resolved a target")
	}
	// Ring order 900 → 100 → 300 → 500 (wrapping past zero); 700 is a
	// member nobody has mentioned yet.
	m.learn(chord.Found{Owner: ref(100), Near: &chord.Neighbors{
		Pred: ref(900), Succ: []chord.Ref{ref(300), ref(500)}}})
	for target, want := range map[uint64]uint64{
		901: 100, math.MaxUint64: 100, 0: 100, 100: 100,
		101: 300, 300: 300, 301: 500, 500: 500,
	} {
		if got, ok := m.resolve(target); !ok || got.owner.ID != want {
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
	m.learn(chord.Found{Owner: ref(200), Near: &chord.Neighbors{Pred: ref(100), Succ: []chord.Ref{ref(300)}}})
	m.learn(chord.Found{Owner: ref(500), Near: &chord.Neighbors{Succ: []chord.Ref{ref(700)}}})
	for target, want := range map[uint64]uint64{150: 200, 250: 300, 400: 500, 600: 700} {
		if got, ok := m.resolve(target); !ok || got.owner.ID != want {
			t.Errorf("after relearning, resolve(%d) = %v, %v; want node %d", target, got, ok, want)
		}
	}
	if !sort.SliceIsSorted(m.arcs, func(i, j int) bool { return m.arcs[i].owner.ID < m.arcs[j].owner.ID }) || len(m.arcs) != 5 {
		t.Errorf("view not a sorted set of 5 owners: %+v", m.arcs)
	}
	// A reply without a neighbourhood, or one that repeats a node, teaches
	// nothing — in particular no arc that spans the whole circle.
	m.arcs = nil
	m.learn(chord.Found{Owner: ref(100)})
	m.learn(chord.Found{Owner: ref(100), Near: &chord.Neighbors{Pred: ref(100), Succ: []chord.Ref{ref(100)}}})
	if got, ok := m.resolve(42); ok {
		t.Errorf("degenerate replies resolved a target to %v", got)
	}
}

// visit is one answered (interval, owner) step of a scan.
type visit struct {
	bit   uint
	owner uint64
}

// visitLog is a scan's trace sink, read for its probe events: the
// (bit, owner) set of the scan, and the part of it a probe exchange
// served (Arg 1).
type visitLog struct{ all, wire map[visit]bool }

func newVisitLog() *visitLog { return &visitLog{all: map[visit]bool{}, wire: map[visit]bool{}} }

func (l *visitLog) Event(e obs.Event) {
	if e.Kind != obs.KindProbe {
		return
	}
	l.all[visit{uint(e.Bit), e.Node}] = true
	if e.Arg == 1 {
		l.wire[visit{uint(e.Bit), e.Node}] = true
	}
}

// owners counts the distinct nodes in a visit set.
func owners(set map[visit]bool) int {
	ids := map[uint64]bool{}
	for v := range set {
		ids[v.owner] = true
	}
	return len(ids)
}

// refProber is Algorithm 1's interval probing with nothing remembered:
// every target routed, every distinct owner of an interval asked for that
// one position, one exchange after the other. It gathers what rpcProber
// must gather, at the price rpcProber must undercut.
type refProber struct {
	c      *Client
	visits map[visit]bool
}

func (r *refProber) ProbeInterval(bit uint, lim int, v *core.Visitor) core.IntervalOutcome {
	out := core.IntervalOutcome{Attempted: lim}
	metrics := v.Metrics()
	seen := map[uint64]bool{}
	for i := 0; i < lim; i++ {
		f, err := r.c.peers.route(r.c.cfg.Entry, findSuccMsg{key: r.c.randomTarget(bit)}, nil)
		if err != nil {
			out.Failed++
			continue
		}
		if seen[f.Owner.ID] {
			continue
		}
		seen[f.Owner.ID] = true
		resp, err := r.c.probe(f.Owner.Addr, wire.ProbeReq{Bit: uint8(bit), NumVecs: uint16(r.c.geom.M), Metrics: metrics})
		if err != nil {
			out.Failed++
			continue
		}
		out.Visited++
		r.visits[visit{bit, f.Owner.ID}] = true
		v.Visit(f.Owner.ID, 1, &maskReply{metrics: metrics, masks: resp.VecMasks})
	}
	return out
}

// loadRing inserts items from..from+n-1 of the tests' item sequence under
// metric 5 through a client of its own: a store teaches the client that
// sends it the ring, and the counting clients under test are to meet the
// ring, or a change to it, in their scans.
func loadRing(t *testing.T, entry string, kind sketch.Kind, from, n int) {
	t.Helper()
	c, err := NewClient(ClientConfig{
		Entry: entry, K: 16, M: 64, Kind: kind, Seed: 10,
		DialTimeout: time.Second, RPCTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	defer c.Close()
	for i := from; i < from+n; i++ {
		if err := c.Insert(5, uint64(i)*0x9e3779b97f4a7c15+1); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
}

// twinClients builds two instrumented clients of one seed at the repo
// benchmark's geometry, their target streams in step, draw for draw, over
// a ring holding 600 items under metric 5 that neither of them has seen.
func twinClients(t *testing.T, entry string, kind sketch.Kind, lim int) (clients [2]*Client, regs [2]*metrics.Registry) {
	t.Helper()
	for i := range clients {
		regs[i] = metrics.New()
		c, err := NewClient(ClientConfig{
			Entry: entry, K: 16, M: 64, Kind: kind, Lim: lim, Seed: 9,
			DialTimeout: time.Second, RPCTimeout: 5 * time.Second, Metrics: regs[i],
		})
		if err != nil {
			t.Fatalf("NewClient: %v", err)
		}
		t.Cleanup(c.Close)
		clients[i] = c
	}
	loadRing(t, entry, kind, 0, 600)
	return clients, regs
}

// zeroMasks answers a probe request as a node with an empty store does:
// all-zero masks, in the shape the request asks for.
func zeroMasks(t *testing.T, req []byte) []byte {
	q, err := wire.DecodeProbeReq(req)
	if err != nil {
		t.Errorf("DecodeProbeReq(%x): %v", req, err)
	}
	masks := make([][]byte, (int(q.Span)+1)*len(q.Metrics))
	for i := range masks {
		masks[i] = make([]byte, wire.MaskBytes(int(q.NumVecs)))
	}
	raw, err := wire.EncodeProbeResp(wire.ProbeResp{Bit: q.Bit, Span: q.Span, NumVecs: q.NumVecs, VecMasks: masks})
	if err != nil {
		t.Errorf("EncodeProbeResp: %v", err)
	}
	return raw
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
// seed — one scanning with refProber, which remembers nothing — draw the
// same targets, visit the same (bit, owner) set and return the identical
// CountResult; the one with the map routes at most once per scanned
// interval, where routing every target costs Lim times that, and —
// knowing the arcs — asks each owner for a run of positions, where the one
// without asks for one position at every visit.
func TestScanSegmentMapEquivalence(t *testing.T) {
	for _, kind := range []sketch.Kind{sketch.KindSuperLogLog, sketch.KindPCSA} {
		t.Run(kind.String(), func(t *testing.T) {
			env := sim.NewEnv(21)
			cl := newTestCluster(t, env, 8)
			settleCluster(t, cl, env)

			const lim = 5
			clients, regs := twinClients(t, cl.Servers()[0].Addr(), kind, lim)
			ref := &refProber{c: clients[1], visits: map[visit]bool{}}
			probers := [2]core.Prober{&rpcProber{c: clients[0]}, ref}

			var results [2]CountResult
			var lookups, probes [2]uint64
			for i, c := range clients {
				l0, p0 := outRPCs(regs[i], "find_succ"), outRPCs(regs[i], "probe")
				results[i] = c.count(probers[i], 5, nil)
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
			if probes[0] == 0 || probes[0] >= probes[1] || probes[1] < intervals {
				t.Errorf("probes per Count: %d with the map, %d without, over %d intervals", probes[0], probes[1], intervals)
			}
			byMap := regs[0].Counter("netdht_scan_targets_total", "", metrics.L("resolved", "map")).Value()
			byLookup := regs[0].Counter("netdht_scan_targets_total", "", metrics.L("resolved", "lookup")).Value()
			if byLookup != lookups[0] || byMap+byLookup != intervals*lim {
				t.Errorf("scan_targets_total map=%d lookup=%d, want lookup=%d and %d in all", byMap, byLookup, lookups[0], intervals*lim)
			}

			// A second scan, recorded visit by visit.
			log := newVisitLog()
			clear(ref.visits)
			res := clients[0].count(&rpcProber{c: clients[0]}, 5, log)
			if want := clients[1].count(ref, 5, nil); res != want || len(log.all) == 0 {
				t.Errorf("recorded scans differ or visited nothing: %+v vs %+v", res, want)
			}
			if !reflect.DeepEqual(log.all, ref.visits) {
				t.Errorf("(bit, owner) sets differ:\n with map %v\n without  %v", log.all, ref.visits)
			}
		})
	}
}

// TestScanOneProbePerOwner: what the scan remembers changes its price,
// not its evidence. Against refProber from the same seed, rpcProber
// returns the identical estimate from the identical (bit, owner) visits —
// and pays one probe exchange per distinct owner where the reference
// pays one per visit. The one exception is the node owning both ends of
// the identifier circle: no run of adjacent positions joins them, so a
// scan that meets it at both asks it twice.
func TestScanOneProbePerOwner(t *testing.T) {
	for _, kind := range []sketch.Kind{sketch.KindSuperLogLog, sketch.KindPCSA} {
		t.Run(kind.String(), func(t *testing.T) {
			env := sim.NewEnv(21)
			cl := newTestCluster(t, env, 8)
			settleCluster(t, cl, env)
			servers := cl.Servers()
			probed := func() (n uint64) {
				for _, s := range servers {
					n += uint64(s.Counters().Snapshot().Probed)
				}
				return n
			}

			const lim = 5
			limFor := func(int) int { return lim }
			clients, regs := twinClients(t, servers[0].Addr(), kind, lim)
			c := clients[0]

			log := newVisitLog()
			p0, s0 := outRPCs(regs[0], "probe"), probed()
			est := c.geom.Scan(&rpcProber{c: c}, []uint64{5}, limFor, core.Trace{Sink: log})[0]
			exchanges, served := outRPCs(regs[0], "probe")-p0, probed()-s0

			ref := &refProber{c: clients[1], visits: map[visit]bool{}}
			p0 = outRPCs(regs[1], "probe")
			want := clients[1].geom.Scan(ref, []uint64{5}, limFor, core.Trace{})[0]
			if !reflect.DeepEqual(est, want) || est.Quality.Degraded || est.Value == 0 {
				t.Errorf("estimates differ:\n remembered %+v\n reference  %+v", est, want)
			}
			if !reflect.DeepEqual(log.all, ref.visits) {
				t.Errorf("(bit, owner) sets differ:\n remembered %v\n reference  %v", log.all, ref.visits)
			}
			if paid := outRPCs(regs[1], "probe") - p0; paid != uint64(len(ref.visits)) {
				t.Errorf("reference scan paid %d probes for %d visits", paid, len(ref.visits))
			}

			// The first node's arc runs from the last node over zero to
			// itself. Visited from above the last node and from below
			// itself, it is the one owner asked twice.
			budget := uint64(owners(log.all))
			first, last := servers[0].ID(), servers[len(servers)-1].ID()
			var above, below bool
			for v := range log.all {
				if lo, size := c.geom.Interval(v.bit); v.owner == first {
					above = above || (lo > first && lo+size-1 > last)
					below = below || lo <= first
				}
			}
			if above && below {
				budget++
			}
			if budget >= uint64(len(log.all)) {
				t.Fatalf("test premise broken: %d visits name %d owners, nothing to remember", len(log.all), budget)
			}
			if exchanges != budget || served != budget || uint64(len(log.wire)) != budget {
				t.Errorf("%d visits of %d owners cost %d probe exchanges (%d served, %d heard), want %d",
					len(log.all), owners(log.all), exchanges, served, len(log.wire), budget)
			}
			byWire := regs[0].Counter("netdht_scan_visits_total", "", metrics.L("served", "wire")).Value()
			byMemo := regs[0].Counter("netdht_scan_visits_total", "", metrics.L("served", "memo")).Value()
			if byWire != budget || byWire+byMemo != uint64(len(log.all)) {
				t.Errorf("scan_visits_total wire=%d memo=%d, want wire=%d and %d in all", byWire, byMemo, budget, len(log.all))
			}
		})
	}
}

// TestScanVisitOrderDeterministic: a scan is one goroutine, so on a ring
// that does not change the order in which it gathers its answers — which
// owner, at which position, from the wire or from memory — follows from
// the client's seed alone. Two clients of one seed report the same
// sequence, scan after scan, on a ring of 32, where one interval in six
// has two owners to ask over the wire.
func TestScanVisitOrderDeterministic(t *testing.T) {
	env := sim.NewEnv(21)
	cl := newTestCluster(t, env, 32)
	settleCluster(t, cl, env)

	const lim = 5
	clients, _ := twinClients(t, cl.Servers()[0].Addr(), sketch.KindSuperLogLog, lim)
	type step struct {
		v       visit
		viaWire bool
	}
	var seqs [2][]step
	for i, c := range clients {
		for scan := 0; scan < 8; scan++ {
			c.geom.Scan(&rpcProber{c: c}, []uint64{5}, func(int) int { return lim }, core.Trace{Sink: sinkFunc(func(e obs.Event) {
				if e.Kind == obs.KindProbe {
					seqs[i] = append(seqs[i], step{visit{uint(e.Bit), e.Node}, e.Arg == 1})
				}
			})})
		}
	}
	if len(seqs[0]) == 0 || !reflect.DeepEqual(seqs[0], seqs[1]) {
		t.Errorf("visit sequences of one seed differ (%d and %d steps):\n %v\n %v", len(seqs[0]), len(seqs[1]), seqs[0], seqs[1])
	}
}

// TestScanOwnerCrashedAfterAnswer: what an owner said outlives it. The
// node that answers the descending scan's first interval holds the next
// several positions too; crashed right after that answer, it still
// serves them from the scan's memory, and the estimate is the healthy
// ring's, not a degraded one.
func TestScanOwnerCrashedAfterAnswer(t *testing.T) {
	env := sim.NewEnv(21)
	cl := newTestCluster(t, env, 8)
	settleCluster(t, cl, env)
	servers := cl.Servers()

	const lim = 5
	limFor := func(int) int { return lim }
	// Enter at the last node: the scan starts at the first one's arc.
	clients, _ := twinClients(t, servers[len(servers)-1].Addr(), sketch.KindSuperLogLog, lim)
	want := clients[1].geom.Scan(&refProber{c: clients[1], visits: map[visit]bool{}}, []uint64{5}, limFor, core.Trace{})[0]

	log := newVisitLog()
	p := &rpcProber{c: clients[0]}
	var crashed uint64
	est := clients[0].geom.Scan(proberFunc(func(bit uint, lim int, v *core.Visitor) core.IntervalOutcome {
		out := p.ProbeInterval(bit, lim, v)
		if crashed == 0 {
			if len(log.all) != 1 {
				t.Fatalf("first interval visited %v, want one owner", log.all)
			}
			for v := range log.all {
				crashed = v.owner
			}
			for _, s := range servers {
				if s.ID() == crashed {
					cl.Crash(s)
				}
			}
		}
		return out
	}), []uint64{5}, limFor, core.Trace{Sink: log})[0]

	if !reflect.DeepEqual(est, want) || est.Quality.Degraded {
		t.Errorf("estimate over a crashed owner's answers:\n got  %+v\n want %+v", est, want)
	}
	visits, exchanges := 0, 0
	for v := range log.all {
		if v.owner == crashed {
			visits++
			if log.wire[v] {
				exchanges++
			}
		}
	}
	if visits < 3 || exchanges != 1 {
		t.Errorf("crashed owner served %d intervals in %d exchanges, want its run of several in the one before it died", visits, exchanges)
	}
}

// proberFunc adapts a function to core.Prober.
type proberFunc func(bit uint, lim int, v *core.Visitor) core.IntervalOutcome

func (f proberFunc) ProbeInterval(bit uint, lim int, v *core.Visitor) core.IntervalOutcome {
	return f(bit, lim, v)
}

// TestScanStaleMapEntry: a lookup reply names a successor that is dead
// by the time the scan probes it. The probe fails, the target goes back
// through find_succ, and the books follow the rules a dead owner named
// by a lookup has always followed: a ring that now names a live node
// costs the detour — once: the live node inherits the dead one's arc, so
// the intervals that follow neither probe the dead node nor route again —
// and a ring that still names the dead one costs a failed attempt per
// interval. Either way each re-route is a stale retry, the scan ran in a
// repair window, and the result says so as a simulated pass would:
// degraded.
func TestScanStaleMapEntry(t *testing.T) {
	// Two members: the fake peer at 2⁶², owning bit 2's interval, and a
	// dead node at the top of the circle, owning those of bits 1 and 0.
	const liveID, deadID = 1 << 62, math.MaxUint64
	for name, tc := range map[string]struct {
		repaired bool
		lookups  int32
		want     CountResult
	}{
		// One lookup fills the map; bit 1 resolves both targets to the
		// dead node, probes it once and re-routes once, and bit 0 finds
		// the live node holding the whole circle.
		"ring repaired": {true, 2, CountResult{Quality: core.Quality{
			ProbesAttempted: 6, VectorsUnresolved: 64, StaleRetries: 1, RepairWindow: true, Degraded: true}}},
		// Every re-route teaches the dead node's arc again: bits 1 and 0
		// each probe it once and re-route once.
		"ring still names it": {false, 3, CountResult{Quality: core.Quality{
			ProbesAttempted: 6, ProbesFailed: 2, IntervalsSkipped: 2, VectorsUnresolved: 64,
			StaleRetries: 2, RepairWindow: true, Degraded: true}}},
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
						return encodeFindSuccResp(chord.Found{Owner: live,
							Near: &chord.Neighbors{Pred: dead, Succ: []chord.Ref{dead}}})
					case tc.repaired:
						return encodeFindSuccResp(chord.Found{Owner: live, Near: &chord.Neighbors{}})
					default:
						return encodeFindSuccResp(chord.Found{Owner: dead,
							Near: &chord.Neighbors{Pred: live, Succ: []chord.Ref{live}}})
					}
				case wire.TagProbeReq:
					return zeroMasks(t, req)
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
			if n := lookups.Load(); n != tc.lookups {
				t.Errorf("fake entry served %d lookups, want %d", n, tc.lookups)
			}
		})
	}
}

// TestScanRangedReplyShape: an owner asked for a run of positions that
// answers with another shape — the single position a node predating runs
// sends, a run of another length, masks that do not divide over it — has
// failed that probe: nothing of it is indexed or remembered, and the next
// interval asks again.
func TestScanRangedReplyShape(t *testing.T) {
	masks := func(n, size int) [][]byte {
		out := make([][]byte, n)
		for i := range out {
			out[i] = make([]byte, size)
		}
		return out
	}
	clean := CountResult{Quality: core.Quality{ProbesAttempted: 6, VectorsUnresolved: 64}}
	failed := CountResult{Quality: core.Quality{ProbesAttempted: 6, ProbesFailed: 1, IntervalsSkipped: 1, VectorsUnresolved: 64, Degraded: true}}
	for name, tc := range map[string]struct {
		reply func(q wire.ProbeReq) wire.ProbeResp
		want  CountResult
	}{
		"the run asked for": {
			func(q wire.ProbeReq) wire.ProbeResp {
				return wire.ProbeResp{Bit: q.Bit, Span: q.Span, NumVecs: 64, VecMasks: masks(2, 8)}
			},
			clean,
		},
		"one position": {
			func(q wire.ProbeReq) wire.ProbeResp {
				return wire.ProbeResp{Bit: q.Bit, NumVecs: 64, VecMasks: masks(1, 8)}
			},
			failed,
		},
		"a longer run": {
			func(q wire.ProbeReq) wire.ProbeResp {
				return wire.ProbeResp{Bit: q.Bit, Span: 3, NumVecs: 64, VecMasks: masks(4, 8)}
			},
			failed,
		},
		"masks for two metrics": {
			func(q wire.ProbeReq) wire.ProbeResp {
				return wire.ProbeResp{Bit: q.Bit, Span: q.Span, NumVecs: 64, VecMasks: masks(4, 8)}
			},
			failed,
		},
		"masks of another m": {
			func(q wire.ProbeReq) wire.ProbeResp {
				return wire.ProbeResp{Bit: q.Bit, Span: q.Span, NumVecs: 8, VecMasks: masks(2, 1)}
			},
			failed,
		},
	} {
		t.Run(name, func(t *testing.T) {
			var ranged atomic.Int32
			// One node at 2⁶² whose arc starts at the top of the circle: it
			// holds bit 2's interval and the first identifier of bit 1's,
			// so the scan's first probe asks for both positions.
			entry := fakePeer(t, func(self string, req []byte) []byte {
				if req[1] == tagFindSucc {
					return encodeFindSuccResp(chord.Found{Owner: chord.Ref{ID: 1 << 62, Addr: self},
						Near: &chord.Neighbors{Pred: chord.Ref{ID: math.MaxUint64, Addr: "nobody:1"}}})
				}
				q, err := wire.DecodeProbeReq(req)
				if err != nil {
					t.Errorf("DecodeProbeReq: %v", err)
				}
				if q.Span == 0 {
					return zeroMasks(t, req)
				}
				ranged.Add(1)
				raw, err := wire.EncodeProbeResp(tc.reply(q))
				if err != nil {
					t.Errorf("EncodeProbeResp: %v", err)
				}
				return raw
			})
			// K=8, M=64: the descending scan covers bits 2..0.
			c, err := NewClient(ClientConfig{Entry: entry, K: 8, M: 64, Kind: sketch.KindSuperLogLog, Lim: 2})
			if err != nil {
				t.Fatalf("NewClient: %v", err)
			}
			defer c.Close()
			res, err := c.Count(42)
			if err != nil {
				t.Fatalf("Count: %v", err)
			}
			tc.want.Estimate = res.Estimate
			if res != tc.want || ranged.Load() != 1 {
				t.Errorf("Count = %+v after %d ranged probes, want %+v after 1", res, ranged.Load(), tc.want)
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
	short := encodeFindSuccResp(chord.Found{Hops: 3, Stale: 1, Owner: a})
	if want := 6 + 10 + len(a.Addr); len(short) != want {
		t.Fatalf("unflagged reply is %d bytes, want %d", len(short), want)
	}
	for _, near := range []*chord.Neighbors{
		{Pred: b, Succ: []chord.Ref{c, b}},
		{Succ: []chord.Ref{c}},
		{Pred: b},
		{}, // a ring of one still answers a flagged request with a neighbourhood
	} {
		m := chord.Found{Hops: 3, Stale: 1, Owner: a, Near: near}
		got, err := decodeFindSuccResp(encodeFindSuccResp(m), nil)
		if err != nil || !reflect.DeepEqual(got, m) {
			t.Errorf("round trip of %+v: %+v, %v", near, got, err)
		}
	}

	full := encodeFindSuccResp(chord.Found{Owner: a, Near: &chord.Neighbors{Pred: b, Succ: []chord.Ref{c}}})
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
		if m, err := decodeFindSuccResp(frame, nil); err == nil {
			t.Errorf("%s: accepted as %+v", name, m)
		} else if !errors.Is(err, wire.ErrShort) && !errors.Is(err, wire.ErrBadMessage) {
			t.Errorf("%s: error %v is not a wire decode error", name, err)
		}
	}
}

// TestNilPoolMetricsScanTargets: the scan's per-interval hooks, and the
// store's, cost no allocation with metrics off — instruments built from a
// nil registry, each one a nil receiver — like every other pool hook.
func TestNilPoolMetricsScanTargets(t *testing.T) {
	m := newPoolMetrics(nil)
	if n := testing.AllocsPerRun(100, func() {
		m.scanTargets(3, 2)
		m.scanVisits(1, 4)
		m.storeFirstHop(true)
	}); n != 0 {
		t.Errorf("scan hooks with metrics off allocated %.1f/op, want 0", n)
	}
}
