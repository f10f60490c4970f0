package netdht

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"dhsketch/internal/chord"
	"dhsketch/internal/core"
	"dhsketch/internal/dht"
	"dhsketch/internal/md4"
	"dhsketch/internal/metrics"
	"dhsketch/internal/sim"
	"dhsketch/internal/sketch"
	"dhsketch/internal/wire"
)

// Tests for the ring view a Client keeps from one counting scan to the
// next: that a warm scan is the cold scan minus its lookups, and that a
// join, a leave and a node that cannot name its predecessor are each seen
// by the first scan that touches them.

// TestViewConfirm: an owner's own word replaces what the view remembered
// of it. A shorter arc leaves a hole for the newcomer, a longer one evicts
// the nodes it swallowed — across the identifier wrap too — and an owner
// that cannot say where its arc starts keeps none.
func TestViewConfirm(t *testing.T) {
	ref := func(id uint64) chord.Ref { return chord.Ref{ID: id, Addr: fmt.Sprint("n", id)} }
	var v ringView
	ring := chord.Found{Owner: ref(100), Near: &chord.Neighbors{
		Pred: ref(900), Succ: []chord.Ref{ref(300), ref(500), ref(900)}}}
	v.learn(ring)
	owners := func() (ids []uint64) {
		for _, s := range v.arcs {
			ids = append(ids, s.owner.ID)
		}
		return ids
	}

	// 200 joined in front of 300: 300 still holds 250, no longer 150, and
	// nothing is known of 150 until a lookup says.
	if !v.confirm(ref(300), 200, true, 250) || v.confirm(ref(300), 200, true, 150) {
		t.Error("arc (200, 300] holds 250 and not 150")
	}
	if got, covered := v.resolve(150); covered {
		t.Errorf("resolve(150) = %+v after 300's arc shrank, want a hole", got)
	}
	// 300 left: 500's arc grows back to 100 and swallows it.
	if !v.confirm(ref(500), 100, true, 150) {
		t.Error("arc (100, 500] does not hold 150")
	}
	if got := owners(); !reflect.DeepEqual(got, []uint64{100, 500, 900}) {
		t.Errorf("owners after 500 swallowed 300: %v", got)
	}
	// 900 left: 100's arc now starts at 500, through zero.
	if !v.confirm(ref(100), 500, true, 950) {
		t.Error("arc (500, 100] does not hold 950")
	}
	if got := owners(); !reflect.DeepEqual(got, []uint64{100, 500}) {
		t.Errorf("owners after 100 swallowed 900: %v", got)
	}
	// An owner that does not know, or names itself, keeps no arc.
	if v.confirm(ref(500), 0, false, 400) || v.confirm(ref(100), 100, true, 50) || len(v.arcs) != 0 {
		t.Errorf("unknown arcs were kept: %+v", v.arcs)
	}
	// A lookup's word weighs the same: 300 left, and a reply that spells out
	// (100, 500] leaves no 300 for 150 to resolve to.
	v.learn(ring)
	v.learn(chord.Found{Owner: ref(500), Near: &chord.Neighbors{Pred: ref(100), Succ: []chord.Ref{ref(900)}}})
	if got := owners(); !reflect.DeepEqual(got, []uint64{100, 500, 900}) {
		t.Errorf("owners after a lookup said (100, 500]: %v", got)
	}
	if got, covered := v.resolve(150); !covered || got.owner.ID != 500 {
		t.Errorf("resolve(150) = %+v, %v, want 500's arc", got, covered)
	}
}

// scanLog runs one counting scan of metric 5 through c, recorded visit by
// visit, and reports what it cost in lookups, probes and failed exchanges.
func scanLog(c *Client, reg *metrics.Registry) (res CountResult, log *visitLog, lookups, probes, failed uint64) {
	errs := func() uint64 {
		return reg.Counter("netdht_out_rpc_errors_total", "", metrics.L("tag", "probe")).Value()
	}
	l0, p0, e0 := outRPCs(reg, "find_succ"), outRPCs(reg, "probe"), errs()
	log = newVisitLog()
	res = c.count(&rpcProber{c: c}, 5, log)
	return res, log, outRPCs(reg, "find_succ") - l0, outRPCs(reg, "probe") - p0, errs() - e0
}

// TestViewCarriesAcrossScans: the second Count of a client costs no
// lookup at all, and is otherwise the scan a client that has never seen
// the ring makes from the same seed: the same (bit, owner) visits, served
// by the same probe exchanges, the identical CountResult.
func TestViewCarriesAcrossScans(t *testing.T) {
	for _, kind := range []sketch.Kind{sketch.KindSuperLogLog, sketch.KindPCSA} {
		t.Run(kind.String(), func(t *testing.T) {
			env := sim.NewEnv(21)
			cl := newTestCluster(t, env, 8)
			settleCluster(t, cl, env)
			clients, regs := twinClients(t, cl.Servers()[0].Addr(), kind, 5)

			for i, c := range clients {
				if _, _, lookups, _, _ := scanLog(c, regs[i]); lookups == 0 {
					t.Fatalf("client %d: first scan of a ring it has never seen made no lookup", i)
				}
			}
			arcs := len(clients[0].View())
			var expo strings.Builder
			regs[0].WritePrometheus(&expo)
			if want := fmt.Sprintf("\nnetdht_view_arcs %d\n", arcs); arcs == 0 || !strings.Contains(expo.String(), want) {
				t.Errorf("view holds %d arcs; /metrics lacks %q", arcs, want)
			}
			clients[1].view.arcs = nil // the cold twin forgets

			warm, warmLog, warmLookups, warmProbes, _ := scanLog(clients[0], regs[0])
			cold, coldLog, coldLookups, coldProbes, _ := scanLog(clients[1], regs[1])
			if warmLookups != 0 || coldLookups == 0 {
				t.Errorf("lookups: warm %d, cold %d; want none and some", warmLookups, coldLookups)
			}
			if warm != cold || warm.Degraded || warm.Estimate == 0 {
				t.Errorf("CountResult differs:\n warm %+v\n cold %+v", warm, cold)
			}
			if !reflect.DeepEqual(warmLog.all, coldLog.all) || len(warmLog.all) == 0 {
				t.Errorf("(bit, owner) sets differ:\n warm %v\n cold %v", warmLog.all, coldLog.all)
			}
			if !reflect.DeepEqual(warmLog.wire, coldLog.wire) || warmProbes != coldProbes {
				t.Errorf("probe exchanges differ: warm %d %v, cold %d %v", warmProbes, warmLog.wire, coldProbes, coldLog.wire)
			}
			if got := len(clients[0].View()); got != arcs {
				t.Errorf("a warm scan of a quiet ring changed the view from %d arcs to %d", arcs, got)
			}
		})
	}
}

// nameBetween finds a node name whose identifier lies in [lo, hi).
func nameBetween(lo, hi uint64) string {
	for i := 0; ; i++ {
		name := fmt.Sprint("joiner-", i)
		if id := md4.Sum64([]byte(name)); id >= lo && id < hi {
			return name
		}
	}
}

// sweepRounds runs the protocol's rounds over the cluster by hand, enough of
// them to settle a join or a crash, without advancing the virtual clock the
// handlers read under concurrent callers.
func sweepRounds(cl *Cluster) {
	for i := 0; i < 6; i++ {
		for _, round := range []chord.RoundSet{chord.RoundCheckPred, chord.RoundStabilize, chord.RoundFixFingers} {
			sweepServers(cl.Servers(), round)
		}
	}
}

// TestViewSeesJoin: a node joins in front of an owner a warm client
// remembers, and takes over the top of the scan's range. The first scan
// after the ring has settled hears of it from the old owner's probe reply,
// finds it with one lookup, visits it, and counts what a client that has
// never seen the ring counts — flagged, as a simulated pass that met stale
// routing state is, for the re-route it paid.
func TestViewSeesJoin(t *testing.T) {
	env := sim.NewEnv(21)
	cl := newTestCluster(t, env, 8)
	settleCluster(t, cl, env)
	clients, regs := twinClients(t, cl.Servers()[0].Addr(), sketch.KindSuperLogLog, 5)
	for i, c := range clients {
		scanLog(c, regs[i])
	}

	// The descending scan starts in the first server's arc, which runs over
	// zero. A joiner between 2⁵⁶ and 2⁵⁸, below the first server, takes every
	// interval from bit 8 up whole.
	first := cl.Servers()[0]
	if first.ID() < 1<<58 {
		t.Fatalf("test premise broken: first server %016x leaves no room below it", first.ID())
	}
	if arc, known := clients[0].view.arc(first.ID()); !known || !arc.covers(1<<56) {
		t.Fatalf("test premise broken: warm view holds %+v (%v) of the first server", arc, known)
	}
	joiner, err := cl.Join(nameBetween(1<<56, 1<<58))
	if err != nil {
		t.Fatalf("Join: %v", err)
	}
	settleCluster(t, cl, env)
	if pred := first.Protocol().Neighbors().Pred; pred.ID != joiner.ID() {
		t.Fatalf("settled ring: first server's predecessor is %v, want the joiner", pred)
	}
	loadRing(t, cl.Servers()[0].Addr(), sketch.KindSuperLogLog, 600, 4000)
	if joiner.Status().StoreTuples == 0 {
		t.Fatal("test premise broken: no tuple landed on the joiner")
	}
	clients[1].view.arcs = nil

	warm, warmLog, lookups, _, failed := scanLog(clients[0], regs[0])
	cold, coldLog, _, _, _ := scanLog(clients[1], regs[1])
	visited := false
	for v := range warmLog.all {
		visited = visited || v.owner == joiner.ID()
	}
	if !visited {
		t.Errorf("the first scan after the join did not visit the joiner: %v", warmLog.all)
	}
	if lookups == 0 || lookups > 2 || failed != 0 {
		t.Errorf("finding the joiner cost %d lookups and %d failed exchanges, want 1..2 and none", lookups, failed)
	}
	// The warm scan counts what the cold one counts, and its books add the
	// one re-route that found the joiner: a stale retry in a repair window.
	wantWarm := cold
	wantWarm.StaleRetries, wantWarm.RepairWindow, wantWarm.Degraded = 1, true, true
	if warm != wantWarm || cold.Degraded || !reflect.DeepEqual(warmLog.all, coldLog.all) {
		t.Errorf("warm and cold scans differ after the join:\n warm %+v %v\n cold %+v %v", warm, warmLog.all, cold, coldLog.all)
	}
	if arc, _ := clients[0].view.arc(first.ID()); arc.lo != joiner.ID() {
		t.Errorf("first server's arc starts at %016x, want the joiner %016x", arc.lo, joiner.ID())
	}
	if _, _, lookups, _, _ := scanLog(clients[0], regs[0]); lookups != 0 {
		t.Errorf("the scan after made %d lookups, want none", lookups)
	}
}

// TestViewSeesLeave: the owner of the scan's first interval crashes. The
// first scan after the ring has settled probes it once, in vain, asks the
// ring once, and loses no evidence, though its books show the re-route as
// a stale retry; the scan after that pays for neither and is clean,
// the dead node is gone from the view and its successor's arc reaches back
// to its predecessor.
func TestViewSeesLeave(t *testing.T) {
	env := sim.NewEnv(21)
	cl := newTestCluster(t, env, 8)
	settleCluster(t, cl, env)
	servers := cl.Servers()
	// Enter at the last server: the first one is the one to go.
	c, reg := storeClient(t, servers[len(servers)-1].Addr(), 9)
	for i := 0; i < 600; i++ {
		if err := c.Insert(5, uint64(i)*0x9e3779b97f4a7c15+1); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	for i := 0; i < 3; i++ {
		scanLog(c, reg)
	}
	dead, succ, pred := servers[0], servers[1], servers[len(servers)-1]
	if arc, known := c.view.arc(succ.ID()); !known || arc.lo != dead.ID() {
		t.Fatalf("test premise broken: warm view holds %+v (%v) of the successor", arc, known)
	}
	if lo, size := c.geom.Interval(c.geom.MaxBit()); dead.ID() < lo+size {
		t.Fatalf("test premise broken: first server %016x does not hold the top interval", dead.ID())
	}

	cl.Crash(dead)
	settleCluster(t, cl, env)

	res, log, lookups, _, failed := scanLog(c, reg)
	if failed != 1 || lookups != 1 {
		t.Errorf("first scan after the crash: %d failed exchanges and %d lookups, want 1 and 1", failed, lookups)
	}
	// The detour costs no failed probe, and the books say it happened, as
	// a simulated pass past a dead finger says so: one stale retry, a
	// corrected arc, degraded.
	if res.ProbesFailed != 0 || res.StaleRetries != 1 || !res.RepairWindow || !res.Degraded {
		t.Errorf("first scan after the crash is %+v, want no failed probe and one stale retry", res)
	}
	for v := range log.all {
		if v.owner == dead.ID() {
			t.Errorf("visited the dead node at bit %d", v.bit)
		}
	}
	if _, known := c.view.arc(dead.ID()); known {
		t.Error("the dead node is still in the view")
	}
	if arc, known := c.view.arc(succ.ID()); !known || arc.lo != pred.ID() {
		t.Errorf("successor's arc is %+v (%v), want it to start at %016x", arc, known, pred.ID())
	}
	if again, _, lookups, _, failed := scanLog(c, reg); lookups != 0 || failed != 0 || again.Degraded {
		t.Errorf("the scan after: %d lookups, %d failed exchanges, %+v; want none", lookups, failed, again)
	}
}

// TestViewUnknownPredecessor: a node that cannot name its predecessor
// answers for an arc it cannot vouch for. The view drops the arc, the
// target goes through the ring, and as long as the node does not know,
// every target does — as for a client that never held the arc. Once it
// knows again, one lookup brings the arc back. The scan that loses the arc
// pays a re-route, a stale retry that degrades it by core's one rule. A
// predecessor that leaves moves the arc's start without leaving a target
// to another node: the scan that hears of it has corrected the view, a
// repair window, and re-routed nothing, so it is not degraded.
func TestViewUnknownPredecessor(t *testing.T) {
	var knows atomic.Bool
	var predID atomic.Uint64
	// One node at the top of the circle, holding all three intervals behind
	// either predecessor.
	entry := fakePeer(t, func(self string, req []byte) []byte {
		pred := chord.Ref{ID: predID.Load(), Addr: "nobody:1"}
		switch req[1] {
		case tagFindSucc:
			near := &chord.Neighbors{}
			if knows.Load() {
				near.Pred = pred
			}
			return encodeFindSuccResp(chord.Found{Owner: chord.Ref{ID: math.MaxUint64, Addr: self}, Near: near})
		case wire.TagProbeReq:
			resp, err := wire.DecodeProbeResp(zeroMasks(t, req))
			if err != nil {
				t.Errorf("DecodeProbeResp: %v", err)
			}
			resp.HasArc, resp.ArcLo = knows.Load(), pred.ID
			raw, err := wire.EncodeProbeResp(resp)
			if err != nil {
				t.Errorf("EncodeProbeResp: %v", err)
			}
			return raw
		}
		return encodeErr(dht.ClassOther, 0, 0)
	})
	// K=8, M=64: the descending scan covers bits 2..0, two targets each.
	reg := metrics.New()
	c, err := NewClient(ClientConfig{Entry: entry, K: 8, M: 64, Kind: sketch.KindSuperLogLog, Lim: 2, Metrics: reg})
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	defer c.Close()

	for _, step := range []struct {
		knows           bool
		pred            uint64
		lookups, probes uint64
		arcs            int
		stale           int  // re-routes of a remembered arc that did not stand
		repair          bool // the scan corrected an arc
	}{
		{true, 1 << 60, 1, 1, 1, 0, false},  // cold: one lookup, one probe for the whole run
		{true, 1 << 60, 0, 1, 1, 0, false},  // warm
		{false, 1 << 60, 6, 1, 0, 1, true},  // the reply, to a probe for the whole run, disowns the arc: every target routed
		{false, 1 << 60, 6, 3, 0, 0, false}, // and with no arc to go by, every interval asked for alone
		{true, 1 << 60, 1, 1, 1, 0, false},  // and back
		{true, 1 << 60, 0, 1, 1, 0, false},
		{true, 1 << 59, 0, 1, 1, 0, true},  // the predecessor leaves: the first reply grows the arc
		{true, 1 << 59, 0, 1, 1, 0, false}, // and the scan after finds it as the owner said
	} {
		knows.Store(step.knows)
		predID.Store(step.pred)
		res, _, lookups, probes, _ := scanLog(c, reg)
		if lookups != step.lookups || probes != step.probes || len(c.View()) != step.arcs {
			t.Errorf("predecessor known %v: %d lookups, %d probes, %d arcs; want %d, %d, %d",
				step.knows, lookups, probes, len(c.View()), step.lookups, step.probes, step.arcs)
		}
		want := core.Quality{ProbesAttempted: 6, VectorsUnresolved: 64,
			StaleRetries: step.stale, RepairWindow: step.repair, Degraded: step.stale > 0}
		if res.Quality != want {
			t.Errorf("predecessor %016x known %v: %+v, want %+v", step.pred, step.knows, res.Quality, want)
		}
	}
}

// TestViewConcurrentChurn: eight goroutines count through one client while
// nodes join and crash in the upper half of the circle and a writer keeps
// the tuples refreshed. Every scan returns, the detector stays quiet, and
// every estimate is inside the sanity envelope or says it is degraded.
func TestViewConcurrentChurn(t *testing.T) {
	env := sim.NewEnv(21)
	cl := newTestCluster(t, env, 8)
	settleCluster(t, cl, env)
	entry := cl.Servers()[0]
	writer, _ := storeClient(t, entry.Addr(), 3)
	const items = 800
	refresh := func() {
		for i := 0; i < items; i++ {
			// A store routed at a node that has just died fails; the next
			// refresh makes up for it.
			writer.Insert(5, uint64(i)*0x9e3779b97f4a7c15+1)
		}
	}
	refresh()
	c, _ := storeClient(t, entry.Addr(), 9)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var scans atomic.Int64
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := c.Count(5)
				if err != nil {
					t.Errorf("Count: %v", err)
					return
				}
				scans.Add(1)
				// The envelope of TestConcurrentCountSharedClient above, and
				// below a floor: a crash takes a share of the two lowest
				// positions' tuples with it until the writer comes round.
				if re := res.Estimate/items - 1; !res.Degraded && (re > 1.5 || re < -0.75) {
					t.Errorf("estimate %.0f (true %d) outside the envelope and not degraded: %+v", res.Estimate, items, res)
				}
			}
		}()
	}
	for round := 0; round < 3; round++ {
		if _, err := cl.Join(fmt.Sprint("churn-", round)); err != nil {
			t.Errorf("Join: %v", err)
		}
		sweepRounds(cl)
		refresh()
		// Crash the last server: its arc is a share of bit 0's interval.
		servers := cl.Servers()
		if last := servers[len(servers)-1]; last != entry {
			cl.Crash(last)
		}
		sweepRounds(cl)
		refresh()
	}
	close(stop)
	wg.Wait()
	if scans.Load() < 8 {
		t.Errorf("only %d scans ran beside the churn", scans.Load())
	}
}

// TestRestartOnNewAddress: a node restarted on another port under the same
// name keeps its identifier and changes its address. Its predecessor hears
// of the new address while its fingers still hold the old one, and adopts the
// new one as its successor, then in its fingers. Once the ring has settled,
// every successor list, finger and predecessor that names the identifier
// names the new address, and none the old one; a client whose view
// remembered the old address loses one store's first hop to it and learns
// the new one from the ack that comes back through the entry.
func TestRestartOnNewAddress(t *testing.T) {
	env := sim.NewEnv(21)
	cl := newTestCluster(t, env, 8)
	settleCluster(t, cl, env)
	entry := cl.Servers()[0]
	c, reg := warmStoreClient(t, cl, entry.Addr(), 3)
	pred, old, succ := cl.Servers()[3], cl.Servers()[4], cl.Servers()[5]
	if arc, known := c.view.arc(old.ID()); !known || arc.owner.Addr != old.Addr() {
		t.Fatalf("test premise broken: the warm view holds %+v (%v) of the node to restart", arc, known)
	}

	cl.Crash(old)
	restarted, err := NewServer("127.0.0.1:0", Options{
		Name: old.Name(), Protocol: cl.Config(), Now: env.Clock.Now,
	})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	t.Cleanup(restarted.Close)
	if restarted.ID() != old.ID() || restarted.Addr() == old.Addr() {
		t.Fatalf("restart gave %016x at %s, want %016x at another address than %s", restarted.ID(), restarted.Addr(), old.ID(), old.Addr())
	}
	if err := restarted.Join(entry.Addr()); err != nil {
		t.Fatalf("Join: %v", err)
	}
	cl.Admit(restarted)
	held := func(s *Server, addr string) (n int) {
		_, _, fingers := s.Protocol().State()
		for _, f := range fingers {
			if f.ID == old.ID() && f.Addr == addr {
				n++
			}
		}
		return n
	}
	if held(pred, old.Addr()) == 0 {
		t.Fatal("test premise broken: the predecessor's fingers do not name the old address")
	}
	succ.round(chord.RoundCheckPred)      // clears the old address
	restarted.round(chord.RoundStabilize) // notifies succ, which adopts the new one
	pred.round(chord.RoundStabilize)      // hears of it from succ
	if head, _ := pred.Protocol().Successor(); head.ID != old.ID() || head.Addr != restarted.Addr() {
		t.Errorf("the predecessor's successor is %016x at %s, want %016x at %s", head.ID, head.Addr, old.ID(), restarted.Addr())
	}
	for i := 0; i < 4; i++ {
		pred.round(chord.RoundFixFingers)
	}
	if held(pred, old.Addr()) != 0 || held(pred, restarted.Addr()) == 0 {
		t.Errorf("after a finger cycle the predecessor's fingers name the old address %d times and the new %d",
			held(pred, old.Addr()), held(pred, restarted.Addr()))
	}
	settleCluster(t, cl, env)

	var inSucc, inFingers int
	for _, s := range cl.Servers() {
		pred, succ, fingers := s.Protocol().State()
		for where, refs := range map[string][]chord.Ref{"predecessor": {pred}, "successor list": succ, "fingers": fingers[:]} {
			for _, r := range refs {
				if r.Addr == old.Addr() || r.ID == old.ID() && r.Addr != restarted.Addr() {
					t.Errorf("%s's %s names %016x at %s, want %s", s.Addr(), where, r.ID, r.Addr, restarted.Addr())
				}
				if r.ID == old.ID() && where == "successor list" {
					inSucc++
				}
				if r.ID == old.ID() && where == "fingers" {
					inFingers++
				}
			}
		}
	}
	if inSucc == 0 || inFingers == 0 {
		t.Errorf("the restarted node is in %d successor lists and %d finger slots, want some of each", inSucc, inFingers)
	}

	tuple := wire.Insert{Metric: 5, Vector: 7, Bit: 1}
	_, byView, err := storeTracked(c, reg, old.ID(), tuple)
	if err != nil || !byView {
		t.Fatalf("store at the restarted node's identifier: %v (first hop by the view: %v)", err, byView)
	}
	if on := onOracleOwner(t, cl, old.ID(), tuple); on != restarted {
		t.Errorf("the tuple is on %s, want the restarted node", on.Addr())
	}
	if arc, known := c.view.arc(old.ID()); !known || arc.owner.Addr != restarted.Addr() {
		t.Errorf("the view holds %+v (%v) of the restarted node, want it at %s", arc, known, restarted.Addr())
	}
}
