package netdht

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dhsketch/internal/chord"
	"dhsketch/internal/dht"
	"dhsketch/internal/metrics"
	"dhsketch/internal/sim"
	"dhsketch/internal/sketch"
	"dhsketch/internal/store"
	"dhsketch/internal/wire"
)

// Tests for the routed store: an insert is one exchange at the client,
// the tuple lands where the ring's route for its target ends — whoever the
// client's view of the ring had it send the store to first — and a route
// that does not end in a store is never read as one.

// storeClient builds a seeded, instrumented client at the repo
// benchmark's geometry, entering the ring at entry, with a 2 s exchange
// and a 1 ms backoff.
func storeClient(t testing.TB, entry string, seed uint64) (*Client, *metrics.Registry) {
	t.Helper()
	shrinkBound(t, &defaultRPCTimeout, 2*time.Second)
	shrinkBound(t, &defaultBackoff, time.Millisecond)
	reg := metrics.New()
	c, err := NewClient(ClientConfig{
		Entry: entry, K: 16, M: 64, Kind: sketch.KindSuperLogLog, Lim: 5, Seed: seed, Metrics: reg,
	})
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	t.Cleanup(c.Close)
	return c, reg
}

// routedTotal sums the Routed counters of a cluster's live servers.
func routedTotal(servers []*Server) (n int64) {
	for _, s := range servers {
		n += s.Counters().Snapshot().Routed
	}
	return n
}

// tupleAt reports whether s holds the tuple an insert frame stores.
func tupleAt(s *Server, m wire.Insert) bool {
	st, ok := s.App().(*store.Store)
	return ok && st.Has(store.Key{Metric: uint64(wire.FoldMetric(m.Metric)), Vector: int32(m.Vector), Bit: m.Bit}, s.nowFn())
}

// firstHops reads a client registry's store counters: stores sent first to
// an owner the view remembered, and stores sent to the entry.
func firstHops(reg *metrics.Registry) (view, entry uint64) {
	return reg.Counter("netdht_store_first_hop_total", "", metrics.L("via", "view")).Value(),
		reg.Counter("netdht_store_first_hop_total", "", metrics.L("via", "entry")).Value()
}

// storeTracked sends one tuple through c as a routed store for target and
// reports whether the view chose its first hop.
func storeTracked(c *Client, reg *metrics.Registry, target uint64, tuple wire.Insert) (ack chord.Found, byView bool, err error) {
	before, _ := firstHops(reg)
	ack, err = c.store(target, wire.EncodeInsert(tuple))
	after, _ := firstHops(reg)
	return ack, after != before, err
}

// insertErrors reads a client registry's failed insert exchanges and its
// backoff retries.
func insertErrors(reg *metrics.Registry) (failed, retries uint64) {
	return reg.Counter("netdht_out_rpc_errors_total", "", metrics.L("tag", "insert")).Value(),
		reg.Counter("netdht_retries_total", "").Value()
}

// onOracleOwner fails the test unless the tuple of an acknowledged store for
// target sits on the node the membership oracle names for target.
func onOracleOwner(t *testing.T, cl *Cluster, target uint64, tuple wire.Insert) *Server {
	t.Helper()
	owner, err := cl.Owner(target)
	if err != nil {
		t.Fatalf("Owner(%016x): %v", target, err)
	}
	if !tupleAt(owner.(*Server), tuple) {
		t.Fatalf("target %016x: tuple %+v is not on owner %016x", target, tuple, owner.ID())
	}
	return owner.(*Server)
}

// warmStoreClient builds a storeClient and has it insert until its view
// holds an arc for every server of the cluster.
func warmStoreClient(t *testing.T, cl *Cluster, entry string, seed uint64) (*Client, *metrics.Registry) {
	t.Helper()
	c, reg := storeClient(t, entry, seed)
	for i := 0; len(c.View()) < len(cl.Servers()); i++ {
		if i == 400 {
			t.Fatalf("after %d inserts the view holds %d of %d arcs", i, len(c.View()), len(cl.Servers()))
		}
		if err := c.Insert(1, uint64(i)*0x9e3779b97f4a7c15+1); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	return c, reg
}

// TestInsertPlacementAndBudget: on a converged ring every Insert costs
// the client exactly one exchange, metered as an insert; the tuple sits on
// the node the membership oracle names for the target the client drew —
// and nowhere else. The first few stores of a client go through the entry
// and come back with the neighbourhood of the node that stored them; once
// the view covers a target the store goes straight to its owner, which acks
// no hops and moves no Routed counter. What the cold ones cost is what
// their acks say (the dhttest metering invariant, over the store).
func TestInsertPlacementAndBudget(t *testing.T) {
	const n, seed, metric = 2000, 11, 77
	env := sim.NewEnv(31)
	cl := newTestCluster(t, env, 8)
	settleCluster(t, cl, env)
	servers := cl.Servers()
	c, reg := storeClient(t, servers[0].Addr(), seed)

	type placed struct {
		owner  uint64
		target uint64
		tuple  wire.Insert
	}
	var want []placed
	distinct := map[[2]uint64]bool{} // (owner, vector<<8|bit)
	var cold int
	var coldRouted int64
	for i := 0; i < n; i++ {
		item := uint64(i)*0x9e3779b97f4a7c15 + 1
		routed0 := routedTotal(servers)
		direct0, _ := firstHops(reg)
		if err := c.Insert(metric, item); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		moved := routedTotal(servers) - routed0
		if direct, _ := firstHops(reg); direct == direct0 {
			cold++
			coldRouted += moved
		} else if moved != 0 {
			t.Fatalf("insert %d went straight to its owner and moved Routed by %d", i, moved)
		}
		vector, bit := c.geom.Split(item)
		// The item's target stream, replayed: same seed, same draws.
		target := c.geom.Target(replayInsert(seed, metric, item), bit)
		owner, err := cl.Owner(target)
		if err != nil {
			t.Fatalf("Owner(%016x): %v", target, err)
		}
		want = append(want, placed{owner.ID(), target, wire.Insert{Metric: metric, Vector: uint16(vector), Bit: uint8(bit)}})
		distinct[[2]uint64{owner.ID(), uint64(vector)<<8 | uint64(bit)}] = true
	}
	if cold == 0 || cold > len(servers) || len(c.View()) != len(servers) {
		t.Errorf("%d of %d inserts went through the entry and left %d arcs, want at most one per server and %d arcs",
			cold, n, len(c.View()), len(servers))
	}
	if outExchanges(reg) != n || outRPCs(reg, "insert") != n {
		t.Errorf("%d inserts cost %d client exchanges (%d tagged insert), want %d of each",
			n, outExchanges(reg), outRPCs(reg, "insert"), n)
	}

	var stored int
	var storeOps int64
	for _, s := range servers {
		if st, ok := s.App().(*store.Store); ok {
			stored += st.Len(s.nowFn())
		}
		storeOps += s.Counters().Snapshot().StoreOps
	}
	for i, w := range want {
		owner, _ := cl.ByID(w.owner)
		if !tupleAt(owner, w.tuple) {
			t.Fatalf("insert %d (target %016x): tuple %+v is not on owner %016x", i, w.target, w.tuple, w.owner)
		}
	}
	if stored != len(distinct) {
		t.Errorf("ring holds %d tuples, want the %d distinct (owner, tuple) placements and no other", stored, len(distinct))
	}
	if storeOps != n {
		t.Errorf("store_ops = %d over the ring, want one per insert (%d)", storeOps, n)
	}

	// The same targets again from a second client that starts as cold,
	// reading the acks: the same stores go through the entry, and cost what
	// the first client's did.
	c2, reg2 := storeClient(t, servers[0].Addr(), seed+1)
	var coldHops int64
	for _, w := range want {
		_, warm := c2.view.resolve(w.target)
		routed0 := routedTotal(servers)
		ack, err := c2.store(w.target, wire.EncodeInsert(w.tuple))
		if err != nil {
			t.Fatalf("store at %016x: %v", w.target, err)
		}
		if moved := routedTotal(servers) - routed0; ack.Stale != 0 || int64(ack.Hops) != moved {
			t.Fatalf("store at %016x: ack %+v on a converged ring, Routed moved by %d", w.target, ack, moved)
		}
		if warm != (ack.Near == nil) || warm && ack.Hops != 0 {
			t.Fatalf("store at %016x, view covering it %v: ack %+v; want a bare ack of no hops from a remembered owner, a neighbourhood through the entry",
				w.target, warm, ack)
		}
		if !warm {
			coldHops += int64(ack.Hops)
		}
	}
	if coldHops != coldRouted || coldHops == 0 || outExchanges(reg2) != n {
		t.Errorf("cold acks report %d hops over %d exchanges; Routed moved by %d for the inserts' cold stores over %d",
			coldHops, outExchanges(reg2), coldRouted, n)
	}
}

// TestStoreSeesJoin: a node joins in front of an owner a warm client
// remembers. The store for a key that is now the joiner's still goes to the
// old owner, whose Route sends it on: it lands on the joiner, the ack says
// hops, and the arc is dropped. The next store in that range goes through
// the entry and brings the joiner's neighbourhood back; the one after goes
// straight to the joiner.
func TestStoreSeesJoin(t *testing.T) {
	env := sim.NewEnv(21)
	cl := newTestCluster(t, env, 8)
	settleCluster(t, cl, env)
	first := cl.Servers()[0]
	c, reg := warmStoreClient(t, cl, first.Addr(), 5)

	// The first server's arc runs over zero; a joiner between 2⁵⁶ and 2⁵⁸
	// takes the lower part of it.
	if arc, known := c.view.arc(first.ID()); !known || first.ID() < 1<<58 || !arc.covers(1<<56) {
		t.Fatalf("test premise broken: warm view holds %+v (%v) of the first server %016x", arc, known, first.ID())
	}
	joiner, err := cl.Join(nameBetween(1<<56, 1<<58))
	if err != nil {
		t.Fatalf("Join: %v", err)
	}
	settleCluster(t, cl, env)
	target := joiner.ID()

	for step, want := range []struct{ direct, hops, arcOfFirst bool }{
		{direct: true, hops: true},       // the old owner routes it on; its arc goes
		{arcOfFirst: true},               // through the entry; the joiner's neighbourhood comes back
		{direct: true, arcOfFirst: true}, // straight to the joiner
		{direct: true, arcOfFirst: true}, // and again
	} {
		tuple := wire.Insert{Metric: 6, Vector: uint16(step), Bit: 1}
		routed0 := routedTotal(cl.Servers())
		ack, byView, err := storeTracked(c, reg, target, tuple)
		if err != nil {
			t.Fatalf("step %d: store: %v", step, err)
		}
		moved := routedTotal(cl.Servers()) - routed0
		// A bare ack from the node the view named, a neighbourhood through
		// the entry; hops as metered, and none from a node that owns the key.
		if byView != want.direct || (ack.Near == nil) != want.direct ||
			int64(ack.Hops) != moved || want.direct && (ack.Hops > 0) != want.hops {
			t.Errorf("step %d: first hop by view %v, ack %+v, Routed moved by %d; want %+v", step, byView, ack, moved, want)
		}
		if on := onOracleOwner(t, cl, target, tuple); on != joiner {
			t.Errorf("step %d: the oracle names %016x for the joiner's own identifier", step, on.ID())
		}
		if arc, known := c.view.arc(first.ID()); known != want.arcOfFirst || known && arc.lo != joiner.ID() {
			t.Errorf("step %d: view holds %+v (%v) of the first server, want known=%v from the joiner on", step, arc, known, want.arcOfFirst)
		}
	}
	// The old owner keeps what is still its own, at no hops.
	tuple := wire.Insert{Metric: 6, Vector: 9, Bit: 1}
	if ack, err := c.store(first.ID(), wire.EncodeInsert(tuple)); err != nil || ack.Hops != 0 || ack.Near != nil {
		t.Errorf("store at the first server's identifier: ack %+v, %v", ack, err)
	}
	if on := onOracleOwner(t, cl, first.ID(), tuple); on != first {
		t.Errorf("the oracle names %016x for the first server's own identifier", on.ID())
	}
}

// TestStoreDeadOwner: a remembered owner crashes. The store that finds out
// pays one failed exchange against it — one attempt, no backoff — and
// succeeds through the entry inside the same call; nothing is lost. The
// stores that follow pay nothing for the dead node: they go through the
// entry until its successor names its new predecessor, and from then on
// straight to the successor.
func TestStoreDeadOwner(t *testing.T) {
	env := sim.NewEnv(47)
	cl := newTestCluster(t, env, 8)
	settleCluster(t, cl, env)
	servers := cl.Servers()
	c, reg := warmStoreClient(t, cl, servers[0].Addr(), 5)

	pred, victim, heir := servers[3], servers[4], servers[5]
	target := victim.ID()
	cl.Crash(victim) // the ring still names it

	store := func(step int, wantFailed uint64, wantDirect bool) chord.Found {
		t.Helper()
		tuple := wire.Insert{Metric: 6, Vector: uint16(step), Bit: 2}
		failed0, retries0 := insertErrors(reg)
		x0 := outExchanges(reg)
		start := time.Now()
		ack, byView, err := storeTracked(c, reg, target, tuple)
		if took := time.Since(start); took > defaultRPCTimeout {
			t.Errorf("step %d: store took %v, past the RPC timeout", step, took)
		}
		if err != nil {
			t.Fatalf("step %d: store failed with %v; live successors cover the arc", step, err)
		}
		failed, retries := insertErrors(reg)
		if failed-failed0 != wantFailed || retries != retries0 || outExchanges(reg)-x0 != 1+wantFailed || byView != wantDirect {
			t.Errorf("step %d: %d failed exchanges, %d retries, %d exchanges, first hop by view %v; want %d, 0, %d, %v",
				step, failed-failed0, retries-retries0, outExchanges(reg)-x0, byView, wantFailed, 1+wantFailed, wantDirect)
		}
		if on := onOracleOwner(t, cl, target, tuple); on != heir {
			t.Errorf("step %d: the oracle names %016x, want the victim's successor", step, on.ID())
		}
		return ack
	}

	if ack := store(0, 1, true); ack.Stale == 0 || ack.Near == nil {
		t.Errorf("ack %+v: want the entry's route to have paid for the dead node and the heir's neighbourhood", ack)
	}
	if _, known := c.view.arc(victim.ID()); known {
		t.Error("the dead node is still in the view")
	}
	// The heir still believes the victim precedes it: no arc covers the
	// target, and the store goes through the entry at no failed exchange.
	store(1, 0, false)

	settleCluster(t, cl, env)
	if ack := store(2, 0, false); ack.Near == nil || ack.Near.Pred.ID != pred.ID() {
		t.Errorf("ack %+v of the settled ring does not name the heir's new predecessor %016x", ack, pred.ID())
	}
	if ack := store(3, 0, true); ack.Hops != 0 || ack.Near != nil {
		t.Errorf("ack %+v, want a bare ack of no hops from the heir", ack)
	}
	if arc, known := c.view.arc(heir.ID()); !known || arc.lo != pred.ID() {
		t.Errorf("heir's arc is %+v (%v), want it to start at %016x", arc, known, pred.ID())
	}
}

// TestStoreUnknownPredecessor: an owner that has lost its predecessor cannot
// say which keys are its own. A store sent straight to it is routed on, round
// the ring and back to it; the ack says hops and the arc is dropped. As long
// as it does not know, the neighbourhood it sends teaches no arc for it and
// its stores stay routed; once a stabilize round has told it, one store
// through the entry brings the arc back.
func TestStoreUnknownPredecessor(t *testing.T) {
	env := sim.NewEnv(21)
	cl := newTestCluster(t, env, 8)
	settleCluster(t, cl, env)
	servers := cl.Servers()
	c, reg := warmStoreClient(t, cl, servers[0].Addr(), 5)

	owner := servers[4]
	target := owner.ID() - 1
	_, succ, fingers := owner.Protocol().State()
	owner.Protocol().Seed(chord.Ref{}, succ, fingers)

	for step, want := range []struct{ direct, hops, arc bool }{
		{direct: true, hops: true}, // sent straight, routed on: the arc goes
		{hops: true},               // through the entry: no arc comes back
		{hops: true},
	} {
		tuple := wire.Insert{Metric: 6, Vector: uint16(step), Bit: 3}
		ack, byView, err := storeTracked(c, reg, target, tuple)
		if err != nil {
			t.Fatalf("step %d: store: %v", step, err)
		}
		_, known := c.view.arc(owner.ID())
		if byView != want.direct || (ack.Hops > 0) != want.hops || known != want.arc || want.direct == (ack.Near != nil) {
			t.Errorf("step %d: first hop by view %v, ack %+v, arc known %v; want %+v", step, byView, ack, known, want)
		}
		if ack.Near != nil && ack.Near.Pred.Valid() {
			t.Errorf("step %d: the owner names predecessor %v", step, ack.Near.Pred)
		}
		if on := onOracleOwner(t, cl, target, tuple); on != owner {
			t.Errorf("step %d: the oracle names %016x", step, on.ID())
		}
	}

	sweepServers(cl.Servers(), chord.RoundStabilize)
	if p := owner.Protocol().Neighbors().Pred; p.ID != servers[3].ID() {
		t.Fatalf("after a stabilize round the owner's predecessor is %v", p)
	}
	for step, wantDirect := range []bool{false, true} {
		tuple := wire.Insert{Metric: 6, Vector: uint16(10 + step), Bit: 3}
		ack, byView, err := storeTracked(c, reg, target, tuple)
		if err != nil || byView != wantDirect || wantDirect && ack.Hops != 0 {
			t.Errorf("predecessor known, store %d: first hop by view %v, ack %+v, %v", step, byView, ack, err)
		}
		onOracleOwner(t, cl, target, tuple)
	}
}

// TestStoreConcurrentChurn: four writers and four counters share one client
// while nodes join and crash. Every call returns, the detector stays quiet,
// and every estimate is inside the sanity envelope or says it is degraded.
// When the ring has settled, the client — its view as the churn left it —
// writes a metric of its own: every store is acknowledged, and every tuple
// is on the node the oracle names for its target and nowhere else.
func TestStoreConcurrentChurn(t *testing.T) {
	env := sim.NewEnv(21)
	cl := newTestCluster(t, env, 8)
	settleCluster(t, cl, env)
	entry := cl.Servers()[0]
	c, reg := storeClient(t, entry.Addr(), 3)
	const items = 800
	write := func(from, step int) {
		for i := from; i < items; i += step {
			// A store routed at a node that has just died can fail; the next
			// round makes up for it.
			c.Insert(5, uint64(i)*0x9e3779b97f4a7c15+1)
		}
	}
	write(0, 1)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var scans, rounds atomic.Int64
	for g := 0; g < 4; g++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				write(g, 4)
				rounds.Add(1)
			}
		}()
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
				// TestViewConcurrentChurn's envelope.
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
		servers := cl.Servers()
		if last := servers[len(servers)-1]; last != entry {
			cl.Crash(last)
		}
		sweepRounds(cl)
	}
	close(stop)
	wg.Wait()
	if scans.Load() < 4 || rounds.Load() < 4 {
		t.Errorf("only %d scans and %d rounds of writes ran beside the churn", scans.Load(), rounds.Load())
	}
	settleCluster(t, cl, env)

	direct0, entry0 := firstHops(reg)
	distinct := map[[2]uint64]bool{}
	for i := 0; i < items; i++ {
		vector, bit := c.geom.Split(uint64(i)*0x9e3779b97f4a7c15 + 1)
		tuple := wire.Insert{Metric: 6, Vector: uint16(vector), Bit: uint8(bit)}
		target := c.randomTarget(bit)
		if _, err := c.store(target, wire.EncodeInsert(tuple)); err != nil {
			t.Fatalf("store %d at %016x on the settled ring: %v", i, target, err)
		}
		owner := onOracleOwner(t, cl, target, tuple)
		distinct[[2]uint64{owner.ID(), uint64(vector)<<8 | uint64(bit)}] = true
	}
	stored := 0
	for _, s := range cl.Servers() {
		if st, ok := s.App().(*store.Store); ok {
			for _, k := range st.Keys(s.nowFn()) {
				if k.Metric == 6 {
					stored++
				}
			}
		}
	}
	if stored != len(distinct) {
		t.Errorf("ring holds %d tuples of the last metric, want the %d distinct (owner, tuple) placements and no other", stored, len(distinct))
	}
	direct, viaEntry := firstHops(reg)
	if direct-direct0 < items*9/10 {
		t.Errorf("of %d stores on the settled ring %d went straight to an owner and %d through the entry", items, direct-direct0, viaEntry-entry0)
	}
}

// TestRoutedStoreMetered: the insert stays visible from outside under the
// series it always had — the origin's exchange and the servers' handling
// are tag="insert" on both sides of the wire, the client issues no
// find_succ of its own, and store_ops counts one per stored tuple.
func TestRoutedStoreMetered(t *testing.T) {
	regs := [2]*metrics.Registry{metrics.New(), metrics.New()}
	var ring [2]*Server
	for i := range ring {
		s, err := NewServer("127.0.0.1:0", obsOptions(regs[i], nil))
		if err != nil {
			t.Fatalf("NewServer: %v", err)
		}
		t.Cleanup(s.Close)
		ring[i] = s
	}
	if err := ring[1].Join(ring[0].Addr()); err != nil {
		t.Fatalf("join: %v", err)
	}
	ring[1].round(chord.RoundStabilize)
	ring[0].round(chord.RoundStabilize)

	// Four lanes share the client, as the repo benchmark's writers do.
	const n, lanes = 200, 4
	c, reg := storeClient(t, ring[0].Addr(), 3)
	var wg sync.WaitGroup
	for lane := 0; lane < lanes; lane++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := lane; i < n; i += lanes {
				if err := c.Insert(9, uint64(i)*0x9e3779b97f4a7c15+1); err != nil {
					t.Errorf("insert %d: %v", i, err)
				}
			}
		}()
	}
	wg.Wait()
	label := metrics.L("tag", "insert")
	if got := outRPCs(reg, "insert"); got != n || outRPCs(reg, "find_succ") != 0 {
		t.Errorf("client: %d insert and %d find_succ exchanges, want %d and 0", got, outRPCs(reg, "find_succ"), n)
	}
	if got := reg.Histogram("netdht_out_rpc_seconds", "", metrics.DefLatencyBuckets, label).Count(); got != n {
		t.Errorf("client insert round-trip histogram holds %d samples, want %d", got, n)
	}
	var handled uint64
	var storeOps int64
	for i, s := range ring {
		handled += regs[i].Histogram("netdht_rpc_seconds", "", metrics.DefLatencyBuckets, label).Count()
		storeOps += s.Status().StoreOps
	}
	// One handling an insert, but for the lanes' first stores, which the
	// entry may relay to its peer before the view covers the ring: the node
	// the client sent the store to, and one more for every hop.
	if routed := uint64(routedTotal(ring[:])); handled != n+routed || routed > 2*lanes {
		t.Errorf("servers handled %d insert frames for %d inserts forwarded %d hops", handled, n, routed)
	}
	if storeOps != n {
		t.Errorf("statusz store_ops sum to %d, want %d", storeOps, n)
	}
}

// TestRoutedStoreBulkFrame: the payload may be wire's bulk tuple frame;
// the node the route ends at applies it through the bulk handler — every
// vector stored, one store operation.
func TestRoutedStoreBulkFrame(t *testing.T) {
	s, err := NewServer("127.0.0.1:0", obsOptions(nil, nil))
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	t.Cleanup(s.Close)
	c, _ := storeClient(t, s.Addr(), 1)
	vectors := []uint16{1, 5, 63}
	if _, err := c.store(42, wire.EncodeBulkInsert(wire.BulkInsert{Metric: 4, Bit: 3, Vectors: vectors})); err != nil {
		t.Fatalf("bulk store: %v", err)
	}
	for _, v := range vectors {
		if !tupleAt(s, wire.Insert{Metric: 4, Vector: v, Bit: 3}) {
			t.Errorf("vector %d of the bulk frame is not stored", v)
		}
	}
	if st := s.Status(); st.StoreTuples != len(vectors) || st.StoreOps != 1 {
		t.Errorf("status %+v, want %d tuples from 1 store operation", st, len(vectors))
	}
}

// TestBareInsertFrameRefused: a tuple frame that arrives on its own, not
// behind a routed store, would land on whatever node the peer dialled and
// bypass §3.2's placement. Both shapes are refused and nothing is stored.
func TestBareInsertFrameRefused(t *testing.T) {
	s, err := NewServer("127.0.0.1:0", obsOptions(nil, nil))
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	t.Cleanup(s.Close)
	c, _ := storeClient(t, s.Addr(), 1)
	for name, frame := range map[string][]byte{
		"insert":      wire.EncodeInsert(wire.Insert{Metric: 4, Vector: 5, Bit: 3}),
		"bulk insert": wire.EncodeBulkInsert(wire.BulkInsert{Metric: 4, Bit: 3, Vectors: []uint16{1, 5}}),
	} {
		_, err := call(c.peers, s.Addr(), frame, decodeAck)
		if re, ok := err.(remoteErr); !ok || re.class != dht.ClassOther {
			t.Errorf("bare %s frame got %v, want dht.ClassOther", name, err)
		}
	}
	if st := s.Status(); st.StoreTuples != 0 || st.StoreOps != 0 {
		t.Errorf("status %+v after refused frames, want an empty store and no store operation", st)
	}
	if _, ok := s.App().(*store.Store); ok {
		t.Errorf("a refused frame created the node's store")
	}
}

// TestRoutedStoreCrashedOwner: the believed owner of the target is dead
// and no round has repaired its arc yet. The route pays the discovery and
// delivers to the next covering successor, which stores and acks — inside
// one RPC timeout, and as one exchange at the client.
func TestRoutedStoreCrashedOwner(t *testing.T) {
	env := sim.NewEnv(47)
	cl := newTestCluster(t, env, 8)
	settleCluster(t, cl, env)
	servers := cl.Servers()
	c, reg := storeClient(t, servers[0].Addr(), 5)

	victim := servers[4]
	target := victim.ID() // the top of the victim's arc
	cl.Crash(victim)
	heir, err := cl.Owner(target)
	if err != nil {
		t.Fatalf("Owner after the crash: %v", err)
	}

	tuple := wire.Insert{Metric: 5, Vector: 3, Bit: 2}
	start := time.Now()
	ack, err := c.store(target, wire.EncodeInsert(tuple))
	if took := time.Since(start); took > defaultRPCTimeout {
		t.Errorf("store over a crashed owner took %v, past the RPC timeout", took)
	}
	if err != nil {
		t.Fatalf("store over a crashed owner failed with %v; live successors cover the arc", err)
	}
	if ack.Stale == 0 {
		t.Errorf("ack %+v reports no stale hop, but the believed owner is dead", ack)
	}
	if !tupleAt(heir.(*Server), tuple) {
		t.Errorf("tuple is not on %016x, the successor that inherits the arc", heir.ID())
	}
	if got := outRPCs(reg, "insert"); got != 1 {
		t.Errorf("client spent %d exchanges, want 1: the detour is the ring's", got)
	}
}

// TestRoutedStoreDownTerminal: a node that still answers but is shutting
// down (alive == false) refuses a routed store with dht.ClassDown, and the
// sender's Route moves to its next candidate exactly as it does for a
// plain find_succ: same owner, same cost.
func TestRoutedStoreDownTerminal(t *testing.T) {
	env := sim.NewEnv(53)
	cl := newTestCluster(t, env, 8)
	settleCluster(t, cl, env)
	servers := cl.Servers()
	c, _ := storeClient(t, servers[0].Addr(), 5)

	down, next := servers[4], servers[5]
	target := down.ID()
	tuple := wire.Insert{Metric: 5, Vector: 7, Bit: 1}
	down.SetAlive(false) // the listener keeps answering
	defer down.SetAlive(true)

	_, err := c.peers.route(down.Addr(), findSuccMsg{
		flags: flagForwarded | flagDeliver, key: target, hops: 2, stale: 1, store: wire.EncodeInsert(tuple)}, nil)
	if re, ok := err.(remoteErr); !ok || re.class != dht.ClassDown || re.hops != 2 || re.stale != 1 || !errors.Is(err, dht.ErrNodeDown) {
		t.Fatalf("down node answered %+v (%v), want dht.ClassDown with the cost so far", re, err)
	}

	found, err := c.peers.route(c.cfg.Entry, findSuccMsg{key: target}, nil)
	if err != nil {
		t.Fatalf("find_succ around the down node: %v", err)
	}
	ack, err := c.store(target, wire.EncodeInsert(tuple))
	if err != nil {
		t.Fatalf("store around the down node: %v", err)
	}
	if found.Owner.ID != next.ID() || ack.Hops != found.Hops || ack.Stale != found.Stale || ack.Stale == 0 {
		t.Errorf("find_succ ended at %016x (hops %d, stale %d), the store's ack says hops %d, stale %d; want node %016x and equal costs",
			found.Owner.ID, found.Hops, found.Stale, ack.Hops, ack.Stale, next.ID())
	}
	if !tupleAt(next, tuple) || tupleAt(down, tuple) {
		t.Errorf("tuple on next=%v, on the down node=%v; want true, false", tupleAt(next, tuple), tupleAt(down, tuple))
	}
}

// TestRoutedStoreUnhonoured: a peer that routes the key but ignores the
// tuple — it answers with an ordinary find_succ reply — has stored
// nothing, and nobody may take its reply for an ack: the client returns
// an error, and a relaying server counts the peer as a failed candidate.
func TestRoutedStoreUnhonoured(t *testing.T) {
	const fakeID = 1 << 62
	fake := fakePeer(t, func(self string, req []byte) []byte {
		m, err := decodeFindSucc(req)
		if err != nil || m.store == nil {
			t.Errorf("fake peer got %x (%v), want a routed store", req, err)
		}
		return encodeFindSuccResp(chord.Found{Hops: int(m.hops), Stale: int(m.stale), Owner: chord.Ref{ID: fakeID, Addr: self}})
	})

	t.Run("entry", func(t *testing.T) {
		c, _ := storeClient(t, fake, 1)
		err := c.Insert(1, 2)
		if !errors.Is(err, wire.ErrBadMessage) {
			t.Fatalf("Insert through a peer that ignores the tuple: %v, want a decode error", err)
		}
	})
	t.Run("relay", func(t *testing.T) {
		s, err := NewServer("127.0.0.1:0", obsOptions(nil, nil))
		if err != nil {
			t.Fatalf("NewServer: %v", err)
		}
		t.Cleanup(s.Close)
		// A ring of two: the fake peer is the server's only neighbour and
		// the believed owner of its own identifier.
		ref := chord.Ref{ID: fakeID, Addr: fake}
		_, _, fingers := s.Protocol().State()
		s.Protocol().Seed(ref, []chord.Ref{ref}, fingers)

		c, _ := storeClient(t, s.Addr(), 1)
		ack, err := c.store(fakeID, wire.EncodeInsert(wire.Insert{Metric: 1}))
		if !errors.Is(err, dht.ErrNoRoute) {
			t.Fatalf("store relayed to a peer that ignores the tuple: ack %+v, err %v; want dht.ErrNoRoute", ack, err)
		}
		if s.App() != nil {
			t.Error("the relay stored the tuple itself")
		}
	})
}

// TestRoutedStoreCodec: the store request is the find_succ header with
// exactly one tuple frame behind it and the ack is six bytes; a plain
// find_succ is byte for byte what it was; and the decoders refuse what a
// peer could use to reach a handler it should not — a nested control
// frame, a foreign version, bytes before or after the tuple.
func TestRoutedStoreCodec(t *testing.T) {
	insert := wire.EncodeInsert(wire.Insert{Metric: 0xabcdef, Vector: 63, Bit: 10, TTL: 1200})
	bulk := wire.EncodeBulkInsert(wire.BulkInsert{Metric: 9, Bit: 4, TTL: 7, Vectors: []uint16{1, 2, 3}})
	for _, payload := range [][]byte{insert, bulk, wire.EncodeBulkInsert(wire.BulkInsert{Metric: 9})} {
		m := findSuccMsg{flags: flagForwarded | flagDeliver, key: math.MaxUint64, hops: 7, stale: 2, store: payload}
		frame := encodeFindSucc(m)
		if len(frame) != findSuccHeader+len(payload) || frame[1] != tagStore {
			t.Fatalf("store frame is %d bytes with tag %#x, want %d with tagStore", len(frame), frame[1], findSuccHeader+len(payload))
		}
		if got, err := decodeFindSucc(frame); err != nil || !reflect.DeepEqual(got, m) {
			t.Errorf("round trip of %x: %+v, %v", payload, got, err)
		}
	}
	plain := encodeFindSucc(findSuccMsg{flags: flagNeighbors, key: 42, hops: 1})
	if len(plain) != findSuccHeader || plain[1] != tagFindSucc {
		t.Errorf("plain find_succ is %d bytes with tag %#x", len(plain), plain[1])
	}
	if len(insert) != insertFrameLen {
		t.Fatalf("insert frame is %d bytes, insertFrameLen says %d", len(insert), insertFrameLen)
	}

	with := func(payload []byte) []byte { return encodeFindSucc(findSuccMsg{key: 1, store: payload}) }
	retag := func(frame []byte, at int, b byte) []byte {
		out := append([]byte(nil), frame...)
		out[at] = b
		return out
	}
	probe, err := wire.EncodeProbeReq(wire.ProbeReq{Bit: 1, NumVecs: 64, Metrics: []uint64{1}})
	if err != nil {
		t.Fatal(err)
	}
	for name, frame := range map[string][]byte{
		"no payload":              retag(plain, 1, tagStore),
		"one payload byte":        with(insert[:1]),
		"truncated insert":        with(insert[:len(insert)-1]),
		"byte after the insert":   with(append(append([]byte(nil), insert...), 0)),
		"odd bulk vector bytes":   with(bulk[:len(bulk)-1]),
		"truncated bulk header":   with(bulk[:7]),
		"foreign payload version": with(retag(insert, 0, wire.Version+1)),
		"nested ping":             with(encodePing()),
		"nested find_succ":        with(plain),
		"nested store":            with(with(insert)),
		"nested notify":           with(encodeNotify(chord.Ref{ID: 1, Addr: "a:1"})),
		"probe request":           with(probe),
		"probe reply tag":         with(retag(insert, 1, wire.TagProbeResp)),
		"foreign frame version":   retag(with(insert), 0, wire.Version+1),
		"truncated header":        with(insert)[:findSuccHeader-1],
	} {
		if m, err := decodeFindSucc(frame); err == nil {
			t.Errorf("%s: accepted as %+v", name, m)
		} else if !errors.Is(err, wire.ErrShort) && !errors.Is(err, wire.ErrBadMessage) {
			t.Errorf("%s: error %v is not a wire decode error", name, err)
		}
	}

	ack := chord.Found{Hops: 513, Stale: 2}
	rawAck := encodeStoreAck(ack)
	if got, err := decodeStoreAck(rawAck); err != nil || got != ack || len(rawAck) != routedHead {
		t.Errorf("ack round trip: %+v, %v (%d bytes)", got, err, len(rawAck))
	}
	// The long layout: the storing node and its whole neighbourhood behind
	// the same six bytes, and nothing between the two layouts.
	a, b := chord.Ref{ID: 1, Addr: "a:1"}, chord.Ref{ID: 2, Addr: "b:2"}
	for _, near := range []*chord.Neighbors{{Pred: b, Succ: []chord.Ref{b, a}}, {Succ: []chord.Ref{b}}, {Pred: b}, {}} {
		long := chord.Found{Hops: 513, Stale: 2, Owner: a, Near: near}
		if got, err := decodeStoreAck(encodeStoreAck(long)); err != nil || !reflect.DeepEqual(got, long) {
			t.Errorf("long ack round trip of %+v: %+v, %v", near, got, err)
		}
	}
	rawLong := encodeStoreAck(chord.Found{Owner: a, Near: &chord.Neighbors{Pred: b, Succ: []chord.Ref{b}}})
	refEnd := routedHead + 10 + len(a.Addr)
	countAt := refEnd + 1 + 10 + len(b.Addr)
	hugeLong := append([]byte(nil), rawLong...)
	hugeLong[countAt] = 255
	for name, frame := range map[string][]byte{
		"trailing byte":                  append(append([]byte(nil), rawAck...), 0),
		"truncated":                      rawAck[:5],
		"long: trailing byte":            append(append([]byte(nil), rawLong...), 0),
		"long: truncated ref":            rawLong[:refEnd-1],
		"long: ref and no neighbourhood": rawLong[:refEnd],
		"long: missing successor count":  rawLong[:countAt],
		"long: count beyond the frame":   hugeLong,
		"long: truncated successor":      rawLong[:len(rawLong)-1],
		"long: empty owner address":      append(append([]byte(nil), rawAck...), append(make([]byte, 10), 0, 0)...),
		"long: find_succ reply's layout": retag(encodeFindSuccResp(chord.Found{Owner: a}), 1, tagStoreAck),
		"empty":                          nil,
		"plain ack":                      encodeAck(true),
		"find_succ reply":                encodeFindSuccResp(chord.Found{Hops: 1, Owner: chord.Ref{ID: 1, Addr: "a:1"}}),
		"typed error":                    encodeErr(dht.ClassNoRoute, 1, 1),
		"foreign version":                retag(rawAck, 0, wire.Version+1),
		"the request back":               with(insert),
	} {
		if m, err := decodeStoreAck(frame); err == nil {
			t.Errorf("ack %s: accepted as %+v", name, m)
		} else if !errors.Is(err, wire.ErrShort) && !errors.Is(err, wire.ErrBadMessage) {
			t.Errorf("ack %s: error %v is not a wire decode error", name, err)
		}
	}
}
